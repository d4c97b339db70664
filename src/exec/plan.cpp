#include "exec/plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace cgps::exec {

namespace {

bool is_source(Op op) { return op == Op::kParam || op == Op::kInput; }

// Does this op save extra state for backward (or intra-step scratch that the
// arena owns)? kBatchNorm saves mean/invstd/xhat, kDropout its mask, the mega
// ops their per-head/per-block tensors.
bool has_aux(Op op) {
  return op == Op::kDropout || op == Op::kBatchNorm || op == Op::kMultihead ||
         op == Op::kPerformer;
}

// The eager tape DFS from tensor.cpp, replayed over the IR graph: iterative
// post-order, children (inputs) descended in parent order, pushed only when
// requires_grad and not yet visited, root pre-inserted. The reversed order is
// the exact closure firing order of Tensor::backward(), which is what makes
// scalar planned gradients bit-identical to eager.
std::vector<int> tape_post_order(const Program& prog, int root) {
  struct Frame {
    int node;
    std::size_t next_child;
  };
  std::vector<int> order;
  std::vector<char> visited(prog.nodes.size(), 0);
  std::vector<Frame> stack;
  visited[static_cast<std::size_t>(root)] = 1;
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const NodeDef& node = prog.nodes[static_cast<std::size_t>(f.node)];
    if (f.next_child < node.inputs.size()) {
      const int child = node.inputs[f.next_child++];
      if (prog.nodes[static_cast<std::size_t>(child)].requires_grad &&
          visited[static_cast<std::size_t>(child)] == 0) {
        visited[static_cast<std::size_t>(child)] = 1;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  return order;
}

// Values whose forward result a backward step must still see (extends value
// liveness into the backward timeline). Mirrors what each eager closure
// captures/reads.
void bwd_value_reads(const Program& prog, const Step& step, std::vector<int>& out) {
  out.clear();
  const auto& nodes = prog.nodes;
  const auto own_inputs = [&](int id) -> const std::vector<int>& {
    return nodes[static_cast<std::size_t>(id)].inputs;
  };
  switch (step.op) {
    case Op::kMatmul:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMulColvec:
    case Op::kBce:
    case Op::kMse:
      out.push_back(own_inputs(step.n0)[0]);
      out.push_back(own_inputs(step.n0)[1]);
      break;
    case Op::kSigmoid:
      out.push_back(step.n0);  // y * (1 - y)
      break;
    case Op::kRelu:
    case Op::kSquare:
      out.push_back(own_inputs(step.n0)[0]);
      break;
    case Op::kMultihead:
    case Op::kPerformer:
      out.push_back(own_inputs(step.n0)[0]);  // x (weights are params, always live)
      break;
    case Op::kLinearRelu:
      // Fused backward masks with the *output* (bitwise equal to the eager
      // input mask: relu(x) > 0 <=> x > 0) and re-reads the matmul operands.
      out.push_back(step.n0);
      out.push_back(own_inputs(step.n2)[0]);
      out.push_back(own_inputs(step.n2)[1]);
      break;
    case Op::kLinear:
      out.push_back(own_inputs(step.n1)[0]);
      out.push_back(own_inputs(step.n1)[1]);
      break;
    default:
      break;  // routing / affine ops need only gradients
  }
}

}  // namespace

Plan compile(Program prog) {
  Plan plan;
  const int n = static_cast<int>(prog.nodes.size());

  // ---- dead values (inference programs) ----
  // An inference program keeps only the nodes its output reads, directly or
  // through other nodes: the rest get no step and no arena slot. Its steps
  // have no side effects, so dropping one changes no bit of the output.
  // Nodes are recorded after their inputs, so one backward sweep suffices.
  std::vector<char> live(static_cast<std::size_t>(n), 1);
  if (prog.inference()) {
    std::fill(live.begin(), live.end(), 0);
    live[static_cast<std::size_t>(prog.output)] = 1;
    for (int id = n - 1; id >= 0; --id)
      if (live[static_cast<std::size_t>(id)] != 0)
        for (int in : prog.nodes[static_cast<std::size_t>(id)].inputs)
          live[static_cast<std::size_t>(in)] = 1;
  }
  const auto is_live = [&](int id) { return live[static_cast<std::size_t>(id)] != 0; };

  // ---- consumer census (fusion legality + grad liveness) ----
  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
  std::vector<int> uses(static_cast<std::size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    for (int in : prog.nodes[static_cast<std::size_t>(id)].inputs) {
      consumers[static_cast<std::size_t>(in)].push_back(id);
      ++uses[static_cast<std::size_t>(in)];
    }
  }
  if (prog.output >= 0) ++uses[static_cast<std::size_t>(prog.output)];
  if (prog.loss >= 0) ++uses[static_cast<std::size_t>(prog.loss)];

  // ---- backward node order (pre-fusion), eager tape DFS ----
  std::vector<int> bwd_nodes;
  if (prog.loss >= 0 &&
      prog.nodes[static_cast<std::size_t>(prog.loss)].requires_grad) {
    std::vector<int> post = tape_post_order(prog, prog.loss);
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const Op op = prog.nodes[static_cast<std::size_t>(*it)].op;
      if (!is_source(op) && op != Op::kZeros) bwd_nodes.push_back(*it);
    }
  }
  std::vector<int> bwd_pos(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < bwd_nodes.size(); ++i)
    bwd_pos[static_cast<std::size_t>(bwd_nodes[i])] = static_cast<int>(i);

  // ---- fusion pass ----
  // fused_as[id]: step op this node participates in, kept keyed on the node
  // that anchors the fused step. Backward schedules are derived from the
  // pre-fusion graph; a linear fusion additionally requires its constituent
  // closures to be adjacent in that schedule so the merged backward preserves
  // the exact eager firing order (they always are: only parameter leaves sit
  // between them in the tape).
  std::vector<char> fused_head(static_cast<std::size_t>(n), 0);   // anchors a fused step
  std::vector<char> fused_member(static_cast<std::size_t>(n), 0); // absorbed into one
  plan.value_elided.assign(static_cast<std::size_t>(n), 0);
  const auto node = [&](int id) -> const NodeDef& {
    return prog.nodes[static_cast<std::size_t>(id)];
  };
  const auto bwd_adjacent = [&](int a, int b) {
    // No backward (inference) imposes no constraint; otherwise require b to
    // fire right after a so one fused step can replace both.
    if (bwd_nodes.empty() || bwd_pos[static_cast<std::size_t>(a)] < 0) return true;
    return bwd_pos[static_cast<std::size_t>(b)] == bwd_pos[static_cast<std::size_t>(a)] + 1;
  };
  std::vector<Step> fused_steps(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    if (!is_live(id)) continue;  // a dead anchor must not absorb a live member
    const NodeDef& d = node(id);
    // linear+bias(+relu): matmul and add_rowvec outputs are single-use
    // intermediates recorded consecutively by the builder.
    if (d.op == Op::kAddRowvec && node(d.inputs[0]).op == Op::kMatmul &&
        d.inputs[0] == id - 1 && uses[static_cast<std::size_t>(d.inputs[0])] == 1 &&
        node(d.inputs[1]).op == Op::kParam) {
      const int mm = d.inputs[0];
      // relu directly on top extends the fusion.
      int relu = -1;
      if (id + 1 < n && node(id + 1).op == Op::kRelu && node(id + 1).inputs[0] == id &&
          uses[static_cast<std::size_t>(id)] == 1)
        relu = id + 1;
      if (relu >= 0 && bwd_adjacent(relu, id) && bwd_adjacent(id, mm)) {
        fused_head[static_cast<std::size_t>(relu)] = 1;
        fused_member[static_cast<std::size_t>(id)] = 1;
        fused_member[static_cast<std::size_t>(mm)] = 1;
        plan.value_elided[static_cast<std::size_t>(id)] = 1;
        plan.value_elided[static_cast<std::size_t>(mm)] = 1;
        fused_steps[static_cast<std::size_t>(relu)] = {Op::kLinearRelu, relu, id, mm};
      } else if (bwd_adjacent(id, mm)) {
        fused_head[static_cast<std::size_t>(id)] = 1;
        fused_member[static_cast<std::size_t>(mm)] = 1;
        plan.value_elided[static_cast<std::size_t>(mm)] = 1;
        fused_steps[static_cast<std::size_t>(id)] = {Op::kLinear, id, mm, -1};
      }
    }
    // GatedGCN gate chain: eta = sigmoid(e_hat), msg = eta * lin_msg. Forward
    // fuses into one pass (eta still materialized — the scatter consumes it);
    // backward keeps the two separate closures at their eager positions.
    // Legal only when every *other* consumer of eta is defined after the mul,
    // since eta's value now materializes at the mul's position.
    if (d.op == Op::kMul && node(d.inputs[0]).op == Op::kSigmoid &&
        !fused_member[static_cast<std::size_t>(d.inputs[0])] &&
        !fused_head[static_cast<std::size_t>(d.inputs[0])]) {
      const int eta = d.inputs[0];
      bool legal = true;
      for (int c : consumers[static_cast<std::size_t>(eta)])
        if (c != id && c < id) legal = false;
      if (legal && prog.output != eta && prog.loss != eta) {
        fused_head[static_cast<std::size_t>(id)] = 1;
        fused_member[static_cast<std::size_t>(eta)] = 1;  // drop its standalone fwd step
        fused_steps[static_cast<std::size_t>(id)] = {Op::kGateChain, id, eta, -1};
      }
    }
  }

  // ---- forward schedule ----
  for (int id = 0; id < n; ++id) {
    const Op op = node(id).op;
    if (is_source(op) || !is_live(id)) continue;
    if (fused_member[static_cast<std::size_t>(id)]) continue;
    if (fused_head[static_cast<std::size_t>(id)])
      plan.fwd.push_back(fused_steps[static_cast<std::size_t>(id)]);
    else
      plan.fwd.push_back({op, id, -1, -1});
  }
  const int f = static_cast<int>(plan.fwd.size());

  // ---- backward schedule ----
  // Walk the eager firing order; a fused head emits the merged step and its
  // members are skipped (they fire inside it, in the same relative order).
  {
    std::vector<char> absorbed(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < bwd_nodes.size(); ++i) {
      const int id = bwd_nodes[i];
      if (absorbed[static_cast<std::size_t>(id)] != 0) continue;
      const Step& fs = fused_steps[static_cast<std::size_t>(id)];
      if (fused_head[static_cast<std::size_t>(id)] != 0 && fs.op != Op::kGateChain) {
        plan.bwd.push_back(fs);
        absorbed[static_cast<std::size_t>(fs.n1)] = 1;
        if (fs.n2 >= 0) absorbed[static_cast<std::size_t>(fs.n2)] = 1;
      } else {
        plan.bwd.push_back({node(id).op, id, -1, -1});
      }
    }
  }

  // ---- step index maps ----
  plan.node_def_step.assign(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < f; ++s) {
    const Step& st = plan.fwd[static_cast<std::size_t>(s)];
    plan.node_def_step[static_cast<std::size_t>(st.n0)] = s;
    if (st.n1 >= 0) plan.node_def_step[static_cast<std::size_t>(st.n1)] = s;
    if (st.n2 >= 0) plan.node_def_step[static_cast<std::size_t>(st.n2)] = s;
  }
  plan.node_bwd_step.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t s = 0; s < plan.bwd.size(); ++s) {
    const Step& st = plan.bwd[s];
    const int g = f + static_cast<int>(s);
    plan.node_bwd_step[static_cast<std::size_t>(st.n0)] = g;
    if (st.n1 >= 0 && st.op != Op::kGateChain)
      plan.node_bwd_step[static_cast<std::size_t>(st.n1)] = g;
    if (st.n2 >= 0) plan.node_bwd_step[static_cast<std::size_t>(st.n2)] = g;
  }

  // ---- liveness ----
  const int total = f + static_cast<int>(plan.bwd.size());
  plan.val.assign(static_cast<std::size_t>(n), Life{});
  plan.grad.assign(static_cast<std::size_t>(n), Life{});
  plan.aux.assign(static_cast<std::size_t>(n), Life{});

  for (int id = 0; id < n; ++id) {
    const NodeDef& d = node(id);
    if (is_source(d.op) || plan.value_elided[static_cast<std::size_t>(id)] != 0) continue;
    Life& v = plan.val[static_cast<std::size_t>(id)];
    v.def = plan.node_def_step[static_cast<std::size_t>(id)];
    v.last = v.def;
  }
  // Forward reads.
  for (int s = 0; s < f; ++s) {
    const Step& st = plan.fwd[static_cast<std::size_t>(s)];
    const auto read = [&](int in) {
      if (in < 0 || is_source(node(in).op)) return;
      if (plan.value_elided[static_cast<std::size_t>(in)] != 0) return;
      Life& v = plan.val[static_cast<std::size_t>(in)];
      v.last = std::max(v.last, s);
    };
    // Fused steps read the union of constituent inputs minus internal edges.
    const int deepest = st.n2 >= 0 ? st.n2 : (st.n1 >= 0 && st.op != Op::kGateChain ? st.n1 : st.n0);
    for (int in : node(deepest).inputs) read(in);
    if (st.op == Op::kLinear || st.op == Op::kLinearRelu) {
      const int arv = st.op == Op::kLinear ? st.n0 : st.n1;
      read(node(arv).inputs[1]);  // bias
    } else if (st.op == Op::kGateChain) {
      read(node(st.n1).inputs[0]);  // e_hat, the sigmoid operand
      for (int in : node(st.n0).inputs)
        if (in != st.n1) read(in);  // lin_msg operand; eta is internal
    }
  }
  // Backward reads + output/loss kept alive past the end for the runner.
  std::vector<int> reads;
  for (std::size_t s = 0; s < plan.bwd.size(); ++s) {
    const int g = f + static_cast<int>(s);
    bwd_value_reads(prog, plan.bwd[s], reads);
    for (int in : reads) {
      if (is_source(node(in).op)) continue;
      if (plan.value_elided[static_cast<std::size_t>(in)] != 0)
        throw std::logic_error("exec: fused-away value read by a backward step");
      Life& v = plan.val[static_cast<std::size_t>(in)];
      v.last = std::max(v.last, g);
    }
  }
  if (prog.output >= 0) plan.val[static_cast<std::size_t>(prog.output)].last = total;
  if (prog.loss >= 0) plan.val[static_cast<std::size_t>(prog.loss)].last = total;

  // Gradient intervals: first writer is the earliest-firing consumer closure
  // (the loss root's grad is seeded by the executor at the first backward
  // step); last reader is the node's own closure.
  plan.zero_grads.assign(plan.bwd.size(), {});
  for (int id = 0; id < n; ++id) {
    const NodeDef& d = node(id);
    if (!d.requires_grad || d.op == Op::kParam) continue;
    const int own = plan.node_bwd_step[static_cast<std::size_t>(id)];
    if (own < 0) continue;  // not reached by this loss
    if (plan.value_elided[static_cast<std::size_t>(id)] != 0) continue;
    int first = own;
    for (int c : consumers[static_cast<std::size_t>(id)]) {
      const int cs = plan.node_bwd_step[static_cast<std::size_t>(c)];
      if (cs >= 0) first = std::min(first, cs);
    }
    plan.grad[static_cast<std::size_t>(id)] = {first, own};
    plan.zero_grads[static_cast<std::size_t>(first - f)].push_back(id);
  }

  // Aux intervals: defined with the value, read by the node's own closure.
  for (int id = 0; id < n; ++id) {
    if (!has_aux(node(id).op)) continue;
    if (fused_member[static_cast<std::size_t>(id)] != 0) continue;
    const int def = plan.node_def_step[static_cast<std::size_t>(id)];
    const int own = plan.node_bwd_step[static_cast<std::size_t>(id)];
    plan.aux[static_cast<std::size_t>(id)] = {def, std::max(def, own)};
  }

  plan.prog = std::move(prog);
  return plan;
}

}  // namespace cgps::exec
