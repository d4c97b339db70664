#include "exec/gps_program.hpp"

#include "graph/circuit_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace cgps::exec {

namespace {

// Mirrors the pe_width helper of model.cpp.
std::int64_t pe_width(const GpsConfig& c) { return std::max<std::int64_t>(4, c.hidden / 4); }

// Emission helper. Every method appends nodes in the exact order the eager
// forward creates the corresponding tensors, with NodeDef::inputs matching
// the eager parent order — the two invariants the plan compiler's tape
// replay and the executor's RNG stream both rely on.
struct Builder {
  Builder(const CircuitGps& model, bool training) : model_(model), training_(training) {
    for (auto& [name, tensor] : model.named_parameters()) params_.emplace(name, tensor);
    for (auto& [name, buffer] : model.named_buffers()) buffers_.emplace(name, buffer);
  }

  const CircuitGps& model_;
  bool training_;
  Program prog;
  std::unordered_map<std::string, Tensor> params_;
  std::unordered_map<std::string, std::vector<float>*> buffers_;
  std::unordered_map<std::string, int> param_node_;
  std::unordered_map<int, int> input_node_;  // SrcKind -> node id

  int push(NodeDef d) {
    prog.nodes.push_back(std::move(d));
    return static_cast<int>(prog.nodes.size()) - 1;
  }
  const NodeDef& at(int id) const { return prog.nodes[static_cast<std::size_t>(id)]; }
  bool rg(int id) const { return at(id).requires_grad; }

  int param(const std::string& name) {
    if (const auto it = param_node_.find(name); it != param_node_.end()) return it->second;
    const Tensor& t = params_.at(name);
    NodeDef d;
    d.op = Op::kParam;
    d.rows = RowsSym::kFixed;
    d.fixed_rows = t.rows();
    d.cols = t.cols();
    d.requires_grad = t.requires_grad();
    d.param = t;
    const int id = push(std::move(d));
    param_node_.emplace(name, id);
    return id;
  }

  int input(SrcKind src, RowsSym rows, std::int64_t cols) {
    const int key = static_cast<int>(src);
    if (const auto it = input_node_.find(key); it != input_node_.end()) return it->second;
    NodeDef d;
    d.op = Op::kInput;
    d.src = src;
    d.rows = rows;
    d.cols = cols;
    const int id = push(std::move(d));
    input_node_.emplace(key, id);
    return id;
  }

  int zeros(RowsSym rows, std::int64_t cols) {
    NodeDef d;
    d.op = Op::kZeros;
    d.rows = rows;
    d.cols = cols;
    return push(std::move(d));
  }

  int unary(Op op, int x) {
    NodeDef d;
    d.op = op;
    d.inputs = {x};
    d.rows = at(x).rows;
    d.fixed_rows = at(x).fixed_rows;
    d.cols = at(x).cols;
    d.requires_grad = rg(x);
    return push(std::move(d));
  }

  int binary(Op op, int a, int b) {
    NodeDef d;
    d.op = op;
    d.inputs = {a, b};
    d.rows = at(a).rows;
    d.fixed_rows = at(a).fixed_rows;
    d.cols = at(a).cols;
    d.requires_grad = rg(a) || rg(b);
    return push(std::move(d));
  }

  int scale(int x, float s) {
    const int id = unary(Op::kScale, x);
    prog.nodes[static_cast<std::size_t>(id)].scalar = s;
    return id;
  }

  int add_scalar(int x, float s) {
    const int id = unary(Op::kAddScalar, x);
    prog.nodes[static_cast<std::size_t>(id)].scalar = s;
    return id;
  }

  int dropout(int x, float p) {
    const int id = unary(Op::kDropout, x);
    prog.nodes[static_cast<std::size_t>(id)].p = p;
    return id;
  }

  int matmul(int x, int w) {
    NodeDef d;
    d.op = Op::kMatmul;
    d.inputs = {x, w};
    d.rows = at(x).rows;
    d.fixed_rows = at(x).fixed_rows;
    d.cols = at(w).cols;
    d.requires_grad = rg(x) || rg(w);
    return push(std::move(d));
  }

  // Linear layer: matmul immediately followed by add_rowvec (consecutive ids
  // are what makes the plan compiler's kLinear/kLinearRelu fusion fire).
  int linear(const std::string& prefix, int x) {
    const int w = param(prefix + ".weight");
    // Materialize the bias param node first: a lazily created kParam between
    // the matmul and the add_rowvec would break their id-adjacency and the
    // fusion would never fire.
    const bool has_bias = params_.find(prefix + ".bias") != params_.end();
    const int b = has_bias ? param(prefix + ".bias") : -1;
    const int mm = matmul(x, w);
    if (!has_bias) return mm;
    NodeDef d;
    d.op = Op::kAddRowvec;
    d.inputs = {mm, b};
    d.rows = at(mm).rows;
    d.fixed_rows = at(mm).fixed_rows;
    d.cols = at(mm).cols;
    d.requires_grad = rg(mm) || rg(b);
    return push(std::move(d));
  }

  int gather(int x, SrcKind src, RowsSym idx_rows) {
    NodeDef d;
    d.op = Op::kGather;
    d.inputs = {x};
    d.src = src;
    d.idx_rows = idx_rows;
    d.rows = idx_rows;
    d.cols = at(x).cols;
    d.requires_grad = rg(x);
    return push(std::move(d));
  }

  int scatter_add(int x, SrcKind src, RowsSym idx_rows, RowsSym out_rows) {
    NodeDef d;
    d.op = Op::kScatterAdd;
    d.inputs = {x};
    d.src = src;
    d.idx_rows = idx_rows;
    d.rows = out_rows;
    d.cols = at(x).cols;
    d.requires_grad = rg(x);
    return push(std::move(d));
  }

  int segment_mean(int x, SrcKind src, RowsSym idx_rows, RowsSym out_rows) {
    NodeDef d;
    d.op = Op::kSegmentMean;
    d.inputs = {x};
    d.src = src;
    d.idx_rows = idx_rows;
    d.rows = out_rows;
    d.cols = at(x).cols;
    d.requires_grad = rg(x);
    return push(std::move(d));
  }

  int concat(std::vector<int> parts) {
    NodeDef d;
    d.op = Op::kConcat;
    d.rows = at(parts[0]).rows;
    d.fixed_rows = at(parts[0]).fixed_rows;
    for (int p : parts) {
      d.cols += at(p).cols;
      d.requires_grad = d.requires_grad || rg(p);
    }
    d.inputs = std::move(parts);
    return push(std::move(d));
  }

  int batchnorm(const std::string& prefix, int x) {
    const int gamma = param(prefix + ".gamma");
    const int beta = param(prefix + ".beta");
    NodeDef d;
    d.op = Op::kBatchNorm;
    d.inputs = {x, gamma, beta};
    d.rows = at(x).rows;
    d.fixed_rows = at(x).fixed_rows;
    d.cols = at(x).cols;
    d.requires_grad = rg(x) || rg(gamma) || rg(beta);
    d.training = training_;
    d.running_mean = buffers_.at(prefix + ".running_mean");
    d.running_var = buffers_.at(prefix + ".running_var");
    return push(std::move(d));
  }

  // nn::Mlp::forward — ReLU + (training) dropout between the linears.
  int mlp(const std::string& prefix, int x, int num_linears, float p) {
    int h = x;
    for (int i = 0; i < num_linears; ++i) {
      h = linear(prefix + ".linear" + std::to_string(i), h);
      if (i + 1 < num_linears) {
        h = unary(Op::kRelu, h);
        if (training_ && p > 0.0f) h = dropout(h, p);
      }
    }
    return h;
  }

  // One attention module as a single mega node (pre out-projection): the
  // per-head q/k/v weights ride in mh_w, the weight *nodes* trail x in
  // inputs so the tape replay sees the same leaf set as the eager graph.
  int mega(const std::string& prefix, int x, int layer_index) {
    const GpsConfig& cfg = model_.config();
    NodeDef d;
    d.op = cfg.attn == AttnKind::kTransformer ? Op::kMultihead : Op::kPerformer;
    d.rows = RowsSym::kN;
    d.cols = cfg.hidden;
    d.heads = cfg.heads;
    d.head_dim = cfg.hidden / cfg.heads;
    d.inputs.push_back(x);
    bool any_w = false;
    for (int h = 0; h < cfg.heads; ++h) {
      for (const char* role : {"q", "k", "v"}) {
        const std::string name = prefix + "." + role + std::to_string(h) + ".weight";
        d.inputs.push_back(param(name));
        d.mh_w.push_back(params_.at(name));
        any_w = any_w || params_.at(name).requires_grad();
      }
    }
    if (d.op == Op::kPerformer) {
      const nn::PerformerAttention* perf = model_.layer(layer_index).performer();
      d.features = perf->num_features();
      for (int h = 0; h < cfg.heads; ++h) d.mh_omega.push_back(perf->omega(h));
    }
    d.requires_grad = rg(x) || any_w;
    return push(std::move(d));
  }

  // GpsLayer::forward.
  std::pair<int, int> gps_layer(int l, int x, int e) {
    const GpsConfig& cfg = model_.config();
    const std::string P = "gps" + std::to_string(l) + ".";
    const float p = cfg.dropout;
    int sum = -1;
    int e_out = e;
    if (cfg.mpnn == MpnnKind::kGatedGcn) {
      // nn::GatedGcn::forward, emitted unconditionally: at E == 0 every
      // edge-indexed kernel is a no-op and x_new == x_self (the eager
      // early-return), bn_edge becomes a full no-op at bind time.
      const int x_self = linear(P + "mpnn.lin_self", x);
      const int xs = gather(x, SrcKind::kEdgeSrc, RowsSym::kE);
      const int xd = gather(x, SrcKind::kEdgeDst, RowsSym::kE);
      // Sequenced explicitly: each linear() emits nodes, and argument
      // evaluation order inside one call expression is unspecified.
      const int s_src = linear(P + "mpnn.lin_src", xs);
      const int s_dst = linear(P + "mpnn.lin_dst", xd);
      const int sum_sd = binary(Op::kAdd, s_src, s_dst);
      const int s_edge = linear(P + "mpnn.lin_edge", e);
      const int e_hat = binary(Op::kAdd, sum_sd, s_edge);
      const int eta = unary(Op::kSigmoid, e_hat);
      const int msg = binary(Op::kMul, eta, linear(P + "mpnn.lin_msg", xs));
      const int numer = scatter_add(msg, SrcKind::kEdgeDst, RowsSym::kE, RowsSym::kN);
      const int denom =
          add_scalar(scatter_add(eta, SrcKind::kEdgeDst, RowsSym::kE, RowsSym::kN), 1e-6f);
      int xm = binary(Op::kAdd, x_self, binary(Op::kDiv, numer, denom));
      if (training_ && p > 0.0f) xm = dropout(xm, p);
      sum = batchnorm(P + "bn_mpnn", binary(Op::kAdd, x, xm));
      e_out = batchnorm(P + "bn_edge", binary(Op::kAdd, e, e_hat));
    } else if (cfg.mpnn == MpnnKind::kGine) {
      // nn::Gine::forward, emitted unconditionally. The eager E == 0
      // early-return differs from this emission only by adding an exact
      // all-zero aggregation (0-row gather/scatter), same as GatedGCN above.
      // The eager (1,1)->(N,1) broadcast of 1+eps goes through a literal
      // ones-column matmul; the ones column is emitted as add_scalar over
      // zeros with requires_grad false, so it never enters the tape replay
      // (eager's Tensor::full leaf does not either).
      const int self_scale = add_scalar(param(P + "mpnn.eps"), 1.0f);
      const int ones = add_scalar(zeros(RowsSym::kN, 1), 1.0f);
      const int colv = matmul(ones, self_scale);
      const int scaled_self = binary(Op::kMulColvec, x, colv);
      const int xs = gather(x, SrcKind::kEdgeSrc, RowsSym::kE);
      const int messages = unary(Op::kRelu, binary(Op::kAdd, xs, e));
      const int agg = scatter_add(messages, SrcKind::kEdgeDst, RowsSym::kE, RowsSym::kN);
      // Gine's internal Mlp is constructed with dropout 0 (nn/gine.cpp); the
      // layer-level dropout below is GpsLayer's own.
      int xm = mlp(P + "mpnn.mlp", binary(Op::kAdd, scaled_self, agg), 2, 0.0f);
      if (training_ && p > 0.0f) xm = dropout(xm, p);
      sum = batchnorm(P + "bn_mpnn", binary(Op::kAdd, x, xm));
    }
    if (cfg.attn != AttnKind::kNone) {
      int xa = linear(P + "attn.out", mega(P + "attn", x, l));
      if (training_ && p > 0.0f) xa = dropout(xa, p);
      const int ha = batchnorm(P + "bn_attn", binary(Op::kAdd, x, xa));
      sum = sum >= 0 ? binary(Op::kAdd, sum, ha) : ha;
    }
    if (sum < 0) sum = x;
    int fused = mlp(P + "fuse_mlp", sum, 2, p);
    if (training_ && p > 0.0f) fused = dropout(fused, p);
    const int x_out = batchnorm(P + "bn_fuse", binary(Op::kAdd, sum, fused));
    return {x_out, e_out};
  }

  // CircuitGps::encode_pe.
  int encode_pe() {
    const GpsConfig& cfg = model_.config();
    switch (cfg.pe) {
      case PeKind::kDspd: {
        const int d0 = gather(param("dspd_emb0.weight"), SrcKind::kDist0, RowsSym::kN);
        const int d1 = gather(param("dspd_emb1.weight"), SrcKind::kDist1, RowsSym::kN);
        return concat({d0, d1});
      }
      case PeKind::kDrnl:
        return gather(param("drnl_emb.weight"), SrcKind::kDrnl, RowsSym::kN);
      case PeKind::kXc:
        return linear("pe_linear", input(SrcKind::kXc, RowsSym::kN, kXcDim));
      case PeKind::kRwse:
      case PeKind::kLappe: {
        const std::int64_t width = params_.at("pe_linear.weight").rows();
        return linear("pe_linear", input(SrcKind::kPeDense, RowsSym::kN, width));
      }
      case PeKind::kNone:
        return zeros(RowsSym::kN, 2 * pe_width(cfg));
    }
    throw std::logic_error("exec: unknown PE kind");
  }

  // CircuitGps::head_statistics — all three type groups emitted
  // unconditionally; an empty group's gather/linear/scatter are 0-row
  // no-ops and its add contributes exact zeros.
  int head_statistics() {
    const GpsConfig& cfg = model_.config();
    const int xc = input(SrcKind::kXc, RowsSym::kN, kXcDim);
    int c = zeros(RowsSym::kN, cfg.hidden);
    const int net = linear("head_net", gather(xc, SrcKind::kNetRows, RowsSym::kNet));
    c = binary(Op::kAdd, c, scatter_add(net, SrcKind::kNetRows, RowsSym::kNet, RowsSym::kN));
    const int dev = linear("head_device", gather(xc, SrcKind::kDeviceRows, RowsSym::kDevice));
    c = binary(Op::kAdd, c,
               scatter_add(dev, SrcKind::kDeviceRows, RowsSym::kDevice, RowsSym::kN));
    const int pin = gather(param("head_pin.weight"), SrcKind::kPinRoles, RowsSym::kPin);
    c = binary(Op::kAdd, c, scatter_add(pin, SrcKind::kPinRows, RowsSym::kPin, RowsSym::kN));
    return c;
  }
};

}  // namespace

Program build_program(const CircuitGps& model, bool training, LossKind loss) {
  const GpsConfig& cfg = model.config();
  Builder b(model, training);

  // CircuitGps::forward, statement for statement.
  const int node_e = b.gather(b.param("node_emb.weight"), SrcKind::kNodeType, RowsSym::kN);
  const int pe = b.encode_pe();
  int x = b.concat({pe, node_e});
  int e = b.gather(b.param("edge_emb.weight"), SrcKind::kEdgeType, RowsSym::kE);

  for (int l = 0; l < cfg.layers; ++l) {
    const auto [x_out, e_out] = b.gps_layer(l, x, e);
    x = x_out;
    e = e_out;
  }

  const int c = b.head_statistics();
  const int enriched = b.binary(Op::kAdd, x, c);
  int pooled = b.segment_mean(enriched, SrcKind::kGraphOfNode, RowsSym::kN, RowsSym::kG);
  if (cfg.anchor_readout) {
    const int aa = b.gather(enriched, SrcKind::kAnchorA, RowsSym::kG);
    const int ab = b.gather(enriched, SrcKind::kAnchorB, RowsSym::kG);
    pooled = b.concat({pooled, aa, ab});
  }
  const int out = b.mlp("head_mlp", pooled, 2, cfg.dropout);
  b.prog.output = out;
  b.prog.training = training;
  b.prog.loss_kind = loss;

  switch (loss) {
    case LossKind::kNone:
      break;
    case LossKind::kBce:
    case LossKind::kMse: {
      const int target = b.input(SrcKind::kTarget, RowsSym::kG, 1);
      NodeDef d;
      d.op = loss == LossKind::kBce ? Op::kBce : Op::kMse;
      d.inputs = {out, target};
      d.rows = RowsSym::kOne;
      d.cols = 1;
      d.requires_grad = b.rg(out);
      b.prog.loss = b.push(std::move(d));
      break;
    }
    case LossKind::kWeightedMse: {
      // Trainer: mean_all(mul(w, square(sub(out, target)))).
      const int target = b.input(SrcKind::kTarget, RowsSym::kG, 1);
      const int w = b.input(SrcKind::kWeight, RowsSym::kG, 1);
      const int sq = b.unary(Op::kSquare, b.binary(Op::kSub, out, target));
      const int weighted = b.binary(Op::kMul, w, sq);
      const int total = b.unary(Op::kSumAll, weighted);
      NodeDef& tn = b.prog.nodes[static_cast<std::size_t>(total)];
      tn.rows = RowsSym::kOne;
      tn.cols = 1;
      const int loss_node = b.scale(total, 0.0f);
      b.prog.nodes[static_cast<std::size_t>(loss_node)].inv_numel_node = weighted;
      b.prog.loss = loss_node;
      break;
    }
  }
  return b.prog;
}

}  // namespace cgps::exec
