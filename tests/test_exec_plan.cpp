// Unit tests for the plan compiler and arena allocator (DESIGN.md §10):
// fusion legality, schedule/liveness invariants, the inference rewrites,
// and slab packing.
#include "alloc_counter.hpp"
#include "exec/arena.hpp"
#include "exec/executor.hpp"
#include "exec/gps_program.hpp"
#include "exec/plan.hpp"
#include "gen/designs.hpp"
#include "gps/model.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"

#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <vector>

namespace cgps {
namespace {

GpsConfig small_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.dropout = 0.0f;
  return c;
}

// The served Table-II config (bench_gps_config).
GpsConfig table2_config() {
  GpsConfig c;
  c.hidden = 32;
  c.layers = 2;
  c.heads = 4;
  c.performer_features = 16;
  c.head_hidden = 32;
  c.dropout = 0.1f;
  c.mpnn = MpnnKind::kGatedGcn;
  c.attn = AttnKind::kPerformer;
  c.pe = PeKind::kDspd;
  return c;
}

exec::Plan compiled_plan(const GpsConfig& config, bool training, exec::LossKind loss) {
  CircuitGps model(config);
  return exec::compile(exec::build_program(model, training, loss));
}

// A batch of `count` link subgraphs of the TIMING_CONTROL design.
SubgraphBatch timing_control_batch(const GpsConfig& config, std::size_t count) {
  Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
  CircuitGraph graph = build_circuit_graph(netlist);
  const Placement placement = place(netlist);
  const ExtractionResult extraction = extract_parasitics(netlist, placement);
  Rng rng(1);
  const auto samples = build_link_samples(graph, extraction.links, rng, {});
  std::vector<Subgraph> subgraphs;
  for (std::size_t i = 0; i < count && i < samples.size(); ++i)
    subgraphs.push_back(
        extract_enclosing_subgraph(graph.graph, samples[i].node_a, samples[i].node_b, {}));
  XcNormalizer normalizer;
  normalizer.fit(graph.xc);
  std::vector<const Subgraph*> refs;
  for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
  BatchOptions options;
  options.pe = config.pe;
  return make_batch(refs, graph.xc, normalizer, options);
}

int count_steps(const std::vector<exec::Step>& steps, exec::Op op) {
  return static_cast<int>(
      std::count_if(steps.begin(), steps.end(), [&](const exec::Step& s) { return s.op == op; }));
}

// ---------------------------------------------------------------------------
// Arena

TEST(ExecArena, OverlappingLifetimesNeverShareBytes) {
  exec::Arena arena;
  // Three buffers all live over [0, 3]: must be pairwise disjoint.
  std::vector<exec::ArenaRequest> reqs = {{100, 0, 3}, {50, 0, 3}, {7, 0, 3}};
  const std::vector<std::int64_t> off = arena.bind(reqs);
  ASSERT_EQ(off.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(off[i] % 16, 0) << "64-byte alignment (16 floats)";
    for (std::size_t j = i + 1; j < reqs.size(); ++j) {
      const bool disjoint =
          off[i] + reqs[i].floats <= off[j] || off[j] + reqs[j].floats <= off[i];
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(ExecArena, DisjointLifetimesReuseSpace) {
  exec::Arena arena;
  // b dies at step 1; c is born at step 2 — c can (and should) reuse b's slot.
  std::vector<exec::ArenaRequest> reqs = {{64, 0, 5}, {1024, 0, 1}, {1024, 2, 5}};
  const std::vector<std::int64_t> off = arena.bind(reqs);
  EXPECT_EQ(off[1], off[2]) << "first-fit should reuse the freed block";
  // Total slab smaller than the sum of all requests.
  EXPECT_LT(arena.bound_bytes(), static_cast<std::int64_t>((64 + 1024 + 1024) * sizeof(float)));
}

TEST(ExecArena, SlabIsMonotoneAcrossBinds) {
  exec::Arena arena;
  std::vector<exec::ArenaRequest> big = {{4096, 0, 1}};
  std::vector<exec::ArenaRequest> small = {{16, 0, 1}};
  arena.bind(big);
  const std::int64_t cap = arena.capacity_bytes();
  arena.bind(small);
  EXPECT_EQ(arena.capacity_bytes(), cap) << "slab never shrinks";
  EXPECT_LE(arena.bound_bytes(), cap);
}

// ---------------------------------------------------------------------------
// Fusion

TEST(ExecPlan, FusesLinearBiasReluAndGateChain) {
  const exec::Plan plan = compiled_plan(small_config(), /*training=*/true, exec::LossKind::kBce);
  // fuse_mlp and head_mlp hidden layers end in ReLU -> kLinearRelu fires.
  EXPECT_GT(count_steps(plan.fwd, exec::Op::kLinearRelu), 0);
  // Plain Linear+bias (e.g. attention out-projection) -> kLinear.
  EXPECT_GT(count_steps(plan.fwd, exec::Op::kLinear), 0);
  // GatedGCN's sigmoid(e_hat) * msg chain -> kGateChain, forward only.
  EXPECT_GT(count_steps(plan.fwd, exec::Op::kGateChain), 0);
  EXPECT_EQ(count_steps(plan.bwd, exec::Op::kGateChain), 0);
  // Fused constituents are gone from the forward schedule.
  for (const exec::Step& s : plan.fwd) {
    if (s.op == exec::Op::kAddRowvec) {
      const exec::NodeDef& mm = plan.prog.nodes[static_cast<std::size_t>(
          plan.prog.nodes[static_cast<std::size_t>(s.n0)].inputs[0])];
      EXPECT_NE(mm.op, exec::Op::kMatmul)
          << "unfused add_rowvec over a matmul should have become kLinear";
    }
  }
}

TEST(ExecPlan, NoGateChainWithoutGatedGcn) {
  GpsConfig config = small_config();
  config.mpnn = MpnnKind::kNone;
  const exec::Plan plan = compiled_plan(config, /*training=*/true, exec::LossKind::kMse);
  EXPECT_EQ(count_steps(plan.fwd, exec::Op::kGateChain), 0);
}

TEST(ExecPlan, ElidedValuesAreNeverScheduledOrRead) {
  const exec::Plan plan = compiled_plan(small_config(), /*training=*/true, exec::LossKind::kBce);
  for (std::size_t id = 0; id < plan.prog.nodes.size(); ++id) {
    if (!plan.value_elided[id]) continue;
    for (const exec::Step& s : plan.fwd)
      EXPECT_NE(s.n0, static_cast<int>(id)) << "elided node scheduled";
    // Elided intermediates must not be live anywhere: either never allocated
    // (def == -1) or a dead point allocation (last < def).
    EXPECT_TRUE(plan.val[id].def == -1 || plan.val[id].last < plan.val[id].def);
  }
}

// ---------------------------------------------------------------------------
// Schedules and liveness

TEST(ExecPlan, InferenceProgramHasNoBackward) {
  const exec::Plan plan = compiled_plan(small_config(), /*training=*/false, exec::LossKind::kNone);
  EXPECT_TRUE(plan.bwd.empty());
  EXPECT_EQ(plan.prog.loss, -1);
  EXPECT_GE(plan.prog.output, 0);
  // Output value must stay live to the end so the caller can read it.
  EXPECT_EQ(plan.val[static_cast<std::size_t>(plan.prog.output)].last, plan.total_steps());
}

TEST(ExecPlan, EveryForwardStepReadsAlreadyDefinedValues) {
  const exec::Plan plan = compiled_plan(small_config(), /*training=*/true, exec::LossKind::kBce);
  std::vector<char> defined(plan.prog.nodes.size(), 0);
  for (std::size_t id = 0; id < plan.prog.nodes.size(); ++id) {
    const exec::Op op = plan.prog.nodes[id].op;
    if (op == exec::Op::kParam || op == exec::Op::kInput) defined[id] = 1;
  }
  auto check_inputs = [&](int node) {
    for (int in : plan.prog.nodes[static_cast<std::size_t>(node)].inputs)
      EXPECT_TRUE(defined[static_cast<std::size_t>(in)] ||
                  plan.value_elided[static_cast<std::size_t>(in)])
          << "node " << node << " reads undefined input " << in;
  };
  for (const exec::Step& s : plan.fwd) {
    switch (s.op) {
      case exec::Op::kLinearRelu:
        check_inputs(s.n2);
        defined[static_cast<std::size_t>(s.n2)] = 1;
        defined[static_cast<std::size_t>(s.n1)] = 1;
        defined[static_cast<std::size_t>(s.n0)] = 1;
        break;
      case exec::Op::kLinear:
        check_inputs(s.n1);
        defined[static_cast<std::size_t>(s.n1)] = 1;
        defined[static_cast<std::size_t>(s.n0)] = 1;
        break;
      case exec::Op::kGateChain:
        defined[static_cast<std::size_t>(s.n1)] = 1;
        defined[static_cast<std::size_t>(s.n0)] = 1;
        break;
      default:
        check_inputs(s.n0);
        defined[static_cast<std::size_t>(s.n0)] = 1;
    }
  }
}

TEST(ExecPlan, ZeroGradsCoverEveryBackwardNodeExactlyOnce) {
  const exec::Plan plan = compiled_plan(small_config(), /*training=*/true, exec::LossKind::kBce);
  std::multiset<int> zeroed;
  for (const auto& list : plan.zero_grads)
    for (int id : list) zeroed.insert(id);
  for (int id : zeroed) EXPECT_EQ(zeroed.count(id), 1u) << "grad " << id << " zeroed twice";
  // Every non-param node with a backward step whose grad is read must be
  // zeroed before use (params accumulate into the model instead).
  for (std::size_t id = 0; id < plan.prog.nodes.size(); ++id) {
    if (plan.prog.nodes[id].op == exec::Op::kParam) {
      EXPECT_EQ(zeroed.count(static_cast<int>(id)), 0u) << "param grads belong to the model";
    }
  }
}

TEST(ExecPlan, WeightedMseLossResolvesInvNumelPerBatch) {
  const exec::Plan plan =
      compiled_plan(small_config(), /*training=*/true, exec::LossKind::kWeightedMse);
  const exec::NodeDef& loss = plan.prog.nodes[static_cast<std::size_t>(plan.prog.loss)];
  ASSERT_EQ(loss.op, exec::Op::kScale);
  EXPECT_GE(loss.inv_numel_node, 0) << "mean_all scale must divide by the batch-resolved numel";
}

// ---------------------------------------------------------------------------
// Inference rewrites (DESIGN.md §10): linears ahead of widening gathers, no
// dead steps, one-pass eval BatchNorm.

// The matmul node behind a forward step, or -1.
int matmul_of(const exec::Step& s) {
  switch (s.op) {
    case exec::Op::kMatmul: return s.n0;
    case exec::Op::kLinear: return s.n1;
    case exec::Op::kLinearRelu: return s.n2;
    default: return -1;
  }
}

// Multiply-adds per edge row of a forward: k·n summed over the linear and
// matmul steps whose rows are the batch's edges.
std::int64_t edge_row_macs(const exec::Plan& plan) {
  std::int64_t macs = 0;
  for (const exec::Step& s : plan.fwd) {
    const int mm = matmul_of(s);
    if (mm < 0) continue;
    const exec::NodeDef& d = plan.prog.nodes[static_cast<std::size_t>(mm)];
    if (d.rows != exec::RowsSym::kE) continue;
    macs += plan.prog.nodes[static_cast<std::size_t>(d.inputs[0])].cols * d.cols;
  }
  return macs;
}

TEST(ExecInferenceRewrites, Table2EdgeRowWorkFallsEightfoldOnlyWithoutBackward) {
  // Training: lin_src, lin_dst, lin_edge and lin_msg on edge rows in both
  // layers, 4 x 32 x 32 x 2.
  for (exec::LossKind loss :
       {exec::LossKind::kBce, exec::LossKind::kMse, exec::LossKind::kWeightedMse})
    EXPECT_EQ(edge_row_macs(compiled_plan(table2_config(), /*training=*/true, loss)), 8192)
        << "loss kind " << static_cast<int>(loss);
  // Inference: only layer 1's lin_edge reads edge rows.
  EXPECT_EQ(
      edge_row_macs(compiled_plan(table2_config(), /*training=*/false, exec::LossKind::kNone)),
      1024);
}

// The head statistics start from the net group's scatter: no plan fills an
// N x hidden zeros for them to be added onto.
TEST(ExecInferenceRewrites, Table2PlansHaveNoZerosStep) {
  EXPECT_EQ(count_steps(compiled_plan(table2_config(), /*training=*/false, exec::LossKind::kNone)
                            .fwd,
                        exec::Op::kZeros),
            0);
  EXPECT_EQ(count_steps(compiled_plan(table2_config(), /*training=*/true, exec::LossKind::kBce)
                            .fwd,
                        exec::Op::kZeros),
            0);
}

TEST(ExecInferenceRewrites, EveryForwardStepOfAnInferencePlanIsRead) {
  std::vector<GpsConfig> configs = {table2_config(), small_config()};
  for (MpnnKind mpnn : {MpnnKind::kNone, MpnnKind::kGine}) {
    configs.push_back(small_config());
    configs.back().mpnn = mpnn;
  }
  configs.push_back(small_config());
  configs.back().attn = AttnKind::kTransformer;
  configs.push_back(small_config());
  configs.back().anchor_readout = true;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const exec::Plan plan = compiled_plan(configs[ci], /*training=*/false, exec::LossKind::kNone);
    const auto& nodes = plan.prog.nodes;
    // Last forward step that reads each value (a fused step reads the
    // inputs of its constituents that it does not define itself).
    std::vector<int> last_read(nodes.size(), -1);
    for (int s = 0; s < static_cast<int>(plan.fwd.size()); ++s) {
      const exec::Step& st = plan.fwd[static_cast<std::size_t>(s)];
      for (int member : {st.n0, st.n1, st.n2}) {
        if (member < 0) continue;
        for (int in : nodes[static_cast<std::size_t>(member)].inputs)
          if (in != st.n0 && in != st.n1 && in != st.n2)
            last_read[static_cast<std::size_t>(in)] = s;
      }
    }
    for (int s = 0; s < static_cast<int>(plan.fwd.size()); ++s) {
      const exec::Step& st = plan.fwd[static_cast<std::size_t>(s)];
      for (int def : {st.n0, st.n1, st.n2}) {
        if (def < 0 || plan.value_elided[static_cast<std::size_t>(def)]) continue;
        EXPECT_TRUE(def == plan.prog.output || last_read[static_cast<std::size_t>(def)] > s)
            << "config " << ci << ": step " << s << " defines node " << def
            << ", which nothing reads";
      }
    }
    // A value without a step has no arena slot.
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      if (plan.node_def_step[id] >= 0) continue;
      EXPECT_EQ(plan.val[id].def, -1) << "node " << id;
    }
  }
}

TEST(ExecInferenceRewrites, OnePassEvalBatchNormKeepsTheTwoPassBits) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kSub = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {0.0f,  -0.0f, kSub,  -kSub,  1e-39f, -3e-39f, kInf,
                                       -kInf, 1.0f,  -2.5f, 3e38f,  -3e38f, 1e-20f, 7.0f};
  constexpr std::int64_t c = 7;
  const std::int64_t m = static_cast<std::int64_t>(specials.size());
  std::vector<float> x(static_cast<std::size_t>(m * c));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      x[static_cast<std::size_t>(i * c + j)] =
          specials[static_cast<std::size_t>((i + 3 * j) % m)];
  // Per-column statistics and affine parameters drawn from the same values
  // (gamma and beta include ±0 and ±inf; invstd is positive, as
  // bn_stats_eval makes it).
  const std::vector<float> mean = {0.0f, -0.0f, kSub, 1.0f, -2.5f, 1e-39f, 3e38f};
  const std::vector<float> invstd = {1.0f, 2.0f, 1e30f, kSub, 0.5f, 3.0f, 1e-3f};
  const std::vector<float> gamma = {1.0f, -0.0f, 0.0f, kInf, -kInf, kSub, -1.5f};
  const std::vector<float> beta = {0.0f, -0.0f, -kSub, 2.0f, 1e-39f, -kInf, 0.25f};
  std::vector<float> xhat(x.size()), two_pass(x.size()), one_pass(x.size());
  kern::bn_xhat(x.data(), mean.data(), invstd.data(), xhat.data(), m, c);
  kern::bn_fwd_out(gamma.data(), beta.data(), xhat.data(), two_pass.data(), m, c);
  kern::bn_fwd_one_pass(x.data(), mean.data(), invstd.data(), gamma.data(), beta.data(),
                        one_pass.data(), m, c);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(one_pass[i]), std::bit_cast<std::uint32_t>(two_pass[i]))
        << "element " << i << ": " << one_pass[i] << " vs " << two_pass[i];
}

// ---------------------------------------------------------------------------
// Executor-level arena behavior

TEST(ExecExecutor, ArenaBytesStableAcrossRebinds) {
  GpsConfig config = small_config();
  CircuitGps model(config);
  const SubgraphBatch batch = timing_control_batch(config, 3);

  exec::Executor exec(exec::compile(exec::build_program(model, true, exec::LossKind::kMse)));
  std::vector<float> target(static_cast<std::size_t>(batch.num_graphs()), 0.5f);
  exec.bind(batch, target.data(), nullptr);
  const std::int64_t bytes = exec.arena_bytes();
  EXPECT_GT(bytes, 0);
  exec.bind(batch, target.data(), nullptr);
  EXPECT_EQ(exec.arena_bytes(), bytes) << "same batch, same carve";
}

// A warm bind allocates nothing: the arena keeps its offsets, order, heap
// and free list across binds, and the executor its per-bind tables. Counted
// for the Table-II inference plan and its BCE training plan.
TEST(ExecExecutor, WarmBindsAllocateNothing) {
  const GpsConfig config = table2_config();
  const SubgraphBatch batch = timing_control_batch(config, 8);
  std::vector<float> target(static_cast<std::size_t>(batch.num_graphs()), 0.5f);
  for (const bool training : {false, true}) {
    CircuitGps model(config);
    model.set_training(training);
    exec::Executor exec(exec::compile(exec::build_program(
        model, training, training ? exec::LossKind::kBce : exec::LossKind::kNone)));
    const float* t = training ? target.data() : nullptr;
    exec.bind(batch, t, nullptr);
    const std::int64_t before = test::thread_allocations();
    for (int i = 0; i < 3; ++i) exec.bind(batch, t, nullptr);
    EXPECT_EQ(test::thread_allocations() - before, 0)
        << (training ? "training" : "inference") << " plan";
  }
}

// Bind builds no row groups: the indexed kernels group their rows
// themselves at the width they run at. A plan bound at width 1 and run at
// width 2 keeps the bits of a bind and run at width 2, loss and every
// gradient.
TEST(ExecExecutor, BindAtWidthOneRunAtWidthTwoKeepsTheBits) {
  GpsConfig config = small_config();
  config.hidden = 32;
  const SubgraphBatch batch = timing_control_batch(config, 32);
  // Above the cutoff, so width 2 takes the grouped scatter and gather paths.
  ASSERT_GT(static_cast<std::int64_t>(batch.edges.size()) * config.hidden,
            kern::kScatterSerialCutoff);
  std::vector<float> target(static_cast<std::size_t>(batch.num_graphs()), 0.5f);

  struct Run {
    float loss = 0.0f;
    std::vector<std::vector<float>> grads;
  };
  const auto run = [&](int bind_width) {
    CircuitGps model(config);
    exec::Executor exec(exec::compile(exec::build_program(model, true, exec::LossKind::kMse)));
    par::set_threads(bind_width);
    exec.bind(batch, target.data(), nullptr);
    par::set_threads(2);
    exec.run_fwd(model.rng());
    exec.run_bwd();
    Run r;
    r.loss = exec.value(exec.plan().prog.loss)[0];
    for (const auto& [name, p] : model.named_parameters())
      r.grads.emplace_back(p.grad().begin(), p.grad().end());
    return r;
  };
  const Run narrow = run(1);
  const Run wide = run(2);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(narrow.loss), std::bit_cast<std::uint32_t>(wide.loss));
  ASSERT_EQ(narrow.grads.size(), wide.grads.size());
  for (std::size_t i = 0; i < wide.grads.size(); ++i) {
    ASSERT_EQ(narrow.grads[i].size(), wide.grads[i].size());
    for (std::size_t j = 0; j < wide.grads[i].size(); ++j)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(narrow.grads[i][j]),
                std::bit_cast<std::uint32_t>(wide.grads[i][j]))
          << "parameter " << i << " element " << j;
  }
  par::set_threads(0);
}

TEST(ExecPlan, GineIsSupported) {
  // Regression: the planned executor once lacked GINE, silently dropping
  // the ablation path to eager.
  GpsConfig config = small_config();
  config.mpnn = MpnnKind::kGine;
  // The recorded GINE program carries the colvec broadcast of (1 + eps) and
  // compiles a backward schedule without throwing.
  const exec::Plan plan = compiled_plan(config, /*training=*/true, exec::LossKind::kBce);
  EXPECT_GT(count_steps(plan.fwd, exec::Op::kMulColvec), 0);
  EXPECT_GT(plan.bwd.size(), 0u);
}

}  // namespace
}  // namespace cgps
