// Unit tests for the plan compiler and arena allocator (DESIGN.md §10):
// fusion legality, schedule/liveness invariants, and slab packing.
#include "exec/arena.hpp"
#include "exec/executor.hpp"
#include "exec/gps_program.hpp"
#include "exec/plan.hpp"
#include "gen/designs.hpp"
#include "gps/model.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
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

exec::Plan compiled_plan(const GpsConfig& config, bool training, exec::LossKind loss) {
  CircuitGps model(config);
  return exec::compile(exec::build_program(model, training, loss));
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
// Executor-level arena behavior

TEST(ExecExecutor, ArenaBytesStableAcrossRebinds) {
  GpsConfig config = small_config();
  CircuitGps model(config);

  Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
  CircuitGraph graph = build_circuit_graph(netlist);
  const Placement placement = place(netlist);
  const ExtractionResult extraction = extract_parasitics(netlist, placement);
  Rng rng(1);
  const auto samples = build_link_samples(graph, extraction.links, rng, {});
  std::vector<Subgraph> subgraphs;
  for (std::size_t i = 0; i < 3 && i < samples.size(); ++i)
    subgraphs.push_back(
        extract_enclosing_subgraph(graph.graph, samples[i].node_a, samples[i].node_b, {}));
  XcNormalizer normalizer;
  normalizer.fit(graph.xc);
  std::vector<const Subgraph*> refs;
  for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
  BatchOptions options;
  options.pe = config.pe;
  const SubgraphBatch batch = make_batch(refs, graph.xc, normalizer, options);

  exec::Executor exec(exec::compile(exec::build_program(model, true, exec::LossKind::kMse)));
  std::vector<float> target(static_cast<std::size_t>(batch.num_graphs()), 0.5f);
  exec.bind(batch, target.data(), nullptr);
  const std::int64_t bytes = exec.arena_bytes();
  EXPECT_GT(bytes, 0);
  exec.bind(batch, target.data(), nullptr);
  EXPECT_EQ(exec.arena_bytes(), bytes) << "same batch, same carve";
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
