// Planned-vs-eager equivalence (DESIGN.md §10). With the scalar backend the
// compiled-plan executor must reproduce eager CircuitGps::forward and
// Tensor::backward BITWISE — values, losses, parameter gradients, and whole
// training trajectories — at any thread count. The AVX2 backend re-associates
// reductions and is held to a relative tolerance instead.
#include "exec/runner.hpp"
#include "gen/designs.hpp"
#include "gps/model.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "util/parallel.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <span>
#include <string>
#include <vector>

namespace cgps {
namespace {

// Set an environment variable for one scope, clearing it on exit. Every test
// below that is backend-sensitive pins its own value, so no save/restore is
// needed (and reading the old value would require a getenv call, which the
// repo lint reserves for util/env.cpp).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { ::setenv(name, value, 1); }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

struct Fixture {
  Netlist netlist;
  CircuitGraph graph;
  std::vector<Subgraph> subgraphs;
  XcNormalizer normalizer;

  Fixture() {
    netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
    graph = build_circuit_graph(netlist);
    const Placement placement = place(netlist);
    const ExtractionResult extraction = extract_parasitics(netlist, placement);
    Rng rng(1);
    const auto samples = build_link_samples(graph, extraction.links, rng, {});
    for (std::size_t i = 0; i < 8 && i < samples.size(); ++i) {
      subgraphs.push_back(
          extract_enclosing_subgraph(graph.graph, samples[i].node_a, samples[i].node_b, {}));
    }
    normalizer.fit(graph.xc);
  }

  // A batch of the first `count` subgraphs.
  SubgraphBatch batch(const GpsConfig& config, std::size_t count = 4) const {
    std::vector<const Subgraph*> refs;
    for (std::size_t i = 0; i < count && i < subgraphs.size(); ++i) refs.push_back(&subgraphs[i]);
    BatchOptions options;
    options.pe = config.pe;
    options.rwse_steps = config.rwse_steps;
    options.lappe_k = config.lappe_k;
    return make_batch(refs, graph.xc, normalizer, options);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

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

void expect_bits_equal(std::span<const float> a, std::span<const float> b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " differs at " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_close(std::span<const float> a, std::span<const float> b, float rel,
                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = rel * (1.0f + std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_NEAR(a[i], b[i], tol) << what << " differs at " << i;
  }
}

// ---------------------------------------------------------------------------
// Forward equivalence across the config grid, 1 and 2 threads.

struct ConfigCase {
  const char* name;
  GpsConfig config;
};

// Attention shapes beyond small_config's Performer (2 heads, dh 8, fm 8):
// the Transformer, one head (both attention backwards then alias dhead to
// the merged gradient), and dh = fm = 12, which is not a multiple of 8.
std::vector<ConfigCase> attention_shapes() {
  std::vector<ConfigCase> cases;
  {
    GpsConfig c = small_config();
    c.attn = AttnKind::kTransformer;
    cases.push_back({"transformer", c});
  }
  {
    GpsConfig c = small_config();
    c.heads = 1;
    cases.push_back({"heads1", c});
  }
  {
    GpsConfig c = small_config();
    c.hidden = 24;
    c.performer_features = 12;
    cases.push_back({"dh12_fm12", c});
  }
  return cases;
}

std::vector<ConfigCase> config_grid() {
  std::vector<ConfigCase> cases;
  cases.push_back({"default", small_config()});
  for (const ConfigCase& cc : attention_shapes()) cases.push_back(cc);
  {
    GpsConfig c = small_config();
    c.attn = AttnKind::kNone;
    cases.push_back({"attn_none", c});
  }
  {
    GpsConfig c = small_config();
    c.mpnn = MpnnKind::kNone;
    cases.push_back({"mpnn_none", c});
  }
  {
    // Regression: the planned executor once lacked GINE, so the ablation
    // path silently ran eager.
    GpsConfig c = small_config();
    c.mpnn = MpnnKind::kGine;
    cases.push_back({"gine", c});
  }
  {
    GpsConfig c = small_config();
    c.anchor_readout = true;
    cases.push_back({"anchor_readout", c});
  }
  for (PeKind pe : {PeKind::kNone, PeKind::kXc, PeKind::kDrnl, PeKind::kRwse, PeKind::kLappe}) {
    GpsConfig c = small_config();
    c.pe = pe;
    cases.push_back({"pe", c});
  }
  return cases;
}

class ExecEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExecEquivalence, ForwardBitIdenticalAcrossConfigs) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  par::set_threads(GetParam());
  const Fixture& f = fixture();
  for (const ConfigCase& cc : config_grid()) {
    CircuitGps model(cc.config);
    const SubgraphBatch batch = f.batch(cc.config);
    model.set_training(false);

    Tensor eager;
    {
      InferenceGuard guard;
      eager = model.forward(batch);
    }
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const float* planned = runner.predict(batch, &rows);
    ASSERT_EQ(rows, eager.rows()) << cc.name;
    expect_bits_equal(eager.data(), std::span<const float>(planned, static_cast<std::size_t>(rows)),
                      std::string("forward/") + cc.name);
  }
  par::set_threads(2);
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecEquivalence, ::testing::Values(1, 2));

// ---------------------------------------------------------------------------
// Loss + gradient equivalence for every loss kind (training mode, dropout on
// so the planned path must consume the model RNG in the exact eager order).

void run_grad_case(const GpsConfig& config, bool link_task, float alpha) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  const Fixture& f = fixture();
  const SubgraphBatch batch = f.batch(config);

  CircuitGps eager_model(config);
  CircuitGps planned_model(config);
  eager_model.set_training(true);
  planned_model.set_training(true);

  std::vector<float> values;
  for (std::int64_t g = 0; g < batch.num_graphs(); ++g)
    values.push_back(0.1f * static_cast<float>(g + 1));

  // Eager reference.
  Tensor out = eager_model.forward(batch);
  Tensor target = Tensor::from_vector(std::vector<float>(values), out.rows(), 1);
  Tensor loss;
  if (link_task) {
    loss = ops::bce_with_logits(out, target);
  } else if (alpha > 0.0f) {
    std::vector<float> weights(static_cast<std::size_t>(out.rows()));
    for (std::int64_t i = 0; i < out.rows(); ++i)
      weights[static_cast<std::size_t>(i)] = 1.0f + alpha * target.at(i, 0);
    Tensor w = Tensor::from_vector(std::move(weights), out.rows(), 1);
    loss = ops::mean_all(ops::mul(w, ops::square(ops::sub(out, target))));
  } else {
    loss = ops::mse_loss(out, target);
  }
  loss.backward();

  // Planned.
  exec::PlanRunner runner(planned_model);
  const float planned_loss = runner.forward_loss(batch, values, alpha, link_task);
  runner.backward();

  ASSERT_EQ(std::bit_cast<std::uint32_t>(loss.item()), std::bit_cast<std::uint32_t>(planned_loss));
  const auto pe = eager_model.named_parameters();
  const auto pp = planned_model.named_parameters();
  ASSERT_EQ(pe.size(), pp.size());
  for (std::size_t i = 0; i < pe.size(); ++i) {
    expect_bits_equal(pe[i].second.grad(), pp[i].second.grad(),
                      std::string("grad/") + pe[i].first);
  }
}

GpsConfig grad_config(float dropout, MpnnKind mpnn = MpnnKind::kGatedGcn) {
  GpsConfig config = small_config();
  config.dropout = dropout;
  config.mpnn = mpnn;
  return config;
}

TEST(ExecGradEquivalence, BceLoss) { run_grad_case(grad_config(0.0f), /*link=*/true, 0.0f); }
TEST(ExecGradEquivalence, MseLoss) { run_grad_case(grad_config(0.0f), /*link=*/false, 0.0f); }
TEST(ExecGradEquivalence, WeightedMseLoss) {
  run_grad_case(grad_config(0.0f), /*link=*/false, 0.5f);
}
TEST(ExecGradEquivalence, BceWithDropout) { run_grad_case(grad_config(0.1f), /*link=*/true, 0.0f); }
TEST(ExecGradEquivalence, MseWithDropout) {
  run_grad_case(grad_config(0.1f), /*link=*/false, 0.0f);
}
// GINE gradients, including the eps colvec-broadcast backward.
TEST(ExecGradEquivalence, GineBce) {
  run_grad_case(grad_config(0.0f, MpnnKind::kGine), /*link=*/true, 0.0f);
}
TEST(ExecGradEquivalence, GineBceWithDropout) {
  run_grad_case(grad_config(0.1f, MpnnKind::kGine), /*link=*/true, 0.0f);
}

// The attention shapes, with dropout on, at 1 and 2 threads.
class ExecGradShapes : public ::testing::TestWithParam<int> {};

TEST_P(ExecGradShapes, BceAndWeightedMseWithDropout) {
  par::set_threads(GetParam());
  for (ConfigCase cc : attention_shapes()) {
    SCOPED_TRACE(cc.name);
    cc.config.dropout = 0.1f;
    run_grad_case(cc.config, /*link=*/true, 0.0f);
    run_grad_case(cc.config, /*link=*/false, 0.5f);
  }
  par::set_threads(2);
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecGradShapes, ::testing::Values(1, 2));

// ---------------------------------------------------------------------------
// Whole training trajectories: N optimizer steps with dropout must leave both
// models with bitwise-identical parameters and per-step losses.

TEST(ExecTrainingEquivalence, MultiStepAdamTrajectoryBitIdentical) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  GpsConfig config = small_config();
  config.dropout = 0.1f;
  const Fixture& f = fixture();
  const SubgraphBatch batch = f.batch(config);

  CircuitGps eager_model(config);
  CircuitGps planned_model(config);
  eager_model.set_training(true);
  planned_model.set_training(true);
  Adam eager_opt(eager_model.trainable_parameters(), 2e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
  Adam planned_opt(planned_model.trainable_parameters(), 2e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
  exec::PlanRunner runner(planned_model);

  std::vector<float> values;
  for (std::int64_t g = 0; g < batch.num_graphs(); ++g)
    values.push_back(static_cast<float>(g % 2));

  for (int step = 0; step < 4; ++step) {
    Tensor out = eager_model.forward(batch);
    Tensor target = Tensor::from_vector(std::vector<float>(values), out.rows(), 1);
    Tensor loss = ops::bce_with_logits(out, target);
    eager_opt.zero_grad();
    loss.backward();
    eager_opt.clip_grad_norm(2.0f);
    eager_opt.step();

    const float planned_loss = runner.forward_loss(batch, values, 0.0f, /*link=*/true);
    planned_opt.zero_grad();
    runner.backward();
    planned_opt.clip_grad_norm(2.0f);
    planned_opt.step();

    ASSERT_EQ(std::bit_cast<std::uint32_t>(loss.item()),
              std::bit_cast<std::uint32_t>(planned_loss))
        << "step " << step;
  }
  const auto pe = eager_model.named_parameters();
  const auto pp = planned_model.named_parameters();
  for (std::size_t i = 0; i < pe.size(); ++i)
    expect_bits_equal(pe[i].second.data(), pp[i].second.data(),
                      std::string("param/") + pe[i].first);
  // BatchNorm running statistics advance identically too.
  const auto be = eager_model.named_buffers();
  const auto bp = planned_model.named_buffers();
  for (std::size_t i = 0; i < be.size(); ++i)
    expect_bits_equal(*be[i].second, *bp[i].second, std::string("buffer/") + be[i].first);
}

// ---------------------------------------------------------------------------
// Frozen backbone: the requires_grad mask is baked into the plan, so
// freeze_backbone() between calls must recompile (and backbone grads stay 0).

TEST(ExecTrainingEquivalence, FreezeBackboneRecompilesPlan) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  GpsConfig config = small_config();
  const Fixture& f = fixture();
  const SubgraphBatch batch = f.batch(config);

  CircuitGps eager_model(config);
  CircuitGps planned_model(config);
  std::vector<float> values(static_cast<std::size_t>(batch.num_graphs()), 0.25f);
  eager_model.set_training(true);
  planned_model.set_training(true);
  exec::PlanRunner runner(planned_model);

  // Warm the unfrozen plan, then freeze and re-run. Zero the accumulated
  // grads in between (the trainer's optimizer.zero_grad does this normally).
  (void)runner.forward_loss(batch, values, 0.0f, /*link=*/false);
  runner.backward();
  eager_model.freeze_backbone();
  planned_model.freeze_backbone();
  for (auto& [name, p] : planned_model.named_parameters())
    std::fill(p.grad().begin(), p.grad().end(), 0.0f);

  Tensor out = eager_model.forward(batch);
  Tensor target = Tensor::from_vector(std::vector<float>(values), out.rows(), 1);
  Tensor loss = ops::mse_loss(out, target);
  loss.backward();
  const float planned_loss = runner.forward_loss(batch, values, 0.0f, /*link=*/false);
  runner.backward();

  ASSERT_EQ(std::bit_cast<std::uint32_t>(loss.item()), std::bit_cast<std::uint32_t>(planned_loss));
  const auto pe = eager_model.named_parameters();
  const auto pp = planned_model.named_parameters();
  for (std::size_t i = 0; i < pe.size(); ++i) {
    if (!pp[i].second.requires_grad()) {
      // Frozen: eager may not even allocate grads; a stale unfrozen plan
      // would write these.
      for (const float g : pp[i].second.grad())
        ASSERT_EQ(std::bit_cast<std::uint32_t>(g), 0u) << "frozen-grad/" << pp[i].first;
      continue;
    }
    expect_bits_equal(pe[i].second.grad(), pp[i].second.grad(),
                      std::string("frozen-grad/") + pe[i].first);
  }
}

// ---------------------------------------------------------------------------
// Edge-free batches (single-node subgraphs): the planned program emits the
// GatedGCN and head-statistics groups unconditionally; 0-row kernels must
// reduce to the eager early-return behavior exactly.

TEST(ExecEquivalenceEdgeCases, EmptyEdgeBatchMatchesEager) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  GpsConfig config = small_config();
  const Fixture& f = fixture();

  Subgraph lonely;
  lonely.orig_nodes = {0};
  lonely.node_type = {static_cast<std::int8_t>(f.graph.graph.node_type(0))};
  lonely.dist0 = {0};
  lonely.dist1 = {0};
  lonely.second_anchor = 0;
  std::vector<const Subgraph*> refs = {&lonely, &lonely};
  BatchOptions options;
  options.pe = config.pe;
  options.rwse_steps = config.rwse_steps;
  options.lappe_k = config.lappe_k;
  const SubgraphBatch batch = make_batch(refs, f.graph.xc, f.normalizer, options);
  ASSERT_TRUE(batch.edge_type.empty());

  CircuitGps model(config);
  model.set_training(false);
  Tensor eager;
  {
    InferenceGuard guard;
    eager = model.forward(batch);
  }
  exec::PlanRunner runner(model);
  std::int64_t rows = 0;
  const float* planned = runner.predict(batch, &rows);
  ASSERT_EQ(rows, eager.rows());
  expect_bits_equal(eager.data(), std::span<const float>(planned, static_cast<std::size_t>(rows)),
                    "forward/empty-edges");
}

// ---------------------------------------------------------------------------
// Golden digests: the planned bits of each backend, pinned. FNV-1a runs over
// the float bits of predict's output, and over the loss followed by every
// parameter gradient after one forward_loss + backward. The configs are
// Table II's (the values of bench_gps_config) and its Transformer variant,
// each with a BCE step on 4 graphs, and Table II's fine-tune step. A kernel
// rewrite that moves any bit on either backend fails here, at any thread
// count.

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

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> values) {
  for (const float v : values) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Digests {
  std::uint64_t predict = 0;
  std::uint64_t train = 0;
};

// Loss followed by every parameter gradient after one forward_loss +
// backward of a fresh training-mode model.
std::uint64_t train_digest(const GpsConfig& config, const SubgraphBatch& batch,
                           const std::vector<float>& values, float alpha, bool link_task) {
  CircuitGps model(config);
  model.set_training(true);
  exec::PlanRunner runner(model);
  const float loss = runner.forward_loss(batch, values, alpha, link_task);
  runner.backward();
  std::uint64_t h = fnv1a(kFnvOffset, std::span<const float>(&loss, 1));
  for (const auto& [name, p] : model.named_parameters()) h = fnv1a(h, p.grad());
  return h;
}

Digests planned_digests(const GpsConfig& config) {
  const Fixture& f = fixture();
  const SubgraphBatch batch = f.batch(config);
  Digests d;
  {
    CircuitGps model(config);
    model.set_training(false);
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const float* out = runner.predict(batch, &rows);
    d.predict = fnv1a(kFnvOffset, std::span<const float>(out, static_cast<std::size_t>(rows)));
  }
  std::vector<float> values;
  for (std::int64_t g = 0; g < batch.num_graphs(); ++g) values.push_back(static_cast<float>(g % 2));
  d.train = train_digest(config, batch, values, 0.0f, /*link_task=*/true);
  return d;
}

struct GoldenCase {
  const char* name;
  GpsConfig config;
  Digests scalar;
  Digests avx2;
};

std::vector<GoldenCase> golden_cases() {
  GpsConfig transformer = table2_config();
  transformer.attn = AttnKind::kTransformer;
  return {
      {"table2",
       table2_config(),
       {0x9d488303731e534full, 0x6544baae46b6a424ull},
       {0x9ea7e651050788afull, 0xc0dc71985d43db57ull}},
      {"table2_transformer",
       transformer,
       {0x7cdc84ae02a872f1ull, 0x8bf393e08e4e544bull},
       {0xe5caad278c155635ull, 0x948a80f10dcb4a1aull}},
  };
}

void expect_digests(const char* backend, const GoldenCase& gc, const Digests& want) {
  const ScopedEnv env("CIRCUITGPS_BACKEND", backend);
  const Digests got = planned_digests(gc.config);
  EXPECT_EQ(got.predict, want.predict)
      << backend << "/" << gc.name << " predict: 0x" << std::hex << got.predict;
  EXPECT_EQ(got.train, want.train)
      << backend << "/" << gc.name << " loss+grads: 0x" << std::hex << got.train;
}

// A Table-II fine-tune step: weighted MSE on regression targets over a batch
// of 8 graphs, the few-shot adaptation's shape.
std::uint64_t finetune_digest() {
  const GpsConfig config = table2_config();
  const SubgraphBatch batch = fixture().batch(config, 8);
  EXPECT_EQ(batch.num_graphs(), 8);
  std::vector<float> values;
  for (std::int64_t g = 0; g < batch.num_graphs(); ++g)
    values.push_back(0.125f * static_cast<float>(g + 1));
  return train_digest(config, batch, values, 0.5f, /*link_task=*/false);
}

void expect_finetune_digest(const char* backend, std::uint64_t want) {
  const ScopedEnv env("CIRCUITGPS_BACKEND", backend);
  const std::uint64_t got = finetune_digest();
  EXPECT_EQ(got, want) << backend << "/table2_finetune loss+grads: 0x" << std::hex << got;
}

class ExecGoldenDigests : public ::testing::TestWithParam<int> {};

TEST_P(ExecGoldenDigests, Scalar) {
  par::set_threads(GetParam());
  for (const GoldenCase& gc : golden_cases()) expect_digests("scalar", gc, gc.scalar);
  expect_finetune_digest("scalar", 0xe3055ede2e1033dbull);
  par::set_threads(2);
}

TEST_P(ExecGoldenDigests, Avx2) {
  if (exec::avx2_backend() == nullptr) GTEST_SKIP() << "no AVX2+FMA";
  par::set_threads(GetParam());
  for (const GoldenCase& gc : golden_cases()) expect_digests("avx2", gc, gc.avx2);
  expect_finetune_digest("avx2", 0x9d828630db36d9f0ull);
  par::set_threads(2);
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecGoldenDigests, ::testing::Values(1, 2));

// ---------------------------------------------------------------------------
// AVX2 backend: values and gradients within 1e-5 relative of the eager
// reference (reductions re-associate inside one output element only).

TEST(ExecBackendAvx2, ForwardAndGradsClose) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
    GTEST_SKIP() << "no AVX2+FMA";
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "avx2");
  GpsConfig config = small_config();
  const Fixture& f = fixture();
  const SubgraphBatch batch = f.batch(config);

  CircuitGps eager_model(config);
  CircuitGps planned_model(config);
  eager_model.set_training(true);
  planned_model.set_training(true);
  std::vector<float> values(static_cast<std::size_t>(batch.num_graphs()), 0.5f);

  Tensor out = eager_model.forward(batch);
  Tensor target = Tensor::from_vector(std::vector<float>(values), out.rows(), 1);
  Tensor loss = ops::bce_with_logits(out, target);
  loss.backward();

  exec::PlanRunner runner(planned_model);
  const float planned_loss = runner.forward_loss(batch, values, 0.0f, /*link=*/true);
  runner.backward();

  EXPECT_NEAR(loss.item(), planned_loss, 1e-5f * (1.0f + std::fabs(loss.item())));
  const auto pe = eager_model.named_parameters();
  const auto pp = planned_model.named_parameters();
  for (std::size_t i = 0; i < pe.size(); ++i)
    expect_close(pe[i].second.grad(), pp[i].second.grad(), 1e-5f,
                 std::string("avx2-grad/") + pe[i].first);
#else
  GTEST_SKIP() << "x86_64 only";
#endif
}

}  // namespace
}  // namespace cgps
