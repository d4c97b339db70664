// Int8 weight quantization (exec/quant.hpp): round-trip error bounds, the
// all-zero-row edge case, cross-backend bit-identity of the int8 kernels,
// the training refusal under CIRCUITGPS_QUANT=int8, and model-bundle v3
// persistence of pre-quantized weights.
#include "exec/backend.hpp"
#include "exec/quant.hpp"
#include "exec/runner.hpp"
#include "gen/designs.hpp"
#include "gps/model.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "train/model_io.hpp"
#include "util/rng.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cgps {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { ::setenv(name, value, 1); }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
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
    for (std::size_t i = 0; i < 4 && i < samples.size(); ++i) {
      subgraphs.push_back(
          extract_enclosing_subgraph(graph.graph, samples[i].node_a, samples[i].node_b, {}));
    }
    normalizer.fit(graph.xc);
  }

  SubgraphBatch batch(const GpsConfig& config) const {
    std::vector<const Subgraph*> refs;
    for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
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

std::vector<float> random_row(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> row(static_cast<std::size_t>(n));
  for (float& v : row) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  return row;
}

// ---------------------------------------------------------------------------
// Format: round-trip bounds and edge cases.

TEST(QuantFormat, RoundTripErrorWithinHalfScale) {
  for (const std::int64_t n : {1, 7, 64, 257}) {
    const std::vector<float> row = random_row(n, static_cast<std::uint64_t>(n));
    const float scale = exec::q8_row_scale(row.data(), n);
    ASSERT_GT(scale, 0.0f);
    std::vector<std::int8_t> q(static_cast<std::size_t>(n));
    std::vector<float> back(static_cast<std::size_t>(n));
    exec::q8_quantize_row(row.data(), n, scale, q.data());
    exec::q8_dequantize_row(q.data(), n, scale, back.data());
    // Round-to-nearest: every element reconstructs within half a step (a
    // whisker of slack for the float divide/multiply round trip).
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_LE(std::fabs(row[static_cast<std::size_t>(i)] - back[static_cast<std::size_t>(i)]),
                0.5f * scale * 1.0001f + 1e-7f)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(QuantFormat, AllZeroRowQuantizesToZeroWithoutDividing) {
  const std::int64_t n = 33;
  std::vector<float> row(static_cast<std::size_t>(n), 0.0f);
  const float scale = exec::q8_row_scale(row.data(), n);
  EXPECT_EQ(scale, 0.0f);
  std::vector<std::int8_t> q(static_cast<std::size_t>(n), 1);
  std::vector<float> back(static_cast<std::size_t>(n), 1.0f);
  exec::q8_quantize_row(row.data(), n, scale, q.data());
  exec::q8_dequantize_row(q.data(), n, scale, back.data());
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(q[static_cast<std::size_t>(i)], 0);
    EXPECT_EQ(back[static_cast<std::size_t>(i)], 0.0f);
    EXPECT_FALSE(std::isnan(back[static_cast<std::size_t>(i)]));
  }
}

TEST(QuantFormat, SaturatesSymmetricallyAtPlusMinus127) {
  // A scale smaller than the data forces clamping on both signs (-128 is
  // never produced, so negation of any code stays representable).
  const std::vector<float> row = {10.0f, -10.0f, 0.5f};
  std::vector<std::int8_t> q(3);
  exec::q8_quantize_row(row.data(), 3, 0.01f, q.data());
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
}

// ---------------------------------------------------------------------------
// Kernels: scalar and AVX2 int8 forwards are bitwise identical (integer
// dot products are exact; the one fp32 combine is shared via q8_combine).

TEST(QuantKernels, ScalarAndAvx2AreBitwiseIdentical) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  Rng rng(99);
  const std::array<std::array<std::int64_t, 3>, 5> dims = {
      {{1, 1, 1}, {3, 7, 5}, {4, 31, 13}, {2, 33, 17}, {5, 257, 3}}};
  for (const auto& [m, k, n] : dims) {
    std::vector<std::int8_t> xq(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
    std::vector<float> sx(static_cast<std::size_t>(m));
    std::vector<float> sw(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : xq) v = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
    for (auto& v : wq) v = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
    for (auto& v : sx) v = static_cast<float>(rng.uniform(0.001, 0.1));
    for (auto& v : sw) v = static_cast<float>(rng.uniform(0.001, 0.1));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<float> o_scalar(static_cast<std::size_t>(m * n));
    std::vector<float> o_avx2(static_cast<std::size_t>(m * n));
    scalar.linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                         o_scalar.data(), m, k, n);
    avx2->linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                        o_avx2.data(), m, k, n);
    for (std::size_t i = 0; i < o_scalar.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(o_scalar[i]), std::bit_cast<std::uint32_t>(o_avx2[i]))
          << "linear_fwd_q8 m=" << m << " k=" << k << " n=" << n << " at " << i;

    scalar.linear_relu_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                              o_scalar.data(), m, k, n);
    avx2->linear_relu_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                             o_avx2.data(), m, k, n);
    for (std::size_t i = 0; i < o_scalar.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(o_scalar[i]), std::bit_cast<std::uint32_t>(o_avx2[i]))
          << "linear_relu_fwd_q8 m=" << m << " k=" << k << " n=" << n << " at " << i;
  }
}

// ---------------------------------------------------------------------------
// Model-level: quantized inference runs, is backend-independent, stays near
// the fp32 output, and refuses to train.

TEST(QuantExec, QuantizedPredictIsBitwiseIdenticalAcrossBackends) {
  const Fixture& f = fixture();
  CircuitGps model(small_config());
  const SubgraphBatch batch = f.batch(model.config());
  const ScopedEnv exec_env("CIRCUITGPS_EXEC", "planned");
  const ScopedEnv quant_env("CIRCUITGPS_QUANT", "int8");

  std::vector<float> scalar_out;
  {
    const ScopedEnv backend_env("CIRCUITGPS_BACKEND", "scalar");
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const float* out = runner.predict(batch, &rows);
    ASSERT_GT(rows, 0);
    scalar_out.assign(out, out + rows);
  }
  if (exec::avx2_backend() == nullptr) GTEST_SKIP() << "AVX2 not available";
  const ScopedEnv backend_env("CIRCUITGPS_BACKEND", "avx2");
  exec::PlanRunner runner(model);
  std::int64_t rows = 0;
  const float* out = runner.predict(batch, &rows);
  ASSERT_EQ(static_cast<std::size_t>(rows), scalar_out.size());
  // The fp32 parts of the forward (batchnorm, attention, pooling) are only
  // tolerance-equal across backends, but every fused Linear — the bulk of
  // the arithmetic — goes through the shared int8 path. Hold the quantized
  // pipeline to the same tolerance the fp32 AVX2 backend is held to.
  for (std::int64_t i = 0; i < rows; ++i) {
    const float a = scalar_out[static_cast<std::size_t>(i)];
    const float b = out[i];
    ASSERT_NEAR(a, b, 2e-4f * (1.0f + std::fabs(a))) << "row " << i;
  }
}

TEST(QuantExec, QuantizedPredictTracksFp32) {
  const Fixture& f = fixture();
  CircuitGps model(small_config());
  const SubgraphBatch batch = f.batch(model.config());
  const ScopedEnv exec_env("CIRCUITGPS_EXEC", "planned");
  const ScopedEnv backend_env("CIRCUITGPS_BACKEND", "scalar");

  std::vector<float> fp32_out;
  {
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const float* out = runner.predict(batch, &rows);
    fp32_out.assign(out, out + rows);
  }
  const ScopedEnv quant_env("CIRCUITGPS_QUANT", "int8");
  exec::PlanRunner runner(model);
  EXPECT_TRUE(runner.quantized());
  std::int64_t rows = 0;
  const float* out = runner.predict(batch, &rows);
  ASSERT_EQ(static_cast<std::size_t>(rows), fp32_out.size());
  for (std::int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(std::isfinite(out[i]));
    // Per-row int8 weight quantization is a small perturbation of each
    // Linear; on a 2-layer model the output drift stays well under 0.1.
    ASSERT_NEAR(out[i], fp32_out[static_cast<std::size_t>(i)], 0.1f) << "row " << i;
  }
}

TEST(QuantExec, RefusesTrainingAndBackward) {
  const Fixture& f = fixture();
  CircuitGps model(small_config());
  const SubgraphBatch batch = f.batch(model.config());
  const ScopedEnv exec_env("CIRCUITGPS_EXEC", "planned");
  const ScopedEnv quant_env("CIRCUITGPS_QUANT", "int8");
  exec::PlanRunner runner(model);
  const std::vector<float> labels(static_cast<std::size_t>(batch.num_graphs()), 1.0f);
  try {
    runner.forward_loss(batch, labels, 0.0f, /*link_task=*/true);
    FAIL() << "forward_loss must throw under CIRCUITGPS_QUANT=int8";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inference-only"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// quantize_model contents and bundle v3 persistence.

TEST(QuantModel, StoreCoversLinearsAndTablesWithExpectedSavings) {
  CircuitGps model(small_config());
  const exec::QuantStore store = exec::quantize_model(model);
  ASSERT_FALSE(store.entries.empty());
  bool has_linear = false, has_rows = false;
  for (const auto& [name, t] : store.entries) {
    ASSERT_GT(t.rows, 0) << name;
    ASSERT_GT(t.cols, 0) << name;
    ASSERT_EQ(t.q.size(), static_cast<std::size_t>(t.rows * t.cols)) << name;
    if (t.layout == exec::QuantLayout::kLinearT) {
      has_linear = true;
      EXPECT_EQ(t.scales.size(), static_cast<std::size_t>(t.cols)) << name;
    } else {
      has_rows = true;
      EXPECT_EQ(t.scales.size(), static_cast<std::size_t>(t.rows)) << name;
    }
  }
  EXPECT_TRUE(has_linear) << "fused Linear weights must be quantized";
  EXPECT_TRUE(has_rows) << "embedding tables feeding kGather must be quantized";
  // ~4x minus the per-row fp32 scales: still at least 3x smaller.
  EXPECT_GE(static_cast<double>(store.total_fp32_bytes()),
            3.0 * static_cast<double>(store.total_bytes()));
}

TEST(BundleV3, QuantStoreRoundTripsBitStable) {
  CircuitGps model(small_config());
  const exec::QuantStore store = exec::quantize_model(model);
  const std::string path = temp_path("cgps_bundle_v3.bin");
  save_model_bundle(model, path, nullptr, &store);

  const ModelBundle loaded = load_model_bundle_full(path);
  ASSERT_EQ(loaded.quant.entries.size(), store.entries.size());
  for (const auto& [name, t] : store.entries) {
    const auto it = loaded.quant.entries.find(name);
    ASSERT_NE(it, loaded.quant.entries.end()) << name;
    EXPECT_EQ(it->second.layout, t.layout) << name;
    EXPECT_EQ(it->second.rows, t.rows) << name;
    EXPECT_EQ(it->second.cols, t.cols) << name;
    ASSERT_EQ(it->second.q.size(), t.q.size()) << name;
    EXPECT_EQ(it->second.q, t.q) << name;
    ASSERT_EQ(it->second.scales.size(), t.scales.size()) << name;
    for (std::size_t i = 0; i < t.scales.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(it->second.scales[i]),
                std::bit_cast<std::uint32_t>(t.scales[i]))
          << name << " scale " << i;
  }
  // Second save of the same store is byte-identical on disk.
  const std::string path2 = temp_path("cgps_bundle_v3_again.bin");
  save_model_bundle(model, path2, nullptr, &store);
  std::ifstream a(path, std::ios::binary), b(path2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(bytes_a, bytes_b);
}

// The int8 kernels index an entry's codes and scales by its parameter's
// shape, so an entry that does not fit (one code short, a scale short, the
// shape transposed, or a name no parameter has) would be read past its end:
// loading must refuse it and name the entry.
TEST(BundleV3, EntryThatDoesNotFitTheModelIsRejected) {
  CircuitGps model(small_config());
  const exec::QuantStore good = exec::quantize_model(model);
  ASSERT_FALSE(good.entries.empty());
  const auto& [name, entry] = *good.entries.begin();
  ASSERT_NE(entry.rows, entry.cols) << "transposing must change the shape";
  const std::string path = temp_path("cgps_bundle_v3_misfit.bin");
  for (int mutation = 0; mutation < 4; ++mutation) {
    exec::QuantStore store = good;
    std::string bad_name = name;
    exec::QuantizedTensor& qt = store.entries.at(name);
    if (mutation == 0) qt.q.pop_back();
    if (mutation == 1) qt.scales.pop_back();
    if (mutation == 2) std::swap(qt.rows, qt.cols);
    if (mutation == 3) {
      bad_name = name + ".renamed";
      store.entries.emplace(bad_name, qt);
      store.entries.erase(name);
    }
    save_model_bundle(model, path, nullptr, &store);
    try {
      load_model_bundle_full(path);
      ADD_FAILURE() << "mutation " << mutation << " of " << name << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(bad_name), std::string::npos) << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(BundleV3, V2SavesLoadWithEmptyQuantStore) {
  CircuitGps model(small_config());
  const std::string path = temp_path("cgps_bundle_v2_compat.bin");
  save_model_bundle(model, path);  // no store -> v2 format
  const ModelBundle loaded = load_model_bundle_full(path);
  EXPECT_TRUE(loaded.quant.entries.empty());
  ASSERT_NE(loaded.model, nullptr);
}

TEST(BundleV3, PrequantizedPredictMatchesLazyQuantization) {
  const Fixture& f = fixture();
  CircuitGps model(small_config());
  const SubgraphBatch batch = f.batch(model.config());
  const std::string path = temp_path("cgps_bundle_v3_serve.bin");
  {
    const exec::QuantStore store = exec::quantize_model(model);
    save_model_bundle(model, path, nullptr, &store);
  }
  const ScopedEnv exec_env("CIRCUITGPS_EXEC", "planned");
  const ScopedEnv backend_env("CIRCUITGPS_BACKEND", "scalar");
  const ScopedEnv quant_env("CIRCUITGPS_QUANT", "int8");

  std::vector<float> lazy_out;
  {
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const float* out = runner.predict(batch, &rows);
    lazy_out.assign(out, out + rows);
  }
  ModelBundle loaded = load_model_bundle_full(path);
  exec::PlanRunner runner(model);
  runner.set_prequantized(std::move(loaded.quant));
  std::int64_t rows = 0;
  const float* out = runner.predict(batch, &rows);
  ASSERT_EQ(static_cast<std::size_t>(rows), lazy_out.size());
  for (std::int64_t i = 0; i < rows; ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(lazy_out[static_cast<std::size_t>(i)]))
        << "row " << i;
}

}  // namespace
}  // namespace cgps
