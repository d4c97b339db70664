#include "exec/runner.hpp"
#include "gen/designs.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "tensor/ops.hpp"
#include "train/config_io.hpp"
#include "train/model_io.hpp"
#include "train/trainer.hpp"
#include "util/serialize.hpp"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <utility>
#include <vector>

namespace cgps {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GpsConfig odd_config() {
  GpsConfig c;
  c.hidden = 24;
  c.layers = 3;
  c.mpnn = MpnnKind::kGine;
  c.attn = AttnKind::kTransformer;
  c.heads = 3;
  c.pe = PeKind::kDrnl;
  c.head_hidden = 20;
  c.seed = 1234;
  return c;
}

// Three link subgraphs of the TimingControl design, batched for `config`.
SubgraphBatch sample_batch(const GpsConfig& config) {
  const Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
  const CircuitGraph cg = build_circuit_graph(netlist);
  const Placement placement = place(netlist);
  const ExtractionResult extraction = extract_parasitics(netlist, placement);
  Rng rng(1);
  const auto samples = build_link_samples(cg, extraction.links, rng, {});
  std::vector<Subgraph> subgraphs;
  for (std::size_t i = 0; i < 3; ++i)
    subgraphs.push_back(
        extract_enclosing_subgraph(cg.graph, samples[i].node_a, samples[i].node_b, {}));
  std::vector<const Subgraph*> refs;
  for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
  XcNormalizer norm;
  norm.fit(cg.xc);
  return make_batch(refs, cg.xc, norm, batch_options_for(config));
}

TEST(ModelBundle, RoundTripRebuildsArchitectureAndWeights) {
  CircuitGps original(odd_config());
  const std::string path = temp_path("cgps_bundle.bin");
  save_model_bundle(original, path);

  const std::unique_ptr<CircuitGps> loaded = load_model_bundle(path);
  EXPECT_EQ(loaded->config().hidden, 24);
  EXPECT_EQ(loaded->config().mpnn, MpnnKind::kGine);
  EXPECT_EQ(loaded->config().attn, AttnKind::kTransformer);
  EXPECT_EQ(loaded->config().pe, PeKind::kDrnl);
  EXPECT_EQ(loaded->num_parameters(), original.num_parameters());

  const auto a = original.named_parameters();
  const auto b = loaded->named_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a[i].second.data().size(); ++j)
      EXPECT_EQ(a[i].second.data()[j], b[i].second.data()[j]) << a[i].first;
  }
  std::filesystem::remove(path);
}

TEST(ModelBundle, LoadedModelProducesIdenticalOutputs) {
  // Full pipeline sanity: outputs on a real batch match bit-for-bit.
  GpsConfig config;
  config.hidden = 16;
  config.layers = 2;
  config.attn = AttnKind::kNone;
  CircuitGps original(config);
  original.set_training(false);

  const std::string path = temp_path("cgps_bundle_fwd.bin");
  save_model_bundle(original, path);
  const auto loaded = load_model_bundle(path);
  loaded->set_training(false);

  const SubgraphBatch batch = sample_batch(config);
  InferenceGuard guard;
  Tensor ya = original.forward(batch);
  Tensor yb = loaded->forward(batch);
  for (std::size_t i = 0; i < ya.data().size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
  std::filesystem::remove(path);
}

TEST(ModelBundle, V2RoundTripsNormalizerBounds) {
  CircuitGps model(odd_config());
  XcNormalizer norm;
  std::vector<std::array<float, kXcDim>> rows(2);
  for (std::size_t j = 0; j < kXcDim; ++j) {
    rows[0][j] = -1.0f - static_cast<float>(j);
    rows[1][j] = 2.0f + static_cast<float>(j);
  }
  norm.fit(rows);

  const std::string path = temp_path("cgps_bundle_v2.bin");
  save_model_bundle(model, path, &norm);
  const ModelBundle bundle = load_model_bundle_full(path);
  ASSERT_TRUE(bundle.normalizer.fitted());
  for (std::size_t j = 0; j < kXcDim; ++j) {
    EXPECT_EQ(bundle.normalizer.min()[j], norm.min()[j]);
    EXPECT_EQ(bundle.normalizer.max()[j], norm.max()[j]);
  }
  EXPECT_EQ(bundle.model->num_parameters(), model.num_parameters());
  std::filesystem::remove(path);
}

TEST(ModelBundle, SavedWithoutNormalizerLoadsUnfitted) {
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_nonorm.bin");
  save_model_bundle(model, path);  // no normalizer recorded
  const ModelBundle bundle = load_model_bundle_full(path);
  EXPECT_FALSE(bundle.normalizer.fitted());
  EXPECT_NE(bundle.model, nullptr);
  std::filesystem::remove(path);
}

TEST(ModelBundle, ReadsLegacyV1Format) {
  // Hand-write a v1 bundle ("CGMB" + config text + checkpoint, no version
  // or normalizer fields) and check the loader still accepts it.
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_v1.bin");
  {
    BinaryWriter writer(path);
    writer.write_u32(0x43474D42u);  // "CGMB"
    ExperimentConfig wrapper;
    wrapper.gps = model.config();
    writer.write_string(to_config_text(wrapper));
    nn::save_checkpoint(model, writer);
  }
  const ModelBundle bundle = load_model_bundle_full(path);
  EXPECT_FALSE(bundle.normalizer.fitted());
  EXPECT_EQ(bundle.model->config().hidden, 24);
  EXPECT_EQ(bundle.model->num_parameters(), model.num_parameters());
  std::filesystem::remove(path);
}

// One entry of a v3 bundle's int8 section: layout 0 holds one scale per
// column, layout 1 one per row, and either holds rows*cols codes.
struct V3Entry {
  std::string name;
  std::uint32_t layout = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<float> scales;
  std::vector<std::int8_t> codes;
};

// An entry that fits the model's parameter `name` in `layout`.
V3Entry fitting_entry(const CircuitGps& model, const std::string& name, std::uint32_t layout) {
  for (const auto& [pname, p] : model.named_parameters()) {
    if (pname != name) continue;
    V3Entry e{name, layout, static_cast<std::uint64_t>(p.rows()),
              static_cast<std::uint64_t>(p.cols()), {}, {}};
    e.scales.assign(layout == 0 ? e.cols : e.rows, 0.01f);
    for (std::uint64_t i = 0; i < e.rows * e.cols; ++i)
      e.codes.push_back(static_cast<std::int8_t>(static_cast<int>(i % 255) - 127));
    return e;
  }
  ADD_FAILURE() << "no parameter " << name;
  return {};
}

// Hand-write a v3 bundle the way earlier releases saved one: "CGM3",
// version 3, config text, normalizer record, the int8 entries, then the
// fp32 checkpoint.
void write_v3_bundle(const CircuitGps& model, const std::string& path,
                     const XcNormalizer& norm, const std::vector<V3Entry>& entries) {
  BinaryWriter writer(path);
  writer.write_u32(0x334D4743u);  // "CGM3"
  writer.write_u32(3);
  ExperimentConfig wrapper;
  wrapper.gps = model.config();
  writer.write_string(to_config_text(wrapper));
  writer.write_u32(norm.fitted() ? 1u : 0u);
  if (norm.fitted()) {
    for (float v : norm.min()) writer.write_f32(v);
    for (float v : norm.max()) writer.write_f32(v);
  }
  writer.write_u64(entries.size());
  for (const V3Entry& e : entries) {
    writer.write_string(e.name);
    writer.write_u32(e.layout);
    writer.write_u64(e.rows);
    writer.write_u64(e.cols);
    writer.write_f32_vector(e.scales);
    writer.write_i8_vector(e.codes);
  }
  nn::save_checkpoint(model, writer);
}

GpsConfig served_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  return c;
}

std::vector<V3Entry> fitting_entries(const CircuitGps& model) {
  return {fitting_entry(model, "head_net.weight", 0),
          fitting_entry(model, "node_emb.weight", 1)};
}

TEST(ModelBundle, ReadsV3FormatAndPredictsLikeV2) {
  CircuitGps model(served_config());
  XcNormalizer norm;
  std::vector<std::array<float, kXcDim>> rows(2);
  for (std::size_t j = 0; j < kXcDim; ++j) {
    rows[0][j] = -1.0f;
    rows[1][j] = 3.0f + static_cast<float>(j);
  }
  norm.fit(rows);
  const std::string v2 = temp_path("cgps_bundle_v3_ref.bin");
  const std::string v3 = temp_path("cgps_bundle_v3.bin");
  save_model_bundle(model, v2, &norm);
  write_v3_bundle(model, v3, norm, fitting_entries(model));

  ModelBundle a = load_model_bundle_full(v2);
  ModelBundle b = load_model_bundle_full(v3);
  ASSERT_TRUE(b.normalizer.fitted());
  for (std::size_t j = 0; j < kXcDim; ++j) {
    EXPECT_EQ(b.normalizer.min()[j], a.normalizer.min()[j]);
    EXPECT_EQ(b.normalizer.max()[j], a.normalizer.max()[j]);
  }
  const SubgraphBatch batch = sample_batch(model.config());
  exec::PlanRunner ra(*a.model);
  exec::PlanRunner rb(*b.model);
  std::int64_t na = 0, nb = 0;
  const float* ya = ra.predict(batch, &na);
  const float* yb = rb.predict(batch, &nb);
  ASSERT_EQ(na, nb);
  for (std::int64_t i = 0; i < na; ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(ya[i]), std::bit_cast<std::uint32_t>(yb[i])) << i;
  std::filesystem::remove(v2);
  std::filesystem::remove(v3);
}

// A v3 entry that does not fit the model (one code short, a scale short, the
// shape transposed, or a name no parameter has) marks a corrupt file or one
// saved for another model: loading must refuse it and name the entry.
TEST(ModelBundle, V3EntryThatDoesNotFitTheModelIsRejected) {
  CircuitGps model(served_config());
  const std::vector<V3Entry> good = fitting_entries(model);
  ASSERT_NE(good[0].rows, good[0].cols) << "transposing must change the shape";
  const std::string path = temp_path("cgps_bundle_v3_misfit.bin");
  for (int mutation = 0; mutation < 4; ++mutation) {
    std::vector<V3Entry> entries = good;
    V3Entry& e = entries[0];
    if (mutation == 0) e.codes.pop_back();
    if (mutation == 1) e.scales.pop_back();
    if (mutation == 2) std::swap(e.rows, e.cols);
    if (mutation == 3) e.name += ".renamed";
    write_v3_bundle(model, path, XcNormalizer{}, entries);
    try {
      load_model_bundle_full(path);
      ADD_FAILURE() << "mutation " << mutation << " of " << e.name << " loaded";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(e.name), std::string::npos) << err.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(ModelBundle, V3EntryWithUnknownLayoutIsRejected) {
  CircuitGps model(served_config());
  std::vector<V3Entry> entries = fitting_entries(model);
  entries[1].layout = 2;
  const std::string path = temp_path("cgps_bundle_v3_layout.bin");
  write_v3_bundle(model, path, XcNormalizer{}, entries);
  try {
    load_model_bundle_full(path);
    ADD_FAILURE() << "layout 2 loaded";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(entries[1].name), std::string::npos) << err.what();
  }
  std::filesystem::remove(path);
}

TEST(ModelBundle, RejectsWrongMagic) {
  const std::string path = temp_path("cgps_bundle_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a bundle at all";
  }
  EXPECT_THROW(load_model_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgps
