#include "train/model_io.hpp"

#include "train/config_io.hpp"
#include "util/serialize.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace cgps {

namespace {
constexpr std::uint32_t kBundleMagicV1 = 0x43474D42;  // "CGMB"
constexpr std::uint32_t kBundleMagicV2 = 0x324D4743;  // "CGM2"
constexpr std::uint32_t kBundleMagicV3 = 0x334D4743;  // "CGM3"
constexpr std::uint32_t kBundleVersionV2 = 2;
constexpr std::uint32_t kBundleVersionV3 = 3;

[[noreturn]] void reject_quant_entry(const std::string& name, const std::string& why,
                                     const std::string& path) {
  throw std::runtime_error("load_model_bundle: quant entry '" + name + "' " + why + " in " +
                           path);
}

// A v3 bundle's int8 section, written by earlier releases ahead of the fp32
// weights: per entry a name, a layout (0: one scale per column, 1: one per
// row), rows, cols, fp32 scales and rows*cols int8 codes. An entry that does
// not fit the model marks a corrupt file or one saved for another model and
// throws naming the entry; otherwise the section is dropped, so the bundle
// serves the fp32 weights that follow it.
void skip_quant_section(BinaryReader& reader, const CircuitGps& model, const std::string& path) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> shapes;
  for (const auto& [name, p] : model.named_parameters()) shapes[name] = {p.rows(), p.cols()};
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = reader.read_string();
    const std::uint32_t layout = reader.read_u32();
    if (layout > 1) reject_quant_entry(name, "has bad layout " + std::to_string(layout), path);
    const auto rows = static_cast<std::int64_t>(reader.read_u64());
    const auto cols = static_cast<std::int64_t>(reader.read_u64());
    const std::size_t scales = reader.read_f32_vector().size();
    const std::size_t codes = reader.read_i8_vector().size();
    const auto it = shapes.find(name);
    if (it == shapes.end()) reject_quant_entry(name, "names no model parameter", path);
    const auto [p_rows, p_cols] = it->second;
    if (rows != p_rows || cols != p_cols)
      reject_quant_entry(name,
                         "is " + std::to_string(rows) + "x" + std::to_string(cols) +
                             ", the parameter " + std::to_string(p_rows) + "x" +
                             std::to_string(p_cols),
                         path);
    const std::int64_t n_scales = layout == 0 ? cols : rows;
    if (scales != static_cast<std::size_t>(n_scales))
      reject_quant_entry(name,
                         "has " + std::to_string(scales) + " scales, expected " +
                             std::to_string(n_scales),
                         path);
    if (codes != static_cast<std::size_t>(rows * cols))
      reject_quant_entry(name,
                         "has " + std::to_string(codes) + " codes, expected " +
                             std::to_string(rows * cols),
                         path);
  }
}
}  // namespace

void save_model_bundle(const CircuitGps& model, const std::string& path,
                       const XcNormalizer* normalizer) {
  BinaryWriter writer(path);
  writer.write_u32(kBundleMagicV2);
  writer.write_u32(kBundleVersionV2);
  ExperimentConfig wrapper;
  wrapper.gps = model.config();
  writer.write_string(to_config_text(wrapper));
  const bool has_normalizer = normalizer != nullptr && normalizer->fitted();
  writer.write_u32(has_normalizer ? 1u : 0u);
  if (has_normalizer) {
    for (float v : normalizer->min()) writer.write_f32(v);
    for (float v : normalizer->max()) writer.write_f32(v);
  }
  nn::save_checkpoint(model, writer);
}

ModelBundle load_model_bundle_full(const std::string& path) {
  BinaryReader reader(path);
  const std::uint32_t magic = reader.read_u32();
  if (magic != kBundleMagicV1 && magic != kBundleMagicV2 && magic != kBundleMagicV3)
    throw std::runtime_error("load_model_bundle: bad magic in " + path);
  // A legacy v1 bundle has no version field and no normalizer record.
  const bool legacy = magic == kBundleMagicV1;
  if (!legacy) {
    const std::uint32_t version = reader.read_u32();
    const std::uint32_t expected =
        magic == kBundleMagicV3 ? kBundleVersionV3 : kBundleVersionV2;
    if (version != expected)
      throw std::runtime_error("load_model_bundle: unsupported bundle version " +
                               std::to_string(version) + " in " + path);
  }
  ModelBundle bundle;
  bundle.model =
      std::make_unique<CircuitGps>(parse_experiment_config(reader.read_string()).gps);
  if (!legacy && reader.read_u32() != 0) {
    std::array<float, kXcDim> min{};
    std::array<float, kXcDim> max{};
    for (float& v : min) v = reader.read_f32();
    for (float& v : max) v = reader.read_f32();
    bundle.normalizer.restore(min, max);
  }
  if (magic == kBundleMagicV3) skip_quant_section(reader, *bundle.model, path);
  nn::load_checkpoint(*bundle.model, reader);
  return bundle;
}

std::unique_ptr<CircuitGps> load_model_bundle(const std::string& path) {
  return load_model_bundle_full(path).model;
}

}  // namespace cgps
