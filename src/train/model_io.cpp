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

// Why a quant entry does not fit its (rows x cols) parameter, or "" if it
// does. The int8 kernels index codes and scales by the parameter's shape.
std::string quant_entry_misfit(const exec::QuantizedTensor& qt, std::int64_t rows,
                               std::int64_t cols) {
  if (qt.rows != rows || qt.cols != cols)
    return "is " + std::to_string(qt.rows) + "x" + std::to_string(qt.cols) + ", the parameter " +
           std::to_string(rows) + "x" + std::to_string(cols);
  const std::int64_t n_scales = qt.layout == exec::QuantLayout::kLinearT ? cols : rows;
  if (qt.scales.size() != static_cast<std::size_t>(n_scales))
    return "has " + std::to_string(qt.scales.size()) + " scales, expected " +
           std::to_string(n_scales);
  if (qt.q.size() != static_cast<std::size_t>(rows * cols))
    return "has " + std::to_string(qt.q.size()) + " codes, expected " +
           std::to_string(rows * cols);
  return "";
}

// A v3 entry that does not fit the model is rejected at load, where its name
// is known, rather than read past its end at serve time.
void check_quant_entries(const CircuitGps& model, const exec::QuantStore& quant,
                         const std::string& path) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> shapes;
  for (const auto& [name, p] : model.named_parameters()) shapes[name] = {p.rows(), p.cols()};
  for (const auto& [name, qt] : quant.entries) {
    const auto it = shapes.find(name);
    const std::string misfit = it == shapes.end()
                                   ? "names no model parameter"
                                   : quant_entry_misfit(qt, it->second.first, it->second.second);
    if (!misfit.empty())
      throw std::runtime_error("load_model_bundle: quant entry '" + name + "' " + misfit +
                               " in " + path);
  }
}
}  // namespace

void save_model_bundle(const CircuitGps& model, const std::string& path,
                       const XcNormalizer* normalizer, const exec::QuantStore* quant) {
  const bool has_quant = quant != nullptr && !quant->entries.empty();
  BinaryWriter writer(path);
  writer.write_u32(has_quant ? kBundleMagicV3 : kBundleMagicV2);
  writer.write_u32(has_quant ? kBundleVersionV3 : kBundleVersionV2);
  ExperimentConfig wrapper;
  wrapper.gps = model.config();
  writer.write_string(to_config_text(wrapper));
  const bool has_normalizer = normalizer != nullptr && normalizer->fitted();
  writer.write_u32(has_normalizer ? 1u : 0u);
  if (has_normalizer) {
    for (float v : normalizer->min()) writer.write_f32(v);
    for (float v : normalizer->max()) writer.write_f32(v);
  }
  if (has_quant) {
    writer.write_u64(quant->entries.size());
    for (const auto& [name, qt] : quant->entries) {
      writer.write_string(name);
      writer.write_u32(static_cast<std::uint32_t>(qt.layout));
      writer.write_u64(static_cast<std::uint64_t>(qt.rows));
      writer.write_u64(static_cast<std::uint64_t>(qt.cols));
      writer.write_f32_vector(qt.scales);
      writer.write_i8_vector(qt.q);
    }
  }
  // fp32 weights always follow, quantized or not: a v3 bundle still trains
  // and serves at full precision when CIRCUITGPS_QUANT is off.
  nn::save_checkpoint(model, writer);
}

ModelBundle load_model_bundle_full(const std::string& path) {
  BinaryReader reader(path);
  const std::uint32_t magic = reader.read_u32();
  ModelBundle bundle;
  std::string config_text;
  if (magic == kBundleMagicV1) {
    // Legacy bundle: no version field, no normalizer record.
    config_text = reader.read_string();
  } else if (magic == kBundleMagicV2 || magic == kBundleMagicV3) {
    const std::uint32_t version = reader.read_u32();
    const std::uint32_t expected =
        magic == kBundleMagicV3 ? kBundleVersionV3 : kBundleVersionV2;
    if (version != expected)
      throw std::runtime_error("load_model_bundle: unsupported bundle version " +
                               std::to_string(version) + " in " + path);
    config_text = reader.read_string();
    if (reader.read_u32() != 0) {
      std::array<float, kXcDim> min{};
      std::array<float, kXcDim> max{};
      for (float& v : min) v = reader.read_f32();
      for (float& v : max) v = reader.read_f32();
      bundle.normalizer.restore(min, max);
    }
    if (magic == kBundleMagicV3) {
      const std::uint64_t count = reader.read_u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::string name = reader.read_string();
        exec::QuantizedTensor qt;
        const std::uint32_t layout = reader.read_u32();
        if (layout > static_cast<std::uint32_t>(exec::QuantLayout::kRows))
          throw std::runtime_error("load_model_bundle: bad quant layout in " + path);
        qt.layout = static_cast<exec::QuantLayout>(layout);
        qt.rows = static_cast<std::int64_t>(reader.read_u64());
        qt.cols = static_cast<std::int64_t>(reader.read_u64());
        qt.scales = reader.read_f32_vector();
        qt.q = reader.read_i8_vector();
        bundle.quant.entries.emplace(name, std::move(qt));
      }
    }
  } else {
    throw std::runtime_error("load_model_bundle: bad magic in " + path);
  }
  const ExperimentConfig config = parse_experiment_config(config_text);
  bundle.model = std::make_unique<CircuitGps>(config.gps);
  check_quant_entries(*bundle.model, bundle.quant, path);
  nn::load_checkpoint(*bundle.model, reader);
  return bundle;
}

std::unique_ptr<CircuitGps> load_model_bundle(const std::string& path) {
  return load_model_bundle_full(path).model;
}

}  // namespace cgps
