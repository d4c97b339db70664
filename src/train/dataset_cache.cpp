#include "train/dataset_cache.hpp"

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"
#include "util/trace.hpp"

#include <filesystem>
#include <sstream>

namespace cgps {

namespace {

constexpr std::uint32_t kMagic = 0x43474453;  // "CGDS"

void write_netlist(BinaryWriter& w, const Netlist& nl) {
  w.write_string(nl.name());
  w.write_u64(nl.nets().size());
  for (const Net& net : nl.nets()) {
    w.write_string(net.name);
    w.write_u32(net.is_port ? 1 : 0);
  }
  w.write_u64(nl.devices().size());
  for (const Device& d : nl.devices()) {
    w.write_string(d.name);
    w.write_u32(static_cast<std::uint32_t>(d.kind));
    w.write_string(d.model);
    w.write_f64(d.width);
    w.write_f64(d.length);
    w.write_u32(static_cast<std::uint32_t>(d.multiplier));
    w.write_u32(static_cast<std::uint32_t>(d.fingers));
    w.write_f64(d.value);
    w.write_u64(d.pins.size());
    for (const Pin& pin : d.pins) {
      w.write_u32(static_cast<std::uint32_t>(pin.role));
      w.write_u32(static_cast<std::uint32_t>(pin.net));
    }
  }
}

Netlist read_netlist(BinaryReader& r) {
  Netlist nl(r.read_string());
  const std::uint64_t n_nets = r.read_u64();
  for (std::uint64_t i = 0; i < n_nets; ++i) {
    const std::string name = r.read_string();
    nl.add_net(name, r.read_u32() != 0);
  }
  const std::uint64_t n_devices = r.read_u64();
  for (std::uint64_t i = 0; i < n_devices; ++i) {
    Device d;
    d.name = r.read_string();
    d.kind = static_cast<DeviceKind>(r.read_u32());
    d.model = r.read_string();
    d.width = r.read_f64();
    d.length = r.read_f64();
    d.multiplier = static_cast<std::int32_t>(r.read_u32());
    d.fingers = static_cast<std::int32_t>(r.read_u32());
    d.value = r.read_f64();
    const std::uint64_t n_pins = r.read_length(8);  // role, net
    d.pins.reserve(n_pins);
    for (std::uint64_t p = 0; p < n_pins; ++p) {
      Pin pin;
      pin.role = static_cast<PinRole>(r.read_u32());
      pin.net = static_cast<std::int32_t>(r.read_u32());
      d.pins.push_back(pin);
    }
    nl.add_device(std::move(d));
  }
  return nl;
}

void write_f64_vec(BinaryWriter& w, const std::vector<double>& v) {
  w.write_u64(v.size());
  for (double x : v) w.write_f64(x);
}

std::vector<double> read_f64_vec(BinaryReader& r) {
  std::vector<double> v(r.read_length(sizeof(double)));
  for (double& x : v) x = r.read_f64();
  return v;
}

}  // namespace

void save_dataset(const CircuitDataset& ds, const std::string& path) {
  BinaryWriter w(path);
  w.write_u32(kMagic);
  w.write_string(ds.name);
  w.write_u32(ds.is_train ? 1 : 0);
  write_netlist(w, ds.netlist);

  w.write_u64(ds.extraction.links.size());
  for (const CouplingLink& link : ds.extraction.links) {
    w.write_u32(static_cast<std::uint32_t>(link.kind));
    w.write_u32(static_cast<std::uint32_t>(link.a));
    w.write_u32(static_cast<std::uint32_t>(link.b));
    w.write_f64(link.cap);
  }
  write_f64_vec(w, ds.extraction.net_ground_cap);
  write_f64_vec(w, ds.extraction.pin_ground_cap);

  w.write_u64(ds.link_samples.size());
  for (const LinkSample& s : ds.link_samples) {
    w.write_u32(static_cast<std::uint32_t>(s.node_a));
    w.write_u32(static_cast<std::uint32_t>(s.node_b));
    w.write_u32(static_cast<std::uint32_t>(s.type));
    w.write_f32(s.label);
    w.write_f64(s.cap);
  }
  w.write_u64(ds.node_samples.size());
  for (const NodeSample& s : ds.node_samples) {
    w.write_u32(static_cast<std::uint32_t>(s.node));
    w.write_f64(s.cap);
  }
}

CircuitDataset load_dataset(const std::string& path, const DatasetOptions& options) {
  BinaryReader r(path);
  if (r.read_u32() != kMagic)
    throw std::runtime_error("load_dataset: bad magic in " + path);
  CircuitDataset ds;
  ds.name = r.read_string();
  ds.is_train = r.read_u32() != 0;
  ds.netlist = read_netlist(r);

  const std::uint64_t n_links = r.read_length(20);  // kind, a, b, cap
  ds.extraction.links.reserve(n_links);
  for (std::uint64_t i = 0; i < n_links; ++i) {
    CouplingLink link;
    link.kind = static_cast<CouplingKind>(r.read_u32());
    link.a = static_cast<std::int32_t>(r.read_u32());
    link.b = static_cast<std::int32_t>(r.read_u32());
    link.cap = r.read_f64();
    ds.extraction.links.push_back(link);
  }
  ds.extraction.net_ground_cap = read_f64_vec(r);
  ds.extraction.pin_ground_cap = read_f64_vec(r);

  const std::uint64_t n_samples = r.read_length(24);  // node_a, node_b, type, label, cap
  ds.link_samples.reserve(n_samples);
  for (std::uint64_t i = 0; i < n_samples; ++i) {
    LinkSample s;
    s.node_a = static_cast<std::int32_t>(r.read_u32());
    s.node_b = static_cast<std::int32_t>(r.read_u32());
    s.type = static_cast<std::int8_t>(r.read_u32());
    s.label = r.read_f32();
    s.cap = r.read_f64();
    ds.link_samples.push_back(s);
  }
  const std::uint64_t n_nodes = r.read_length(12);  // node, cap
  ds.node_samples.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    NodeSample s;
    s.node = static_cast<std::int32_t>(r.read_u32());
    s.cap = r.read_f64();
    ds.node_samples.push_back(s);
  }

  // Derived state is deterministic and cheap: rebuild instead of storing.
  ds.graph = build_circuit_graph(ds.netlist);
  PlacerOptions placer = options.placer;
  // build_dataset mixes the dataset id into the placer seed; recover it from
  // the canonical name (placement is only consumed by energy analysis).
  for (int id = 0; id <= static_cast<int>(gen::DatasetId::kArray128x32); ++id) {
    if (ds.name == gen::dataset_name(static_cast<gen::DatasetId>(id))) {
      placer.seed = options.seed ^ static_cast<std::uint64_t>(id);
      break;
    }
  }
  ds.placement = place(ds.netlist, placer);
  ds.link_graph = build_link_graph(ds.graph, ds.link_samples, options.inject_negative_links);
  return ds;
}

std::string dataset_cache_key(gen::DatasetId id, const DatasetOptions& options) {
  std::ostringstream os;
  os << gen::dataset_name(id) << '|' << options.design_scale.train_scale << '|'
     << options.link_options.balance_types << '|' << options.link_options.max_per_type << '|'
     << options.link_options.max_total_positives << '|'
     << options.link_options.negative_ratio << '|' << options.max_node_samples << '|'
     << options.seed << '|' << options.via_spf << '|' << options.inject_negative_links << '|'
     << options.placer.site_width << '|' << options.placer.row_height << '|'
     << options.placer.cluster_fanout_limit << '|' << options.extraction.net_window << '|'
     << options.extraction.pin_radius << '|' << options.extraction.c_plate << '|'
     << options.extraction.c_fringe << '|' << options.extraction.cap_floor << '|'
     << options.extraction.c_gnd_per_m;
  // FNV-1a over the key string.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : os.str()) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  std::ostringstream name;
  name << gen::dataset_name(id) << '_' << std::hex << hash << ".cgds";
  std::string out = name.str();
  for (char& c : out)
    if (c == '-') c = '_';
  return out;
}

CircuitDataset build_dataset_cached(gen::DatasetId id, const DatasetOptions& options,
                                    const std::string& cache_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  const fs::path path = fs::path(cache_dir) / dataset_cache_key(id, options);
  if (fs::exists(path)) {
    try {
      const TraceSpan span("dataset_cache.load");
      CircuitDataset ds = load_dataset(path.string(), options);
      metric_counter("dataset_cache.hits").add(1);
      return ds;
    } catch (const std::exception& e) {
      log_warn("dataset cache read failed (", e.what(), "); rebuilding");
    }
  }
  metric_counter("dataset_cache.misses").add(1);
  const TraceSpan span("dataset_cache.build");
  CircuitDataset ds = build_dataset(id, options);
  try {
    save_dataset(ds, path.string());
  } catch (const std::exception& e) {
    log_warn("dataset cache write failed (", e.what(), ")");
  }
  return ds;
}

}  // namespace cgps
