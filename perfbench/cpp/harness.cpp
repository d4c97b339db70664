#include "harness.hpp"

#include "graph/circuit_graph.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "parasitics/extraction.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

namespace cgps::perfbench {

void Outcome::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) reject("metric " + name + " was not measured");
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::reject(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "[perfbench] check failed: %s\n", why.c_str());
}

std::string Outcome::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_percentile(const std::vector<double>& values) {
  Tail tail;
  tail.n = values.size();
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    // Tolerance for 1 - q not being exact in binary (0.1 * 100 < 10).
    if ((1.0 - q) * static_cast<double>(values.size()) >= 10.0 - 1e-9 || q == 0.50) {
      tail.q = q;
      tail.value = quantile(values, q);
      return tail;
    }
  }
  return tail;
}

std::vector<double> segment_rates(std::vector<double> done_s, int segments) {
  std::sort(done_s.begin(), done_s.end());
  const std::size_t n = done_s.size();
  std::vector<double> rates;
  if (n < 2) return rates;
  const std::size_t per = std::max<std::size_t>(2, n / static_cast<std::size_t>(segments));
  for (std::size_t begin = 0; begin + per <= n; begin += per) {
    const double span = done_s[begin + per - 1] - done_s[begin];
    if (span > 0) rates.push_back(static_cast<double>(per - 1) / span);
  }
  return rates;
}

double segmented_rate(std::vector<double> done_s, int segments) {
  const std::vector<double> rates = segment_rates(std::move(done_s), segments);
  return rates.empty() ? 0.0 : median(rates);
}

Tail windowed_tail(const std::vector<double>& done_s, const std::vector<double>& latency_ms,
                   int segments) {
  std::vector<std::pair<double, double>> by_done;
  for (std::size_t i = 0; i < done_s.size() && i < latency_ms.size(); ++i)
    by_done.emplace_back(done_s[i], latency_ms[i]);
  std::sort(by_done.begin(), by_done.end());
  const std::size_t per = std::max<std::size_t>(1, by_done.size() / static_cast<std::size_t>(segments));
  Tail out;
  std::vector<double> tails;
  for (std::size_t begin = 0; begin + per <= by_done.size(); begin += per) {
    std::vector<double> window;
    for (std::size_t i = begin; i < begin + per; ++i) window.push_back(by_done[i].second);
    const Tail t = tail_percentile(window);
    out.q = t.q;
    out.n = t.n;
    tails.push_back(t.value);
  }
  out.value = median(tails);
  return out;
}

namespace {

int count_entries(const char* dir) {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec))
    ++n;
  return n;
}

}  // namespace

int open_fd_count() { return count_entries("/proc/self/fd"); }
int thread_count() { return count_entries("/proc/self/task"); }

namespace {

// VmHWM of /proc/self/status, in MiB; NaN when it cannot be read.
double vm_hwm_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return std::nan("");
}

}  // namespace

PeakRss::PeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;  // 5: reset the peak RSS to the current RSS
  reset_ = static_cast<bool>(clear_refs);
  if (!reset_) std::fprintf(stderr, "[perfbench] cannot reset the peak RSS counter\n");
}

void PeakRss::stop() {
  if (stopped_mib_ < 0) stopped_mib_ = vm_hwm_mib();
}

double PeakRss::peak_mib() const {
  if (!reset_) return std::nan("");
  return stopped_mib_ >= 0 ? stopped_mib_ : vm_hwm_mib();
}

double PoolWindow::utilization() const {
  const par::PoolStats now = par::pool_stats();
  const double wall = static_cast<double>(now.job_wall_ns - start_.job_wall_ns);
  const double busy = static_cast<double>(now.busy_ns - start_.busy_ns);
  return wall > 0 ? busy / (wall * std::max(1, now.width)) : 0.0;
}

std::vector<EpochRecord> read_run_log(const std::string& path) {
  std::vector<EpochRecord> out;
  std::ifstream in(path);
  std::string line;
  double last_elapsed = 0;
  while (std::getline(in, line)) {
    const std::optional<JsonValue> doc = json_parse(line);
    if (!doc) continue;
    const JsonValue* run_id = doc->find("run_id");
    const JsonValue* task = doc->find("task");
    const JsonValue* elapsed = doc->find("elapsed_s");
    const JsonValue* loss = doc->find("loss");
    if (!run_id || !task || !elapsed || !loss) continue;
    auto number = [&](const char* key) {
      const JsonValue* v = doc->find(key);
      return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : std::nan("");
    };
    EpochRecord r;
    r.run_id = run_id->string;
    r.task = task->string;
    if (out.empty() || out.back().run_id != r.run_id) last_elapsed = 0;
    r.seconds = elapsed->number - last_elapsed;
    last_elapsed = elapsed->number;
    r.batches = static_cast<std::int64_t>(number("batches"));
    r.samples = static_cast<std::int64_t>(number("samples"));
    r.loss = number("loss");
    r.t_sample_s = number("t_sample_s");
    r.t_batch_s = number("t_batch_s");
    r.t_fwd_s = number("t_fwd_s");
    r.t_bwd_s = number("t_bwd_s");
    r.t_opt_s = number("t_opt_s");
    out.push_back(r);
  }
  return out;
}

StepTimes step_times(const std::vector<EpochRecord>& epochs) {
  std::vector<double> gather, step, optim;
  for (const EpochRecord& e : epochs) {
    if (e.batches <= 0 || e.samples <= 0) continue;
    const double steps = static_cast<double>(e.batches);
    gather.push_back(e.t_batch_s * 1e6 / static_cast<double>(e.samples));
    step.push_back((e.t_fwd_s + e.t_bwd_s) * 1e3 / steps);
    optim.push_back(e.t_opt_s * 1e3 / steps);
  }
  return {median(gather), median(step), median(optim)};
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

GpsConfig table2_config() {
  GpsConfig config;
  config.hidden = 32;
  config.layers = 2;
  config.heads = 4;
  config.performer_features = 16;
  config.head_hidden = 32;
  config.dropout = 0.1f;
  config.mpnn = MpnnKind::kGatedGcn;
  config.attn = AttnKind::kPerformer;
  config.pe = PeKind::kDspd;
  config.seed = 2025;
  return config;
}

SubgraphOptions train_subgraph_options() {
  SubgraphOptions options;
  options.hops = 1;
  options.max_nodes_per_anchor = 96;
  return options;
}

CircuitDataset build_dataset_layered(gen::DatasetId id, const DatasetOptions& options,
                                     BuildTimes* times) {
  CircuitDataset ds;
  ds.name = gen::dataset_name(id);
  ds.is_train = gen::dataset_is_train(id);
  double t = now_s();
  ds.netlist = flatten(gen::make_design(id, options.design_scale));
  ds.graph = build_circuit_graph(ds.netlist);
  times->graph_build_ms = (now_s() - t) * 1e3;

  PlacerOptions placer = options.placer;
  placer.seed = options.seed ^ static_cast<std::uint64_t>(id);
  t = now_s();
  ds.placement = place(ds.netlist, placer);
  times->place_ms = (now_s() - t) * 1e3;
  t = now_s();
  ds.extraction = extract_parasitics(ds.netlist, ds.placement, options.extraction);
  times->extract_ms = (now_s() - t) * 1e3;

  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id));
  ds.link_samples = build_link_samples(ds.graph, ds.extraction.links, rng, options.link_options);
  ds.node_samples = build_node_samples(ds.graph, ds.extraction, rng, options.max_node_samples);
  ds.link_graph = build_link_graph(ds.graph, ds.link_samples, options.inject_negative_links);
  return ds;
}

}  // namespace cgps::perfbench
