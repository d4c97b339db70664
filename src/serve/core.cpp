#include "serve/core.hpp"

#include "exec/backend.hpp"
#include "serve/access_log.hpp"
#include "serve/protocol.hpp"
#include "tensor/kernels.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cmath>

namespace cgps::serve {

namespace {

// 1-2-5 ladder, 100 µs .. 20 s, in seconds: the serve.latency histogram the
// p50/p95/p99 SLO quantiles are interpolated from (DESIGN.md §8).
std::vector<double> latency_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-4; decade < 20.0; decade *= 10.0)
    for (const double step : {1.0, 2.0, 5.0}) bounds.push_back(decade * step);
  return bounds;
}

std::vector<double> batch_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

Histogram& latency_histogram() {
  static Histogram& h = metric_histogram("serve.latency", latency_bounds());
  return h;
}

Histogram& batch_size_histogram() {
  static Histogram& h = metric_histogram("serve.batch_size", batch_size_bounds());
  return h;
}

// Resident bytes of one served design: node/edge tables, both CSR adjacency
// directions, and the raw X_C feature rows. Computed from the graph's public
// counts (exact for the vectors' payloads; allocator overhead excluded).
std::int64_t design_resident_bytes(const ServedDesign& d) {
  const std::int64_t n = d.graph.num_nodes();
  const std::int64_t e = d.graph.num_edges();
  const std::int64_t node_tables = n * 1;                       // NodeType
  const std::int64_t edge_tables = e * (4 + 4 + 1);             // a, b, type
  const std::int64_t adjacency = (n + 1) * 8 + 2 * e * (4 + 8); // ptr, node, edge
  const std::int64_t features =
      static_cast<std::int64_t>(d.xc.size()) * kXcDim * 4;
  return node_tables + edge_tables + adjacency + features;
}

// fp32 resident bytes of the model's parameters.
std::int64_t model_fp32_bytes(const CircuitGps& model) {
  std::int64_t total = 0;
  for (const auto& [name, p] : model.named_parameters()) total += p.numel() * 4;
  return total;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kTimeout: return "timeout";
    case Status::kOverloaded: return "overloaded";
    case Status::kBadDesign: return "bad_design";
    case Status::kBadNode: return "bad_node";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
  }
  return "?";
}

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::kLink: return "link";
    case TaskKind::kEdgeCap: return "edge_cap";
    case TaskKind::kNodeCap: return "node_cap";
    case TaskKind::kInfo: return "info";
    case TaskKind::kStats: return "stats";
  }
  return "?";
}

ServeCore::ServeCore(CircuitGps& model, XcNormalizer normalizer,
                     std::vector<ServedDesign> designs, ServeOptions options)
    : model_(model),
      normalizer_(std::move(normalizer)),
      designs_(std::move(designs)),
      options_(options),
      batch_options_(batch_options_for(model.config())),
      runner_(model),
      window_latency_(latency_bounds()) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.queue_cap = std::max(1, options_.queue_cap);
  if (options_.default_deadline_us <= 0) options_.default_deadline_us = 100000;
  model_.set_training(false);
  start_us_ = trace::now_us();
  // Touch the instruments once so reports include them even before traffic.
  latency_histogram();
  batch_size_histogram();
  metric_gauge("serve.queue_depth").set(0.0);
  std::int64_t resident = 0;
  for (const ServedDesign& d : designs_) resident += design_resident_bytes(d);
  metric_gauge("serve.resident_bytes").set(static_cast<double>(resident));
}

ServeCore::~ServeCore() { stop(); }

void ServeCore::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void ServeCore::stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    worker.swap(thread_);
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
  // Without a batching thread the queue may still hold accepted work
  // (submit-before-start in tests); drain it here so "accepted implies
  // answered" holds on every path.
  while (run_cycle() > 0) {
  }
}

void ServeCore::set_cycle_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  cycle_hook_ = std::move(hook);
}

bool ServeCore::submit(const Request& request, ResponseCallback done) {
  Pending p;
  p.request = request;
  p.done = std::move(done);
  p.arrival_us = trace::now_us();
  p.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t budget =
      request.deadline_us > 0 ? request.deadline_us : options_.default_deadline_us;
  p.deadline_us = p.arrival_us + budget;

  metric_counter("serve.requests").add(1);
  if (request.design >= designs_.size()) {
    reply(p, Status::kBadDesign, 0.0f, 0.0);
    return true;
  }
  const ServedDesign& design = designs_[request.design];
  if (request.task == TaskKind::kInfo) {
    // Metadata probe: answered at admission, never queued.
    reply(p, Status::kOk, static_cast<float>(design.graph.num_nodes()),
          static_cast<double>(designs_.size()));
    return true;
  }
  if (request.task == TaskKind::kStats) {
    // The fixed-layout response cannot carry the snapshot; transport front
    // ends answer kStats with the JSON stats frame before admission
    // (serve/server.cpp), and in-process callers use stats_json() directly.
    // A kStats that still reaches submit() gets an empty inline OK.
    reply(p, Status::kOk, 0.0f, static_cast<double>(designs_.size()));
    return true;
  }
  const std::int32_t n = static_cast<std::int32_t>(design.graph.num_nodes());
  const bool needs_b = request.task == TaskKind::kLink || request.task == TaskKind::kEdgeCap;
  if (request.node_a < 0 || request.node_a >= n ||
      (needs_b && (request.node_b < 0 || request.node_b >= n))) {
    reply(p, Status::kBadNode, 0.0f, 0.0);
    return true;
  }

  // Admission decision under the lock, rejection callback outside it: the
  // callback must never run while the queue mutex is held.
  Status rejected = Status::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected = Status::kShutdown;
    } else if (queue_.size() >= static_cast<std::size_t>(options_.queue_cap)) {
      rejected = Status::kOverloaded;
    } else {
      queue_.push_back(std::move(p));
      metric_gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    }
  }
  if (rejected != Status::kOk) {
    if (rejected == Status::kOverloaded) metric_counter("serve.rejected").add(1);
    reply(p, rejected, 0.0f, 0.0);
    return false;
  }
  cv_.notify_one();
  return true;
}

// Take up to max_batch requests off the front of the queue.
std::vector<ServeCore::Pending> ServeCore::take_batch() {
  const std::size_t k = std::min(queue_.size(), static_cast<std::size_t>(options_.max_batch));
  std::vector<Pending> taken(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + static_cast<std::ptrdiff_t>(k)));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(k));
  metric_gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  return taken;
}

int ServeCore::run_cycle() {
  std::vector<Pending> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken = take_batch();
  }
  return serve_some(taken);
}

void ServeCore::loop() {
  for (;;) {
    std::vector<Pending> taken;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ && drained
      taken = take_batch();
    }
    serve_some(taken);
  }
}

// Shed expired requests, then serve the survivors grouped by design (one
// coalesced forward per design — make_batch normalizes X_C rows of exactly
// one source graph). Returns the number of requests answered.
int ServeCore::serve_some(std::vector<Pending>& taken) {
  if (taken.empty()) return 0;
  const std::int64_t now = trace::now_us();
  std::vector<Pending*> live;
  live.reserve(taken.size());
  for (Pending& p : taken) {
    p.queue_us = now - p.arrival_us;
    if (p.deadline_us < now) {
      metric_counter("serve.timeouts").add(1);
      window_shed_.add(now / 1000000);
      reply(p, Status::kTimeout, 0.0f, 0.0);
    } else {
      live.push_back(&p);
    }
  }
  // Group by design, preserving arrival order within each group.
  for (std::size_t d = 0; d < designs_.size() && !live.empty(); ++d) {
    std::vector<Pending*> group;
    std::vector<Pending*> rest;
    for (Pending* p : live) {
      (p->request.design == d ? group : rest).push_back(p);
    }
    if (!group.empty()) process_group(group);
    live.swap(rest);
  }
  // Batch boundary: let the transport send everything this cycle replied.
  // Called under the lock so that set_cycle_hook({}) waits for it.
  {
    const std::lock_guard<std::mutex> lock(hook_mu_);
    if (cycle_hook_) cycle_hook_();
  }
  return static_cast<int>(taken.size());
}

void ServeCore::process_group(std::vector<Pending*>& group) {
  const TraceSpan span("serve.batch");
  const ServedDesign& design = designs_[group.front()->request.design];
  const std::size_t k = group.size();
  batch_size_histogram().observe(static_cast<double>(k));
  metric_counter("serve.batches").add(1);
  const std::int64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  for (Pending* p : group) {
    p->batch_id = batch_id;
    p->batch_size = static_cast<int>(k);
  }

  // Enclosing-subgraph extraction + DSPD for every request in the group,
  // fanned out on the shared work pool (requests are independent).
  std::vector<Subgraph> subgraphs(k);
  const std::int64_t extract_start = trace::now_us();
  {
    const TraceSpan extract_span("serve.extract");
    par::parallel_for(0, static_cast<std::int64_t>(k), 1,
                      [&](std::int64_t b0, std::int64_t b1) {
                        for (std::int64_t i = b0; i < b1; ++i) {
                          const Request& r = group[static_cast<std::size_t>(i)]->request;
                          const std::int32_t b =
                              r.task == TaskKind::kNodeCap ? -1 : r.node_b;
                          subgraphs[static_cast<std::size_t>(i)] = extract_enclosing_subgraph(
                              design.graph, r.node_a, b, options_.subgraph);
                        }
                      });
  }
  const std::int64_t extract_us = trace::now_us() - extract_start;
  for (Pending* p : group) p->extract_us = extract_us;

  std::vector<const Subgraph*> refs(k);
  for (std::size_t i = 0; i < k; ++i) refs[i] = &subgraphs[i];
  SubgraphBatch batch;
  {
    const TraceSpan assemble_span("serve.assemble");
    batch = make_batch(refs, design.xc, normalizer_, batch_options_);
  }

  // One fused forward for the whole group, as train/trainer.cpp
  // run_inference does it.
  const std::int64_t forward_start = trace::now_us();
  const TraceSpan forward_span("serve.forward");
  std::vector<float> raw(k, 0.0f);
  std::int64_t rows = 0;
  const float* out = runner_.predict(batch, &rows);
  for (std::size_t i = 0; i < k && i < static_cast<std::size_t>(rows); ++i) raw[i] = out[i];
  const std::int64_t forward_us = trace::now_us() - forward_start;
  for (Pending* p : group) p->forward_us = forward_us;

  for (std::size_t i = 0; i < k; ++i) {
    Pending& p = *group[i];
    if (p.request.task == TaskKind::kLink) {
      reply(p, Status::kOk, kern::sigmoid1(raw[i]), 0.0);
    } else {
      const float norm_cap = std::clamp(raw[i], 0.0f, 1.0f);
      reply(p, Status::kOk, norm_cap, denormalize_cap(norm_cap));
    }
  }
}

void ServeCore::reply(Pending& p, Status status, float value, double cap_farads) {
  Response r;
  r.id = p.request.id;
  r.status = status;
  r.value = value;
  r.cap_farads = cap_farads;
  finish(p, r);
}

void ServeCore::finish(Pending& p, const Response& r) {
  Response out = r;
  const std::int64_t now = trace::now_us();
  out.server_us = now - p.arrival_us;
  if (out.status == Status::kOk) metric_counter("serve.ok").add(1);
  const double latency_s = static_cast<double>(out.server_us) * 1e-6;
  latency_histogram().observe(latency_s);
  const std::int64_t now_s = now / 1000000;
  window_done_.add(now_s);
  if (out.status == Status::kOk) window_ok_.add(now_s);
  if (out.status == Status::kOverloaded) window_rejected_.add(now_s);
  window_latency_.observe(now_s, latency_s);
  AccessRecord rec;
  rec.trace_id = p.trace_id;
  rec.wire_id = p.request.id;
  rec.status = out.status;
  rec.task = p.request.task;
  rec.design = p.request.design;
  rec.queue_us = p.queue_us;
  rec.extract_us = p.extract_us;
  rec.forward_us = p.forward_us;
  rec.total_us = out.server_us;
  rec.batch_id = p.batch_id;
  rec.batch_size = p.batch_size;
  log_access(rec);
  if (p.done) p.done(out);
}

namespace {

// One window block of the stats document: throughput and tail latency over
// the last `window_s` seconds. Rates are per second; shed/reject rates are
// fractions of the window's answered requests.
void write_window(JsonWriter& w, const char* key, int window_s, std::int64_t now_s,
                  const RollingCounter& done, const RollingCounter& ok,
                  const RollingCounter& shed, const RollingCounter& rejected,
                  const RollingHistogram& latency) {
  const std::int64_t n_done = done.sum_window(now_s, window_s);
  const std::int64_t n_ok = ok.sum_window(now_s, window_s);
  const std::int64_t n_shed = shed.sum_window(now_s, window_s);
  const std::int64_t n_rejected = rejected.sum_window(now_s, window_s);
  const Histogram::Snapshot snap = latency.merged(now_s, window_s);
  const double denom = n_done > 0 ? static_cast<double>(n_done) : 1.0;
  w.key(key).begin_object();
  w.field("window_s", window_s);
  w.field("done", n_done);
  w.field("ok", n_ok);
  w.field("shed", n_shed);
  w.field("rejected", n_rejected);
  w.field("qps", static_cast<double>(n_done) / window_s);
  w.field("ok_qps", static_cast<double>(n_ok) / window_s);
  w.field("shed_rate", static_cast<double>(n_shed) / denom);
  w.field("reject_rate", static_cast<double>(n_rejected) / denom);
  w.field("p50_s", estimate_quantile(snap, 0.50));
  w.field("p95_s", estimate_quantile(snap, 0.95));
  w.field("p99_s", estimate_quantile(snap, 0.99));
  w.end_object();
}

}  // namespace

std::string ServeCore::stats_json() const {
  const std::int64_t now = trace::now_us();
  const std::int64_t now_s = now / 1000000;
  JsonWriter w;
  w.begin_object();
  w.field("schema", "cgps-serve-stats-v1");
  w.field("proto_version", static_cast<std::int64_t>(kProtocolVersion));
  w.field("uptime_s", static_cast<double>(now - start_us_) * 1e-6);
  w.field("build", identity_.build);
  w.field("checkpoint", identity_.checkpoint);
  // The kernel backend the planned executor runs: "scalar" answers are the
  // bit-exact reference ones.
  w.field("executor", exec::select_backend().name());
  w.field("model_fp32_bytes", model_fp32_bytes(model_));
  w.field("max_batch", options_.max_batch);
  w.field("queue_cap", options_.queue_cap);
  w.field("default_deadline_ms", static_cast<double>(options_.default_deadline_us) * 1e-3);
  w.field("rss_bytes", current_rss_bytes());
  w.key("designs").begin_array();
  for (const ServedDesign& d : designs_) {
    w.begin_object();
    w.field("name", d.name);
    w.field("nodes", d.graph.num_nodes());
    w.field("edges", d.graph.num_edges());
    w.field("resident_bytes", design_resident_bytes(d));
    w.end_object();
  }
  w.end_array();
  w.key("windows").begin_object();
  write_window(w, "10s", 10, now_s, window_done_, window_ok_, window_shed_,
               window_rejected_, window_latency_);
  write_window(w, "60s", 60, now_s, window_done_, window_ok_, window_shed_,
               window_rejected_, window_latency_);
  w.end_object();
  w.key("registry");
  MetricsRegistry::instance().write_json(w);
  w.end_object();
  return w.str();
}

}  // namespace cgps::serve
