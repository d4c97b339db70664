// Process-wide observability registry: named counters, gauges, and
// fixed-bucket histograms. All mutation paths are lock-free atomics, safe to
// call from util/parallel pool workers; instruments never feed back into any
// computation, so telemetry cannot perturb training results. (Distinct from
// train/metrics.hpp, which holds the paper's *evaluation* metrics.)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cgps {

class JsonWriter;

class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram with fixed upper-bound buckets chosen at registration: a sample
// lands in the first bucket whose bound is >= the sample, or in the implicit
// overflow bucket past the last bound. Tracks count and sum for mean
// recovery; bucket mutation is one relaxed atomic increment.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        // upper bounds, ascending
    std::vector<std::int64_t> counts;  // bounds.size() + 1 (last = overflow)
    std::int64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;
  void reset();

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Interpolated quantile estimate (Prometheus-style) from a histogram
// snapshot: the quantile's rank is located in the cumulative bucket counts
// and the value interpolated linearly inside that bucket. The first bucket's
// lower edge is min(0, bounds[0]); ranks landing in the open overflow bucket
// yield +inf — there is no finite edge to interpolate against, and a capped
// value would be a fake quantile (check the snapshot's last count, exported
// as `overflow_count` in the JSON payload, to detect saturation). Returns
// NaN when the snapshot is empty or the histogram has no bounds, and is
// monotone in q, so p50 <= p95 <= p99.
double estimate_quantile(const Histogram::Snapshot& snap, double q);

// Windowed counter: a ring of one-second epoch slots so a snapshot can
// report "the last W seconds" instead of process-lifetime totals (which can
// never show a regression after a long warm run). The caller supplies the
// epoch (seconds on any monotonic clock, e.g. trace::now_us() / 1000000);
// tests drive synthetic epochs. The hot path is one relaxed atomic add — the
// mutex is only taken when a slot turns over to a new second. A writer that
// stalls for longer than the ring (slots seconds) between the epoch check
// and its add may credit a later epoch; acceptable for telemetry.
class RollingCounter {
 public:
  explicit RollingCounter(int slots = 64);

  void add(std::int64_t now_s, std::int64_t delta = 1);

  // Sum over the last `window_s` seconds: epochs (now_s - window_s, now_s].
  // The current (partial) second is included. window_s is clamped to the
  // ring size — older epochs may already have been reclaimed.
  std::int64_t sum_window(std::int64_t now_s, int window_s) const;

 private:
  struct Slot {
    std::atomic<std::int64_t> epoch{-1};
    std::atomic<std::int64_t> value{0};
  };
  Slot& turn_over(std::int64_t now_s);
  mutable std::mutex turnover_mu_;
  std::vector<Slot> slots_;
};

// Windowed histogram: same one-second epoch ring as RollingCounter, holding
// per-slot bucket counts. merged() folds the live slots of the window into a
// regular Histogram::Snapshot so estimate_quantile() yields windowed
// p50/p95/p99 with the exact machinery the lifetime histograms use.
class RollingHistogram {
 public:
  explicit RollingHistogram(std::vector<double> bounds, int slots = 64);

  void observe(std::int64_t now_s, double v);

  Histogram::Snapshot merged(std::int64_t now_s, int window_s) const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Slot {
    std::atomic<std::int64_t> epoch{-1};
    std::vector<std::atomic<std::int64_t>> counts;  // bounds.size() + 1
    std::atomic<std::int64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  Slot& turn_over(std::int64_t now_s);
  std::vector<double> bounds_;
  mutable std::mutex turnover_mu_;
  std::vector<Slot> slots_;
};

// Registry of named instruments. Lookup is mutex-guarded; returned
// references stay valid for the process lifetime (instruments are never
// deleted). Re-registering a name returns the existing instrument.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `bounds` are copied only when `name` is registered here.
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds);

  // Emit the full registry as one JSON object in value position:
  // {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  void write_json(JsonWriter& w) const;

  // Counters only, as a flat {name: value} object (per-epoch telemetry).
  void write_counters_json(JsonWriter& w) const;

  // Gauges only, as a flat {name: value} object (per-epoch telemetry).
  void write_gauges_json(JsonWriter& w) const;

  // Zero every instrument (tests and bench isolation). Names stay
  // registered and references stay valid.
  void reset();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Convenience accessors against the process-wide registry.
Counter& metric_counter(std::string_view name);
Gauge& metric_gauge(std::string_view name);
Histogram& metric_histogram(std::string_view name, const std::vector<double>& bounds);

// Resident set size of this process in bytes (0 where unsupported).
std::int64_t current_rss_bytes();

}  // namespace cgps
