#include "util/metrics.hpp"

#include "util/json_writer.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#ifdef __linux__
#include <unistd.h>
#endif

namespace cgps {

namespace {

// Relaxed atomic add for doubles (atomic<double>::fetch_add needs no
// hardware support guarantee pre-C++20 on all targets; CAS is portable).
void atomic_add(std::atomic<double>& target, double delta) {
  double old = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(old, old + delta, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) snap.counts.push_back(c.load(std::memory_order_relaxed));
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double estimate_quantile(const Histogram::Snapshot& snap, double q) {
  if (snap.count <= 0 || snap.bounds.empty())
    return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(snap.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(snap.counts[i]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      const double lo = i == 0 ? std::min(0.0, snap.bounds[0]) : snap.bounds[i - 1];
      const double hi = snap.bounds[i];
      const double frac = std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cumulative += in_bucket;
  }
  // The rank lies in the open overflow bucket: there is no finite upper edge
  // to interpolate against, and reporting bounds.back() would silently cap
  // the quantile at the ladder's top. +inf serializes as JSON null; consumers
  // use the payload's overflow_count to tell "saturated" from "empty".
  return std::numeric_limits<double>::infinity();
}

RollingCounter::RollingCounter(int slots)
    : slots_(static_cast<std::size_t>(std::max(2, slots))) {}

RollingCounter::Slot& RollingCounter::turn_over(std::int64_t now_s) {
  Slot& slot = slots_[static_cast<std::size_t>(now_s) % slots_.size()];
  if (slot.epoch.load(std::memory_order_acquire) != now_s) {
    const std::scoped_lock lock(turnover_mu_);
    if (slot.epoch.load(std::memory_order_relaxed) != now_s) {
      slot.value.store(0, std::memory_order_relaxed);
      slot.epoch.store(now_s, std::memory_order_release);
    }
  }
  return slot;
}

void RollingCounter::add(std::int64_t now_s, std::int64_t delta) {
  turn_over(now_s).value.fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t RollingCounter::sum_window(std::int64_t now_s, int window_s) const {
  const int w = std::clamp(window_s, 0, static_cast<int>(slots_.size()));
  std::int64_t total = 0;
  for (int back = 0; back < w; ++back) {
    const std::int64_t epoch = now_s - back;
    if (epoch < 0) break;
    const Slot& slot = slots_[static_cast<std::size_t>(epoch) % slots_.size()];
    if (slot.epoch.load(std::memory_order_acquire) == epoch)
      total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

RollingHistogram::RollingHistogram(std::vector<double> bounds, int slots)
    : bounds_(std::move(bounds)), slots_(static_cast<std::size_t>(std::max(2, slots))) {
  std::sort(bounds_.begin(), bounds_.end());
  for (Slot& slot : slots_)
    slot.counts = std::vector<std::atomic<std::int64_t>>(bounds_.size() + 1);
}

RollingHistogram::Slot& RollingHistogram::turn_over(std::int64_t now_s) {
  Slot& slot = slots_[static_cast<std::size_t>(now_s) % slots_.size()];
  if (slot.epoch.load(std::memory_order_acquire) != now_s) {
    const std::scoped_lock lock(turnover_mu_);
    if (slot.epoch.load(std::memory_order_relaxed) != now_s) {
      for (auto& c : slot.counts) c.store(0, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.epoch.store(now_s, std::memory_order_release);
    }
  }
  return slot;
}

void RollingHistogram::observe(std::int64_t now_s, double v) {
  Slot& slot = turn_over(now_s);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  slot.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(slot.sum, v);
}

Histogram::Snapshot RollingHistogram::merged(std::int64_t now_s, int window_s) const {
  Histogram::Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  const int w = std::clamp(window_s, 0, static_cast<int>(slots_.size()));
  for (int back = 0; back < w; ++back) {
    const std::int64_t epoch = now_s - back;
    if (epoch < 0) break;
    const Slot& slot = slots_[static_cast<std::size_t>(epoch) % slots_.size()];
    if (slot.epoch.load(std::memory_order_acquire) != epoch) continue;
    for (std::size_t i = 0; i < snap.counts.size(); ++i)
      snap.counts[i] += slot.counts[i].load(std::memory_order_relaxed);
    snap.count += slot.count.load(std::memory_order_relaxed);
    snap.sum += slot.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  const std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(bounds)).first;
  return *it->second;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  const std::scoped_lock lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot snap = h->snapshot();
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : snap.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::int64_t c : snap.counts) w.value(c);
    w.end_array();
    w.field("count", snap.count);
    w.field("sum", snap.sum);
    // Samples past the last bound. Non-zero means the quantiles below are
    // saturated (+inf, serialized null) — trend tooling must not trust them.
    w.field("overflow_count", snap.counts.empty() ? 0 : snap.counts.back());
    // Interpolated quantiles (NaN serializes as null when count == 0).
    w.field("p50", estimate_quantile(snap, 0.50));
    w.field("p95", estimate_quantile(snap, 0.95));
    w.field("p99", estimate_quantile(snap, 0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void MetricsRegistry::write_counters_json(JsonWriter& w) const {
  const std::scoped_lock lock(mu_);
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
}

void MetricsRegistry::write_gauges_json(JsonWriter& w) const {
  const std::scoped_lock lock(mu_);
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

Counter& metric_counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}

Gauge& metric_gauge(std::string_view name) { return MetricsRegistry::instance().gauge(name); }

Histogram& metric_histogram(std::string_view name, const std::vector<double>& bounds) {
  return MetricsRegistry::instance().histogram(name, bounds);
}

std::int64_t current_rss_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size_pages = 0, rss_pages = 0;
  const int got = std::fscanf(f, "%lld %lld", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::int64_t>(rss_pages) * static_cast<std::int64_t>(page);
#else
  return 0;
#endif
}

}  // namespace cgps
