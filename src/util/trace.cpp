#include "util/trace.hpp"

#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

namespace cgps {

namespace trace {

namespace {

std::int64_t process_pid() {
#ifdef __linux__
  return static_cast<std::int64_t>(::getpid());
#else
  return 0;
#endif
}

// Metadata header emitted once per opened file: tags the stream with the
// schema and run id so mixed logs stay attributable.
std::string header() {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "cgps-trace-v1");
  w.field("run_id", make_run_id());
  w.field("name", "process_name");
  w.field("ph", "M");
  w.field("pid", process_pid());
  w.key("args").begin_object().field("name", "circuitgps").end_object();
  w.end_object();
  return w.str();
}

void write_event(std::string_view name, const char* phase, std::int64_t ts_us) {
  if (!stream_enabled()) return;  // keep the off path lock-free
  static EnvJsonlSink& sink = EnvJsonlSink::process_lifetime(
      {"CIRCUITGPS_TRACE", env_trace_path, "span streaming", nullptr, header});
  JsonWriter w;
  w.begin_object();
  w.field("name", name);
  w.field("cat", "cgps");
  w.field("ph", phase);
  w.field("ts", ts_us);
  w.field("pid", process_pid());
  w.field("tid", thread_id());
  w.end_object();
  sink.write_line(w.str());
}

// Thread-local stack of live span names.
thread_local std::vector<std::string_view> t_stack;

}  // namespace

bool stream_enabled() { return env_trace_enabled(); }

std::int64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
}

int depth() { return static_cast<int>(t_stack.size()); }

std::string_view current_span() {
  return t_stack.empty() ? std::string_view() : t_stack.back();
}

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Histogram& latency_histogram(std::string_view name) {
  // 1-2-5 ladder over 1 µs .. 100 s, in seconds: wide enough for a single
  // subgraph extraction and a whole training epoch alike.
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    return b;
  }();
  thread_local std::string key;  // grows to the longest name, then reused
  key.assign("trace.").append(name);
  return metric_histogram(key, bounds);
}

std::string make_run_id() {
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llx-%llx", static_cast<unsigned long long>(wall_us),
                static_cast<unsigned long long>(process_pid()));
  return buf;
}

}  // namespace trace

TraceSpan::TraceSpan(const char* name)
    : name_(name), start_us_(trace::now_us()), hist_(&trace::latency_histogram(name_)) {
  trace::t_stack.push_back(name_);
  trace::write_event(name_, "B", start_us_);
}

TraceSpan::~TraceSpan() {
  const std::int64_t end_us = trace::now_us();
  hist_->observe(static_cast<double>(end_us - start_us_) / 1e6);
  trace::write_event(name_, "E", end_us);
  trace::t_stack.pop_back();
}

}  // namespace cgps
