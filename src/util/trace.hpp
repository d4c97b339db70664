// Hierarchical hot-path latency tracing (DESIGN.md §8).
//
// A TraceSpan is an RAII section marker: construction pushes the span onto a
// thread-local stack (spans nest), destruction pops it and feeds the span's
// wall-clock seconds into a per-span-name latency histogram
// ("trace.<name>") in the process-wide MetricsRegistry. When
// CIRCUITGPS_TRACE names a writable file, every span additionally streams a
// begin/end event pair ("cgps-trace-v1" JSONL, Chrome about:tracing event
// shape) so a run can be inspected phase by phase. Same contract as
// CIRCUITGPS_RUN_LOG: telemetry is write-only and the variable unset means
// zero behaviour change — training stays bit-identical
// (tests/test_trace.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cgps {

class Histogram;

namespace trace {

// True when CIRCUITGPS_TRACE names an event-log path that could be opened.
// Read fresh on every call, like env_run_log_path().
bool stream_enabled();

// Monotonic microseconds since process start (trace event timestamps).
std::int64_t now_us();

// Nesting depth of live TraceSpans on the calling thread.
int depth();

// Name of the innermost live span on the calling thread ("" when none).
std::string_view current_span();

// Stable small integer id for the calling thread (trace event "tid").
int thread_id();

// The latency histogram "trace.<name>" (1-2-5 log ladder, 1 µs .. 100 s,
// in seconds) backing a span name, registered on first use. Allocates only
// then, and on a thread's first longer name.
Histogram& latency_histogram(std::string_view name);

// "timestamp-pid" hex tag identifying one run/process, so records from
// concurrent trainers appending to a shared JSONL file stay
// distinguishable (cgps-train-v1 "run_id").
std::string make_run_id();

}  // namespace trace

// With streaming off, a span allocates nothing once its histogram exists.
class TraceSpan {
 public:
  // The span keeps `name` without copying it, so it takes a C string (every
  // call site passes a literal) and no std::string that could die first.
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string_view name_;
  std::int64_t start_us_ = 0;
  Histogram* hist_ = nullptr;  // cached at construction
};

}  // namespace cgps
