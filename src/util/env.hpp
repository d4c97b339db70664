// Environment knobs for scaling benchmark fidelity and routing telemetry.
// The authoritative reference table for every CIRCUITGPS_* variable lives in
// README.md ("Environment variables").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace cgps {

// Strict numeric parsing shared by every CIRCUITGPS_* reader: the whole
// string must be one number ("4x", "1.5abc", "" and out-of-range values all
// yield nullopt). Call sites log one warning per malformed variable value and
// fall back to their documented default instead of silently accepting a
// prefix the way std::stod/std::stoi would.
std::optional<double> parse_env_double(const char* text);
std::optional<long long> parse_env_int(const char* text);

// Value of CIRCUITGPS_SCALE (default 1.0). Benches multiply dataset sizes
// and epoch counts by this factor; >1 gives higher-fidelity, slower runs.
double bench_scale();

// Scale a base count, keeping at least `min_value`.
int scaled(int base, int min_value = 1);

// Value of CIRCUITGPS_THREADS (clamped to >= 1). Unset or invalid values
// fall back to std::thread::hardware_concurrency() (>= 1). This is the
// width of the shared work pool in util/parallel; 1 keeps every hot path
// on the calling thread.
int env_thread_count();

// Value of CIRCUITGPS_RUN_LOG: path of the per-epoch JSONL training log
// (DESIGN.md §8), or "" when unset. Read fresh on every call (not cached)
// so tests and long-lived processes can retarget the log between runs.
std::string env_run_log_path();

// Size cap for the CIRCUITGPS_RUN_LOG file in bytes, from
// CIRCUITGPS_RUN_LOG_MAX_MB (fractional values allowed, so tests can force
// rotation cheaply). 0 when unset or invalid = no cap. A write pushing the
// log past the cap rotates it to `<path>.1` first (util/json_writer).
std::int64_t env_run_log_max_bytes();

// Value of CIRCUITGPS_BENCH_DIR: directory that receives BENCH_<name>.json
// reports; "." when unset. Read fresh on every call.
std::string env_bench_dir();

// Value of CIRCUITGPS_TRACE: path of the cgps-trace-v1 span stream
// (DESIGN.md §8), or "" when unset. Read fresh on every call so tests can
// retarget the stream between spans.
std::string env_trace_path();

// True when CIRCUITGPS_TRACE is set to a non-empty value. Allocation-free:
// this sits on the TraceSpan destructor path, which must stay cheap when
// streaming is off.
bool env_trace_enabled();

// Kernel backend selected by CIRCUITGPS_BACKEND for the planned executor.
// kAuto (default) picks the fastest backend the CPU supports at runtime;
// kScalar forces the bit-exact reference kernels (what the determinism
// tests pin); kAvx2 forces the AVX2/FMA kernels and falls back to scalar
// with a warning when the CPU lacks them. Read fresh on every call.
enum class BackendKind { kAuto, kScalar, kAvx2 };
BackendKind env_backend();

// cgps_serve daemon defaults (DESIGN.md §11). Each CLI flag on the tool
// overrides the matching variable; the variable overrides the built-in
// default. All are read fresh on every call so tests can retarget them.
//
// CIRCUITGPS_SERVE_PORT: TCP port to bind on 127.0.0.1 (0 = ephemeral).
int env_serve_port();
// CIRCUITGPS_SERVE_MAX_BATCH: coalesced-batch size cap per forward pass.
int env_serve_max_batch();
// CIRCUITGPS_SERVE_QUEUE_CAP: admission-queue bound; submissions beyond it
// are rejected immediately with status `overloaded` (backpressure).
int env_serve_queue_cap();
// CIRCUITGPS_SERVE_DEADLINE_MS: default per-request deadline in
// milliseconds, applied when a request carries deadline_us == 0. Requests
// still queued past their deadline are shed with status `timeout`.
int env_serve_deadline_ms();

// Value of CIRCUITGPS_SERVE_ACCESS_LOG: path of the per-request
// cgps-serve-access-v1 JSONL access log emitted by the serving core
// (DESIGN.md §11), or "" when unset (logging off). Read fresh on every call
// so tests and long-lived daemons can retarget it; the file honors the
// CIRCUITGPS_RUN_LOG_MAX_MB rotation cap.
std::string env_serve_access_log_path();

// Slow-request threshold in milliseconds from CIRCUITGPS_SERVE_SLOW_MS
// (fractional values allowed, so tests can trip it cheaply). Requests whose
// total latency exceeds it are additionally logged at warn level. 0 when
// unset or invalid = slow-request warnings off.
double env_serve_slow_ms();

// Raw value of CGPS_LOG_LEVEL ("" when unset). util/logging owns the
// parse (and the one-shot warning for unknown names) because translating
// to LogLevel from here would invert the env -> logging dependency.
std::string env_log_level_name();

}  // namespace cgps
