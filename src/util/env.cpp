#include "util/env.hpp"

#include "util/logging.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>

// NOLINTBEGIN(concurrency-mt-unsafe): this file is the one sanctioned
// std::getenv site (cgps_lint rule getenv-outside-env). Nothing here calls
// setenv/putenv, so the getenv data race clang-tidy guards against cannot
// occur; values are parsed through warn-once helpers and mostly cached in
// function-local statics.

namespace cgps {

namespace {

// One warning per (variable, value) so a long-lived process that re-reads an
// env var every call (env_thread_count, env_run_log_max_bytes) does not spam
// the log, but a *changed* bad value still gets reported.
void warn_once(const char* name, const char* text, const char* why) {
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::string key = std::string(name) + "=" + text;
  {
    const std::scoped_lock lock(mu);
    if (!warned.insert(key).second) return;
  }
  log_warn("ignoring ", name, "=\"", text, "\": ", why);
}

}  // namespace

std::optional<double> parse_env_double(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<long long> parse_env_int(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

double bench_scale() {
  static const double scale = [] {
    if (const char* env = std::getenv("CIRCUITGPS_SCALE")) {
      const std::optional<double> v = parse_env_double(env);
      if (v.has_value() && *v > 0) return *v;
      warn_once("CIRCUITGPS_SCALE", env, "want a positive number; using 1");
    }
    return 1.0;
  }();
  return scale;
}

int scaled(int base, int min_value) {
  return std::max(min_value, static_cast<int>(base * bench_scale()));
}

int env_thread_count() {
  if (const char* env = std::getenv("CIRCUITGPS_THREADS")) {
    const std::optional<long long> v = parse_env_int(env);
    if (v.has_value() && *v >= 1) return static_cast<int>(std::min<long long>(*v, 1 << 20));
    warn_once("CIRCUITGPS_THREADS", env,
              "want a positive integer; using the hardware default");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::string env_run_log_path() {
  const char* env = std::getenv("CIRCUITGPS_RUN_LOG");
  return env != nullptr ? std::string(env) : std::string();
}

std::int64_t env_run_log_max_bytes() {
  if (const char* env = std::getenv("CIRCUITGPS_RUN_LOG_MAX_MB")) {
    const std::optional<double> mb = parse_env_double(env);
    if (mb.has_value() && *mb > 0)
      return static_cast<std::int64_t>(*mb * 1024.0 * 1024.0);
    warn_once("CIRCUITGPS_RUN_LOG_MAX_MB", env,
              "want a positive number of MiB; leaving the log unbounded");
  }
  return 0;
}

std::string env_bench_dir() {
  const char* env = std::getenv("CIRCUITGPS_BENCH_DIR");
  return env != nullptr && *env != '\0' ? std::string(env) : std::string(".");
}

std::string env_trace_path() {
  const char* env = std::getenv("CIRCUITGPS_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

bool env_trace_enabled() {
  const char* env = std::getenv("CIRCUITGPS_TRACE");
  return env != nullptr && *env != '\0';
}

BackendKind env_backend() {
  if (const char* env = std::getenv("CIRCUITGPS_BACKEND")) {
    const std::string v(env);
    if (v == "scalar") return BackendKind::kScalar;
    if (v == "avx2") return BackendKind::kAvx2;
    if (v == "auto" || v.empty()) return BackendKind::kAuto;
    warn_once("CIRCUITGPS_BACKEND", env, "want scalar|avx2|auto; using auto");
  }
  return BackendKind::kAuto;
}

namespace {

// Shared reader for the CIRCUITGPS_SERVE_* integer knobs: value must be an
// integer in [min, max], else warn once and use the default.
int serve_int_env(const char* name, int fallback, int min, int max) {
  if (const char* env = std::getenv(name)) {
    const std::optional<long long> v = parse_env_int(env);
    if (v.has_value() && *v >= min && *v <= max) return static_cast<int>(*v);
    warn_once(name, env, "out of range or not an integer; using the default");
  }
  return fallback;
}

}  // namespace

int env_serve_port() { return serve_int_env("CIRCUITGPS_SERVE_PORT", 9207, 0, 65535); }

int env_serve_max_batch() {
  return serve_int_env("CIRCUITGPS_SERVE_MAX_BATCH", 64, 1, 4096);
}

int env_serve_queue_cap() {
  return serve_int_env("CIRCUITGPS_SERVE_QUEUE_CAP", 1024, 1, 1 << 20);
}

int env_serve_deadline_ms() {
  return serve_int_env("CIRCUITGPS_SERVE_DEADLINE_MS", 100, 1, 3600000);
}

std::string env_serve_access_log_path() {
  const char* env = std::getenv("CIRCUITGPS_SERVE_ACCESS_LOG");
  return env != nullptr ? std::string(env) : std::string();
}

double env_serve_slow_ms() {
  if (const char* env = std::getenv("CIRCUITGPS_SERVE_SLOW_MS")) {
    const std::optional<double> ms = parse_env_double(env);
    if (ms.has_value() && *ms > 0) return *ms;
    warn_once("CIRCUITGPS_SERVE_SLOW_MS", env,
              "want a positive number of milliseconds; slow-request warnings off");
  }
  return 0.0;
}

std::string env_log_level_name() {
  const char* env = std::getenv("CGPS_LOG_LEVEL");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace cgps

// NOLINTEND(concurrency-mt-unsafe)
