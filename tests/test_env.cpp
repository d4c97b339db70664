#include "util/env.hpp"
#include "util/timer.hpp"

#include <cstdlib>
#include <gtest/gtest.h>

namespace cgps {
namespace {

// Scoped setenv/unsetenv so a failing assertion cannot leak a variable into
// later tests (env_thread_count / env_run_log_max_bytes re-read every call).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

// bench_scale() caches the env var on first use, so these tests exercise the
// default path (the suite runs without CIRCUITGPS_SCALE set).
TEST(Env, DefaultScaleIsOne) { EXPECT_DOUBLE_EQ(bench_scale(), 1.0); }

TEST(Env, ParseEnvDoubleIsStrict) {
  EXPECT_EQ(parse_env_double("1.5"), 1.5);
  EXPECT_EQ(parse_env_double("-2"), -2.0);
  EXPECT_EQ(parse_env_double("2e-3"), 2e-3);
  // Trailing garbage must not be silently truncated: "4x" used to parse as 4.
  EXPECT_FALSE(parse_env_double("4x").has_value());
  EXPECT_FALSE(parse_env_double("1.5abc").has_value());
  EXPECT_FALSE(parse_env_double("1.5 ").has_value());
  EXPECT_FALSE(parse_env_double("").has_value());
  EXPECT_FALSE(parse_env_double(nullptr).has_value());
  EXPECT_FALSE(parse_env_double("abc").has_value());
  EXPECT_FALSE(parse_env_double("1e999").has_value());  // ERANGE
}

TEST(Env, ParseEnvIntIsStrict) {
  EXPECT_EQ(parse_env_int("4"), 4);
  EXPECT_EQ(parse_env_int("-7"), -7);
  EXPECT_FALSE(parse_env_int("4x").has_value());
  EXPECT_FALSE(parse_env_int("3.5").has_value());
  EXPECT_FALSE(parse_env_int("").has_value());
  EXPECT_FALSE(parse_env_int(nullptr).has_value());
  EXPECT_FALSE(parse_env_int("99999999999999999999").has_value());  // ERANGE
}

TEST(Env, ThreadCountRejectsMalformedValues) {
  const int fallback = [] {
    ::unsetenv("CIRCUITGPS_THREADS");
    return env_thread_count();
  }();
  EXPECT_GE(fallback, 1);
  {
    const ScopedEnv env("CIRCUITGPS_THREADS", "3");
    EXPECT_EQ(env_thread_count(), 3);
  }
  // "4x" must fall back to the hardware default, not run with 4 threads.
  for (const char* bad : {"4x", "0", "-2", "two", ""}) {
    const ScopedEnv env("CIRCUITGPS_THREADS", bad);
    EXPECT_EQ(env_thread_count(), fallback) << "value: \"" << bad << "\"";
  }
}

TEST(Env, RunLogMaxBytesRejectsMalformedValues) {
  {
    const ScopedEnv env("CIRCUITGPS_RUN_LOG_MAX_MB", "0.5");
    EXPECT_EQ(env_run_log_max_bytes(), 512 * 1024);
  }
  for (const char* bad : {"1.5abc", "-1", "0", "lots", ""}) {
    const ScopedEnv env("CIRCUITGPS_RUN_LOG_MAX_MB", bad);
    EXPECT_EQ(env_run_log_max_bytes(), 0) << "value: \"" << bad << "\"";
  }
  ::unsetenv("CIRCUITGPS_RUN_LOG_MAX_MB");
  EXPECT_EQ(env_run_log_max_bytes(), 0);
}

TEST(Env, ScaledAppliesFactorAndFloor) {
  EXPECT_EQ(scaled(100), 100);
  EXPECT_EQ(scaled(0), 1);        // floor at min_value
  EXPECT_EQ(scaled(0, 5), 5);     // custom floor
  EXPECT_EQ(scaled(7, 3), 7);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const double t1 = watch.seconds();
  EXPECT_GT(t1, 0.0);
  EXPECT_EQ(watch.milliseconds() >= t1 * 1e3, true);
  watch.reset();
  EXPECT_LT(watch.seconds(), t1 + 1.0);
}

}  // namespace
}  // namespace cgps
