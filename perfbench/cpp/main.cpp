// cgps_perfbench: the repository benchmark program (perfbench/METRICS.md).
//
//   cgps_perfbench --workload serve_interactive|serve_bulk_screen|train_fewshot
//                  --seed N --seconds S --trace 0|1 --run-dir DIR [--corrupt]
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer ones. Exit status 0 whenever a result was
// printed; a run whose checks failed reports "correct": false.
#include "harness.hpp"
#include "workloads.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

namespace {

using cgps::perfbench::Args;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

// The configuration operators use for throughput (docs/OPERATIONS.md §3),
// pinned before any thread starts so nothing inherited from the caller's
// environment can change what is measured.
void pin_environment(const Args& args) {
  ::setenv("CIRCUITGPS_EXEC", "planned", 1);
  ::setenv("CIRCUITGPS_BACKEND", "auto", 1);
  ::setenv("CIRCUITGPS_QUANT", "off", 1);
  ::setenv("CIRCUITGPS_THREADS", std::to_string(cgps::perfbench::kPoolWidth).c_str(), 1);
  ::setenv("CGPS_LOG_LEVEL", "warn", 1);
  for (const char* name : {"CIRCUITGPS_TRACE", "CIRCUITGPS_SERVE_ACCESS_LOG",
                           "CIRCUITGPS_SERVE_SLOW_MS", "CIRCUITGPS_RUN_LOG_MAX_MB",
                           "CIRCUITGPS_RUN_LOG"})
    ::unsetenv(name);
  // The trainer's per-epoch phase times (read_run_log).
  ::setenv("CIRCUITGPS_RUN_LOG", run_log_path(args).c_str(), 1);
}

// serve_interactive opens one connection per session and the daemon keeps
// each one's descriptor until shutdown (ROADMAP item 3), so allow as many
// descriptors as the hard limit permits.
void raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cgps_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--run-dir DIR [--corrupt]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.run_dir, ec);
  pin_environment(args);
  raise_fd_limit();
  try {
    cgps::perfbench::Outcome out;
    if (args.workload == "serve_interactive") {
      out = cgps::perfbench::run_serve_interactive(args);
    } else if (args.workload == "serve_bulk_screen") {
      out = cgps::perfbench::run_serve_bulk_screen(args);
    } else if (args.workload == "train_fewshot") {
      out = cgps::perfbench::run_train_fewshot(args);
    } else {
      std::fprintf(stderr, "cgps_perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    std::printf("%s\n", out.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgps_perfbench: %s\n", e.what());
    return 1;
  }
}
