// The three benchmark workloads (perfbench/METRICS.md explains each).
#pragma once

#include "harness.hpp"
#include "layers.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace cgps::perfbench {

Outcome run_serve_interactive(const Args& args);
Outcome run_serve_bulk_screen(const Args& args);
Outcome run_train_fewshot(const Args& args);

// Serving a checkpoint written by the few-shot flow: a daemon for `design`
// loaded from `bundle_path`, closed-loop sessions of `session_len` queries as
// in serve_interactive, every reply checked as on the serve workloads.
struct DeployProbe {
  std::int64_t attempted = 0, failed = 0;
  double connect_ms_p50 = kUnset, server_ms_p50 = kUnset, wire_ms_p50 = kUnset;
  double cycle_ms_p50 = kUnset, batch_size_mean = kUnset, repeat_share = kUnset;
  double graph_build_ms = kUnset, bundle_load_ms = kUnset;
  double open_fds_end = kUnset, threads_end = kUnset;
};
DeployProbe probe_deployment(const std::string& bundle_path, gen::DatasetId design,
                             const std::vector<Query>& queries, std::size_t session_len,
                             std::uint64_t seed);

}  // namespace cgps::perfbench
