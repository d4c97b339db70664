// Reported metric sets and the traced per-layer replay.
//
// End-to-end numbers come from untraced runs. A traced run replays the
// workload's own seeded queries in process through the public functions of
// each layer — graph (extract_enclosing_subgraph), gps (make_batch), exec
// (PlanRunner), train (evaluate_regression) — timing each call from the
// outside. Training steps are not replayed: their per-phase times come from
// the trainer's own run log (read_run_log). Nothing inside src/ is
// instrumented for this.
#pragma once

#include "harness.hpp"
#include "gps/batch.hpp"
#include "gps/model.hpp"
#include "serve/serve.hpp"
#include "train/task_data.hpp"

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace cgps::perfbench {

inline constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

// One query of a workload's seeded stream with its ground truth.
struct Query {
  serve::TaskKind task = serve::TaskKind::kLink;  // kLink, kEdgeCap or kNodeCap
  std::uint16_t design = 0;                       // index into the workload's designs
  std::int32_t a = -1;
  std::int32_t b = -1;  // -1 for kNodeCap
  float target = 0.0f;  // link label, or normalized capacitance
};

// End-to-end metrics; every field must be measured (NaN rejects the run).
struct EndToEnd {
  double setup_s = kUnset;
  double throughput_per_s = kUnset;
  double latency_p50_ms = kUnset;
  double latency_p99_ms = kUnset;
  double peak_rss_mb = kUnset;
  double adapt_p50_ms = kUnset;
  double heldout_mae = kUnset;
  double zeroshot_auc = kUnset;
};
void add_end_to_end(Outcome& out, const EndToEnd& e2e);

// Per-layer metrics of a traced run (see METRICS.md for what each should
// move); every field must be measured.
struct LayerReport {
  double serve_server_ms_p50 = kUnset;
  double serve_wire_ms_p50 = kUnset;
  double serve_connect_ms_p50 = kUnset;
  double serve_open_fds_end = kUnset;
  double serve_threads_end = kUnset;
  double serve_batch_size_mean = kUnset;
  double serve_cycle_ms_p50 = kUnset;
  double serve_repeat_share = kUnset;
  double serve_failed = kUnset;
  double graph_extract_us_p50 = kUnset;
  double graph_subgraph_nodes_mean = kUnset;
  double graph_build_ms = kUnset;
  double gps_assemble_us_per_graph = kUnset;
  double exec_predict_us_per_graph = kUnset;
  double exec_plan_build_ms = kUnset;
  double exec_train_step_ms_p50 = kUnset;
  double exec_arena_mb = kUnset;
  double tensor_optim_step_ms_p50 = kUnset;
  double train_eval_ms_p50 = kUnset;
  double train_bundle_save_ms = kUnset;
  double train_bundle_load_ms = kUnset;
  double train_sample_ms = kUnset;
  double layout_place_ms = kUnset;
  double parasitics_extract_ms = kUnset;
  double util_pool_utilization = kUnset;
  double util_pooled_jobs_per_op = kUnset;
  double trace_coverage_share = kUnset;
  double trace_residual_ms = kUnset;
  double trace_overhead_share = kUnset;
};
void add_layer_metrics(Outcome& out, const LayerReport& layers);

// Where a design's subgraphs are extracted from and its X_C rows.
struct ReplaySource {
  const HeteroGraph* graph = nullptr;
  const std::vector<std::array<float, kXcDim>>* xc = nullptr;
};

struct ReplayInput {
  CircuitGps* model = nullptr;
  const XcNormalizer* normalizer = nullptr;
  std::vector<ReplaySource> sources;  // indexed by Query::design
  SubgraphOptions subgraph{};
  // Inference path: extraction fanned out on the pool per batch, assembly,
  // PlanRunner::predict, at the batch size the timed run formed.
  std::vector<Query> predict_queries;
  int predict_batch = 1;
  // evaluate_regression is timed on this task (several passes) when set.
  const TaskData* eval_data = nullptr;
  // Probe the work pool on the inference path (probe_pool).
  bool pool_probe = true;
};

struct ReplayResult {
  std::vector<double> extract_us;  // one sample per extract_enclosing_subgraph call
  double subgraph_nodes_mean = 0;
  double assemble_us_per_graph = 0;
  double predict_us_per_graph = 0;
  double plan_build_ms = 0;       // first predict on a fresh PlanRunner
  double arena_mb = 0;            // exec.arena_bytes after the replay
  double infer_ms_per_batch = 0;  // extraction wall + assembly + predict, per batch
  std::vector<double> eval_ms;    // evaluate_regression passes
  PoolProbe pool;                 // per replayed query
};

ReplayResult replay_layers(const ReplayInput& input);

}  // namespace cgps::perfbench
