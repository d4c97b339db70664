// Shared plumbing of the repository benchmark: run arguments, the result
// record every workload returns, sample statistics, process probes and the
// pinned model/design configuration. Workloads live in serve_workloads.cpp
// and train_workload.cpp; the traced per-layer replay in layers.cpp.
#pragma once

#include "gps/config.hpp"
#include "graph/subgraph.hpp"
#include "train/dataset.hpp"
#include "util/parallel.hpp"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cgps::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test only: corrupt one reply before it is checked, which must then
  // count as a failed operation.
  bool corrupt = false;
  // Scratch directory inside the checkout for bundles and the run log.
  std::string run_dir = ".";
};

// The trainer's run log (CIRCUITGPS_RUN_LOG), inside the run directory.
inline std::string run_log_path(const Args& args) { return args.run_dir + "/train_log.jsonl"; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the correctness verdict, operation counts and the
// metrics of the selected mode (end-to-end, or per-layer when traced).
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  // Marks the run incorrect and explains why on stderr.
  void reject(const std::string& why);
  std::string to_json() const;
};

// Pool width every workload pins (CIRCUITGPS_THREADS): explicit, so the
// numbers do not follow the host's hardware concurrency. One worker: on a
// 4-vCPU VM, two workers were no faster, and the cross-vCPU wake-ups of every
// fan-out spread bulk throughput 27% and pre-training 40% run to run. The
// traced run measures the pool itself at kPoolProbeWidth.
inline constexpr int kPoolWidth = 1;
inline constexpr int kPoolProbeWidth = 2;

// ---- sample statistics ----------------------------------------------------

// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

// The highest of p99/p95/p90/p75/p50 that still has at least ten samples
// beyond it (choosing-metrics rule), with the sample count it came from.
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t n = 0;
};
Tail tail_percentile(const std::vector<double>& values);

// The tail percentile of each of `segments` consecutive windows of requests
// (ordered by completion), then the median over windows: the p99 an operator
// reads off the daemon's rolling stats in a typical window, which a single
// stall of the shared host cannot move. `n` is the per-window sample count.
Tail windowed_tail(const std::vector<double>& done_s, const std::vector<double>& latency_ms,
                   int segments = 20);

// Throughput of each of `segments` equal-count slices of the completion
// timestamps (seconds), and their median: a within-run median that a
// transient stall of the shared host moves far less than the whole-run mean.
std::vector<double> segment_rates(std::vector<double> done_s, int segments);
double segmented_rate(std::vector<double> done_s, int segments = 20);

// ---- clocks and process probes ---------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int open_fd_count();  // entries of /proc/self/fd
int thread_count();   // entries of /proc/self/task

// Peak resident set between construction and stop() (or now), from the
// kernel's high-water mark (VmHWM), which construction resets to the current
// resident set through /proc/self/clear_refs. Exact: no sampling interval
// can miss a short-lived peak. NaN if the reset failed.
class PeakRss {
 public:
  PeakRss();
  void stop();  // freezes peak_mib()
  double peak_mib() const;

 private:
  bool reset_ = false;
  double stopped_mib_ = -1;
};

// Work-pool activity between construction and the accessor calls.
class PoolWindow {
 public:
  PoolWindow() : start_(par::pool_stats()) {}
  // Busy time over (pooled wall time x width); 0 when nothing fanned out.
  double utilization() const;
  std::int64_t pooled_jobs() const { return par::pool_stats().pooled_jobs - start_.pooled_jobs; }

 private:
  par::PoolStats start_;
};

// What `work` does to the pool at kPoolProbeWidth workers (the timed runs
// pin kPoolWidth). `work` returns the operations it performed.
struct PoolProbe {
  double utilization = 0;  // PoolWindow::utilization
  double jobs_per_op = 0;  // pooled jobs per operation
};
template <class Work>
PoolProbe probe_pool(Work&& work) {
  par::set_threads(kPoolProbeWidth);
  PoolProbe probe;
  {
    const PoolWindow window;
    const std::int64_t ops = std::forward<Work>(work)();
    probe.utilization = window.utilization();
    probe.jobs_per_op =
        ops > 0 ? static_cast<double>(window.pooled_jobs()) / static_cast<double>(ops) : 0.0;
  }
  par::set_threads(kPoolWidth);
  return probe;
}

// ---- the trainer's run log ---------------------------------------------------

// One epoch record of the cgps-train-v1 run log (CIRCUITGPS_RUN_LOG, which
// main points into the run directory). run_training times each phase of its
// step loop itself, so these are the real loop's numbers.
struct EpochRecord {
  std::string run_id;
  std::string task;    // "link" or "regression"
  double seconds = 0;  // epoch wall time (a run's first epoch from its start)
  std::int64_t batches = 0, samples = 0;
  double loss = 0;
  double t_sample_s = 0;  // plan_epoch
  double t_batch_s = 0;   // gather_batch (make_batch)
  double t_fwd_s = 0;     // forward_loss
  double t_bwd_s = 0;     // zero_grad + backward
  double t_opt_s = 0;     // clip_grad_norm + Adam::step
  // The part of the epoch the trainer's phase timers cover.
  double timed_s() const { return t_sample_s + t_batch_s + t_fwd_s + t_bwd_s + t_opt_s; }
};

// Every epoch record of the log at `path`, in order.
std::vector<EpochRecord> read_run_log(const std::string& path);

// Per-step figures of the given epochs: the median over epochs of each
// epoch's mean per step (or per graph). NaN when no epoch qualifies.
struct StepTimes {
  double gather_us_per_graph = 0;  // t_batch_s / samples
  double step_ms = 0;              // (t_fwd_s + t_bwd_s) / batches
  double optim_ms = 0;             // t_opt_s / batches
};
StepTimes step_times(const std::vector<EpochRecord>& epochs);

// Splitmix64 derivation of independent streams from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- pinned configuration ---------------------------------------------------

// The paper's Table-II model: GatedGCN + Performer + DSPD at bench width.
// It has the values of bench_gps_config() in bench/common.hpp. They are
// pinned here so that a change to the paper benches cannot move this
// benchmark.
GpsConfig table2_config();

// Training-time extraction options (bench scale: paper-regime subgraphs).
SubgraphOptions train_subgraph_options();

// Per-layer wall times of one dataset build (milliseconds).
struct BuildTimes {
  double graph_build_ms = 0;  // gen::make_design + flatten + build_circuit_graph
  double place_ms = 0;        // layout: place
  double extract_ms = 0;      // parasitics: extract_parasitics
};

// build_dataset, step by step through the public layer functions so each
// layer's wall time can be read (same steps and seeds as train/dataset.cpp).
CircuitDataset build_dataset_layered(gen::DatasetId id, const DatasetOptions& options,
                                     BuildTimes* times);

}  // namespace cgps::perfbench
