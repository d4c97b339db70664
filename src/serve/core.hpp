// The batching heart of cgps_serve (DESIGN.md §11): a bounded admission
// queue drained by one batching thread that coalesces concurrent requests
// into cross-request batches — subgraph extraction + DSPD fan out on the
// shared work pool, then one fused forward per (design) group through the
// planned executor — and replies per request.
//
// Contracts:
//   * Coalescing is invisible to results: a batch of k requests returns the
//     same bits as k solo requests on the scalar backend (eval-mode
//     BatchNorm uses running stats, attention/pooling are block-diagonal
//     per graph, and every kernel is row-independent — asserted by
//     tests/test_serve.cpp).
//   * Backpressure is immediate: a submit against a full queue is rejected
//     with kOverloaded from the calling thread; the queue never grows past
//     `queue_cap`.
//   * Deadlines shed at dequeue: a request whose budget expired while
//     queued is answered kTimeout without paying for extraction/forward.
//   * Shutdown drains: stop() refuses new work (kShutdown) but every
//     already-accepted request is answered before stop() returns.
#pragma once

#include "exec/runner.hpp"
#include "gps/batch.hpp"
#include "gps/model.hpp"
#include "graph/subgraph.hpp"
#include "serve/serve.hpp"
#include "util/metrics.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cgps::serve {

struct ServeOptions {
  int max_batch = 64;       // requests coalesced per forward
  int queue_cap = 1024;     // admission-queue bound (beyond: kOverloaded)
  std::int64_t default_deadline_us = 100000;  // 100 ms
  SubgraphOptions subgraph{};                 // extraction options
};

// What the daemon is serving, stamped into every stats snapshot so an
// operator polling a fleet can tell builds and checkpoints apart.
struct ServeIdentity {
  std::string checkpoint;  // checkpoint path, or "demo" for synthetic weights
  std::string build;       // git describe stamp of the serving binary
};

// Reply sink; invoked exactly once per submitted request, either inline from
// submit() (validation failures, backpressure, kInfo) or from the batching
// thread. Must not block for long and must not call back into ServeCore.
using ResponseCallback = std::function<void(const Response&)>;

class ServeCore {
 public:
  // `model` is borrowed and must outlive the core; it is switched to eval
  // mode. `normalizer` must be the training-time X_C normalizer (bundled
  // with the checkpoint by train/model_io) for predictions to be meaningful.
  ServeCore(CircuitGps& model, XcNormalizer normalizer,
            std::vector<ServedDesign> designs, ServeOptions options = {});
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  // Launch the batching thread. Without start(), requests queue up until
  // run_cycle() is called (the deterministic test/bench entry point).
  void start();

  // Graceful shutdown: refuse new submissions, drain every queued request,
  // join the batching thread. Idempotent. Safe without start().
  void stop();

  // Thread-safe admission. The callback always fires exactly once. Returns
  // true when the request was queued (or, for kInfo/validation failures,
  // answered inline with its real status); false when it was rejected with
  // kOverloaded or kShutdown.
  bool submit(const Request& request, ResponseCallback done);

  // Blocking convenience wrapper around submit() (socket handlers and tests
  // that want call/response semantics). Requires start() or a concurrent
  // run_cycle() driver for queued kinds.
  Response predict(const Request& request);

  // Synchronously drain and serve up to max_batch queued requests on the
  // calling thread. Only meaningful when the batching thread is not running
  // (tests/benches pinning batch composition). Returns requests answered.
  int run_cycle();

  std::size_t num_designs() const { return designs_.size(); }
  const ServedDesign& design(std::size_t i) const { return designs_[i]; }
  const CircuitGps& model() const { return model_; }
  const XcNormalizer& normalizer() const { return normalizer_; }
  const ServeOptions& options() const { return options_; }
  // Stamp the snapshot identity (checkpoint path, build tag). Call before
  // start(); the strings are read unguarded by stats_json().
  void set_identity(ServeIdentity identity) { identity_ = std::move(identity); }

  // One cgps-serve-stats-v1 JSON document: uptime + identity, per-design
  // resident info, last-10s/last-60s windows (QPS, shed/reject rates,
  // p50/p95/p99) and the full metrics registry with lifetime quantiles.
  // Read-only over atomics — safe from any thread, never perturbs serving.
  std::string stats_json() const;

  // Invoked once after every batching cycle, from the thread that served it,
  // after all of the cycle's response callbacks have fired. The TCP front
  // end registers its write-buffer flush here so one batch of responses
  // costs one write(2) per connection instead of one per request. Pass an
  // empty function to unregister.
  void set_cycle_hook(std::function<void()> hook);

 private:
  struct Pending {
    Request request;
    ResponseCallback done;
    std::int64_t arrival_us = 0;   // trace::now_us() at admission
    std::int64_t deadline_us = 0;  // absolute, trace::now_us() scale
    // Observability trail threaded through admission -> dequeue -> batch:
    // the access-log record is assembled from these in finish().
    std::uint64_t trace_id = 0;    // monotonic admission id
    std::int64_t queue_us = 0;     // admission -> dequeue
    std::int64_t extract_us = 0;   // its batch's extraction wall time
    std::int64_t forward_us = 0;   // its batch's fused-forward wall time
    std::int64_t batch_id = 0;     // 0 = answered inline
    int batch_size = 0;
  };

  void loop();
  int serve_some(std::vector<Pending>& taken);
  void process_group(std::vector<Pending*>& group);
  void reply(Pending& p, Status status, float value, double cap_farads);
  void finish(Pending& p, const Response& r);

  CircuitGps& model_;
  XcNormalizer normalizer_;
  std::vector<ServedDesign> designs_;
  ServeOptions options_;
  BatchOptions batch_options_;
  exec::PlanRunner runner_;  // batching-thread only

  mutable std::mutex hook_mu_;
  std::function<void()> cycle_hook_;

  ServeIdentity identity_;
  std::int64_t start_us_ = 0;  // trace::now_us() at construction (uptime)
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::int64_t> next_batch_id_{1};
  // One-second epoch rings behind the stats snapshot's last-10s/last-60s
  // windows (lifetime instruments live in the global registry).
  RollingCounter window_done_;      // responses of any status
  RollingCounter window_ok_;
  RollingCounter window_shed_;      // kTimeout (deadline shed at dequeue)
  RollingCounter window_rejected_;  // kOverloaded (admission backpressure)
  RollingHistogram window_latency_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;  // FIFO; drained from the front
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace cgps::serve
