#include "train/trainer.hpp"

#include "exec/runner.hpp"
#include "tensor/kernels.hpp"
#include "tensor/optim.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

namespace cgps {

BatchOptions batch_options_for(const GpsConfig& config) {
  BatchOptions options;
  options.pe = config.pe;
  options.rwse_steps = config.rwse_steps;
  options.lappe_k = config.lappe_k;
  return options;
}

XcNormalizer fit_normalizer(std::span<const TaskData* const> train) {
  XcNormalizer normalizer;
  for (const TaskData* task : train) {
    for (const Subgraph& sg : task->subgraphs)
      normalizer.fit_rows(task->graph->xc, sg.orig_nodes);
  }
  return normalizer;
}

namespace {

// Per-epoch JSONL telemetry (DESIGN.md §8), enabled by CIRCUITGPS_RUN_LOG.
// Returns nullptr when the variable is unset or the path cannot be opened;
// the training loop itself is unchanged either way (records are built from
// values the loop already computes).
std::unique_ptr<JsonlFile> open_run_log() {
  const std::string path = env_run_log_path();
  if (path.empty()) return nullptr;
  auto log = std::make_unique<JsonlFile>(path, env_run_log_max_bytes());
  if (!log->ok()) {
    log_warn("CIRCUITGPS_RUN_LOG: cannot open ", path, "; epoch telemetry disabled");
    return nullptr;
  }
  return log;
}

// One (task, sample-range) unit of work per step; single-task batches keep
// the X_C source unambiguous.
struct BatchRef {
  std::size_t task;
  std::size_t begin;
  std::size_t end;
};

std::vector<BatchRef> plan_epoch(std::span<const TaskData* const> tasks,
                                 std::vector<std::vector<std::size_t>>& order, int batch_size,
                                 Rng& rng) {
  std::vector<BatchRef> plan;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    rng.shuffle(order[t]);
    const std::size_t n = order[t].size();
    for (std::size_t start = 0; start < n; start += static_cast<std::size_t>(batch_size)) {
      plan.push_back({t, start, std::min(n, start + static_cast<std::size_t>(batch_size))});
    }
  }
  rng.shuffle(plan);
  return plan;
}

struct MiniBatch {
  SubgraphBatch batch;
  std::vector<float> values;  // labels or targets, one per graph
};

MiniBatch gather_batch(const TaskData& task, const std::vector<std::size_t>& order,
                       std::size_t begin, std::size_t end, bool use_labels,
                       const XcNormalizer& normalizer, const BatchOptions& options) {
  MiniBatch mb;
  std::vector<const Subgraph*> refs;
  refs.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i = order[k];
    refs.push_back(&task.subgraphs[i]);
    mb.values.push_back(use_labels ? task.labels[i] : task.targets[i]);
  }
  mb.batch = make_batch(refs, task.graph->xc, normalizer, options);
  return mb;
}

// Snapshot/restore of all parameter and buffer values (for best-epoch
// restoration under early stopping).
struct ModelSnapshot {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> buffers;

  static ModelSnapshot capture(const CircuitGps& model) {
    ModelSnapshot snap;
    for (const auto& [name, p] : model.named_parameters())
      snap.params.emplace_back(p.data().begin(), p.data().end());
    for (const auto& [name, b] : model.named_buffers()) snap.buffers.push_back(*b);
    return snap;
  }
  void restore(CircuitGps& model) const {
    std::size_t i = 0;
    for (auto& [name, p] : model.named_parameters()) {
      std::copy(params[i].begin(), params[i].end(), p.data().begin());
      ++i;
    }
    i = 0;
    for (auto& [name, b] : model.named_buffers()) *b = buffers[i++];
  }
};

std::vector<float> run_inference(CircuitGps& model, const XcNormalizer& normalizer,
                                 const TaskData& test, int batch_size, bool link_task);

double validation_score(CircuitGps& model, const XcNormalizer& normalizer,
                        const TaskData& validation, bool link_task) {
  const std::vector<float> out = run_inference(model, normalizer, validation, 64, link_task);
  if (link_task) return binary_metrics(out, validation.labels).auc;
  return -regression_metrics(out, validation.targets).mae;
}

TrainStats run_training(CircuitGps& model, const XcNormalizer& normalizer,
                        std::span<const TaskData* const> train, const TaskData* validation,
                        const TrainOptions& options, bool link_task) {
  const BatchOptions batch_options = batch_options_for(model.config());
  Adam optimizer(model.trainable_parameters(), options.lr, 0.9f, 0.999f, 1e-8f,
                 options.weight_decay);
  Rng rng(model.config().seed ^ 0xA5A5A5A5ULL);

  std::vector<std::vector<std::size_t>> order(train.size());
  for (std::size_t t = 0; t < train.size(); ++t) {
    order[t].resize(static_cast<std::size_t>(train[t]->size()));
    std::iota(order[t].begin(), order[t].end(), 0);
  }

  TrainStats stats;
  stats.best_validation = std::numeric_limits<double>::quiet_NaN();
  ModelSnapshot best;
  double best_score = -std::numeric_limits<double>::infinity();
  int since_best = 0;
  const bool early_stopping = validation != nullptr && options.early_stop_patience > 0;

  model.set_training(true);
  exec::PlanRunner runner(model);
  const std::unique_ptr<JsonlFile> run_log = open_run_log();
  const std::string run_id = trace::make_run_id();
  Stopwatch timer;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const TraceSpan epoch_span("train.epoch");
    model.set_training(true);
    if (options.lr_schedule == LrSchedule::kCosine && options.epochs > 1) {
      const double progress = static_cast<double>(epoch) / (options.epochs - 1);
      const double floor_lr = options.lr / 20.0;
      optimizer.set_lr(static_cast<float>(
          floor_lr + 0.5 * (options.lr - floor_lr) * (1.0 + std::cos(progress * 3.14159265))));
    }
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    std::int64_t samples = 0;
    // Per-phase wall-clock accumulators (seconds) for this epoch.
    double t_sample = 0.0, t_batch = 0.0, t_fwd = 0.0, t_bwd = 0.0, t_opt = 0.0;
    std::vector<BatchRef> plan;
    {
      ScopedTimer st(t_sample);
      const TraceSpan span("train.plan");
      plan = plan_epoch(train, order, options.batch_size, rng);
    }
    for (const BatchRef& ref : plan) {
      MiniBatch mb;
      {
        ScopedTimer st(t_batch);
        const TraceSpan span("train.gather");
        mb = gather_batch(*train[ref.task], order[ref.task], ref.begin, ref.end,
                          link_task, normalizer, batch_options);
      }
      float loss = 0.0f;
      {
        ScopedTimer st(t_fwd);
        const TraceSpan span("train.forward");
        loss = runner.forward_loss(mb.batch, mb.values, options.target_weight_alpha, link_task);
      }
      {
        ScopedTimer st(t_bwd);
        const TraceSpan span("train.backward");
        optimizer.zero_grad();
        runner.backward();
      }
      {
        ScopedTimer st(t_opt);
        const TraceSpan span("train.optim");
        optimizer.clip_grad_norm(options.grad_clip);
        optimizer.step();
      }
      loss_sum += loss;
      ++batches;
      samples += static_cast<std::int64_t>(ref.end - ref.begin);
    }
    if (options.verbose) {
      log_info("epoch ", epoch, " loss ",
               batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0, " phases[s]",
               " sample=", t_sample, " batch=", t_batch, " fwd=", t_fwd, " bwd=", t_bwd,
               " opt=", t_opt);
    }
    stats.epochs_run = epoch + 1;
    double val_score = std::numeric_limits<double>::quiet_NaN();
    bool stop = false;
    if (validation != nullptr) {
      val_score = validation_score(model, normalizer, *validation, link_task);
      if (val_score > best_score) {
        best_score = val_score;
        stats.best_validation = val_score;
        since_best = 0;
        if (early_stopping) best = ModelSnapshot::capture(model);
      } else if (early_stopping && ++since_best >= options.early_stop_patience) {
        stop = true;
      }
    }
    par::sample_pool_gauges();  // epoch-boundary pool gauges (DESIGN.md §8)
    if (run_log != nullptr) {
      JsonWriter w;
      w.begin_object();
      w.field("schema", "cgps-train-v1");
      w.field("run_id", run_id);
      w.field("model", "circuitgps");
      w.field("task", link_task ? "link" : "regression");
      w.field("epoch", epoch);
      w.field("epochs_total", options.epochs);
      w.field("loss", batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0);
      w.field("lr", static_cast<double>(optimizer.lr()));
      w.field("batches", batches);
      w.field("samples", samples);
      w.field("t_sample_s", t_sample);
      w.field("t_batch_s", t_batch);
      w.field("t_fwd_s", t_fwd);
      w.field("t_bwd_s", t_bwd);
      w.field("t_opt_s", t_opt);
      if (std::isnan(val_score)) {
        w.null_field("val_score");
      } else {
        w.field("val_score", val_score);
      }
      w.field("threads", par::max_threads());
      w.field("rss_mb", static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0));
      w.field("elapsed_s", timer.seconds());
      w.key("counters");
      MetricsRegistry::instance().write_counters_json(w);
      w.key("gauges");
      MetricsRegistry::instance().write_gauges_json(w);
      w.end_object();
      run_log->write_line(w.str());
    }
    if (stop) break;
  }
  if (early_stopping && !best.params.empty()) best.restore(model);
  model.set_training(false);
  stats.seconds = timer.seconds();
  return stats;
}

std::vector<float> run_inference(CircuitGps& model, const XcNormalizer& normalizer,
                                 const TaskData& test, int batch_size, bool link_task) {
  const TraceSpan span("train.inference");
  const BatchOptions batch_options = batch_options_for(model.config());
  model.set_training(false);

  // Assemble every evaluation batch on the work pool up front (batches are
  // independent), then run the forwards in order so score layout matches the
  // old serial loop exactly.
  const std::size_t n = static_cast<std::size_t>(test.size());
  const std::size_t stride = static_cast<std::size_t>(batch_size);
  const std::int64_t n_batches = static_cast<std::int64_t>((n + stride - 1) / stride);
  std::vector<SubgraphBatch> prepared(static_cast<std::size_t>(n_batches));
  par::parallel_for(0, n_batches, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::size_t start = static_cast<std::size_t>(b) * stride;
      const std::size_t end = std::min(n, start + stride);
      std::vector<const Subgraph*> refs;
      refs.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) refs.push_back(&test.subgraphs[i]);
      prepared[static_cast<std::size_t>(b)] =
          make_batch(refs, test.graph->xc, normalizer, batch_options);
    }
  });

  std::vector<float> scores;
  scores.reserve(n);
  exec::PlanRunner runner(model);
  for (const SubgraphBatch& batch : prepared) {
    std::int64_t rows = 0;
    const float* out = runner.predict(batch, &rows);
    for (std::int64_t i = 0; i < rows; ++i)
      scores.push_back(link_task ? kern::sigmoid1(out[i]) : std::clamp(out[i], 0.0f, 1.0f));
  }
  return scores;
}

}  // namespace

double train_link_prediction(CircuitGps& model, const XcNormalizer& normalizer,
                             std::span<const TaskData* const> train,
                             const TrainOptions& options) {
  return run_training(model, normalizer, train, nullptr, options, /*link_task=*/true).seconds;
}

double train_regression(CircuitGps& model, const XcNormalizer& normalizer,
                        std::span<const TaskData* const> train, const TrainOptions& options) {
  return run_training(model, normalizer, train, nullptr, options, /*link_task=*/false).seconds;
}

TrainStats train_link_prediction_ex(CircuitGps& model, const XcNormalizer& normalizer,
                                    std::span<const TaskData* const> train,
                                    const TaskData* validation, const TrainOptions& options) {
  return run_training(model, normalizer, train, validation, options, /*link_task=*/true);
}

TrainStats train_regression_ex(CircuitGps& model, const XcNormalizer& normalizer,
                               std::span<const TaskData* const> train,
                               const TaskData* validation, const TrainOptions& options) {
  return run_training(model, normalizer, train, validation, options, /*link_task=*/false);
}

BinaryMetrics evaluate_link_prediction(CircuitGps& model, const XcNormalizer& normalizer,
                                       const TaskData& test, int batch_size) {
  const std::vector<float> scores =
      run_inference(model, normalizer, test, batch_size, /*link_task=*/true);
  return binary_metrics(scores, test.labels);
}

RegressionMetrics evaluate_regression(CircuitGps& model, const XcNormalizer& normalizer,
                                      const TaskData& test, int batch_size) {
  const std::vector<float> preds =
      run_inference(model, normalizer, test, batch_size, /*link_task=*/false);
  return regression_metrics(preds, test.targets);
}

std::vector<float> predict_regression(CircuitGps& model, const XcNormalizer& normalizer,
                                      const TaskData& test, int batch_size) {
  return run_inference(model, normalizer, test, batch_size, /*link_task=*/false);
}

}  // namespace cgps
