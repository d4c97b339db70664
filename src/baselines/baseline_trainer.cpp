#include "baselines/baseline_trainer.hpp"

#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "train/trainer.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cmath>

namespace cgps {

namespace {

using Pairs = std::vector<std::pair<std::int32_t, std::int32_t>>;

// Target extraction modes over a dataset's samples.
enum class TargetMode { kLinkLabels, kEdgeCaps, kNodeCaps };

const char* target_mode_name(TargetMode mode) {
  switch (mode) {
    case TargetMode::kLinkLabels:
      return "link";
    case TargetMode::kEdgeCaps:
      return "edge_regression";
    case TargetMode::kNodeCaps:
      return "node_regression";
  }
  return "unknown";
}

void collect_targets(const CircuitDataset& ds, TargetMode mode, Pairs& pairs,
                     std::vector<float>& values) {
  pairs.clear();
  values.clear();
  switch (mode) {
    case TargetMode::kLinkLabels:
      for (const LinkSample& s : ds.link_samples) {
        pairs.emplace_back(s.node_a, s.node_b);
        values.push_back(s.label);
      }
      break;
    case TargetMode::kEdgeCaps:
      for (const LinkSample& s : ds.link_samples) {
        if (s.label < 0.5f || s.cap <= kCapWindowLo) continue;
        pairs.emplace_back(s.node_a, s.node_b);
        values.push_back(normalize_cap(s.cap));
      }
      break;
    case TargetMode::kNodeCaps:
      for (const NodeSample& s : ds.node_samples) {
        pairs.emplace_back(s.node, s.node);  // self pair = node features
        values.push_back(normalize_cap(s.cap));
      }
      break;
  }
}

void subsample(Pairs& pairs, std::vector<float>& values, std::int64_t max_count, Rng& rng) {
  if (max_count < 0 || static_cast<std::int64_t>(pairs.size()) <= max_count) return;
  std::vector<std::size_t> idx = rng.sample_without_replacement(pairs.size(),
                                                                static_cast<std::size_t>(max_count));
  Pairs new_pairs;
  std::vector<float> new_values;
  new_pairs.reserve(idx.size());
  new_values.reserve(idx.size());
  for (std::size_t i : idx) {
    new_pairs.push_back(pairs[i]);
    new_values.push_back(values[i]);
  }
  pairs.swap(new_pairs);
  values.swap(new_values);
}

double run_baseline_training(FullGraphBaseline& model,
                             std::span<const CircuitDataset* const> train,
                             const XcNormalizer& normalizer,
                             const BaselineTrainOptions& options, TargetMode mode) {
  Adam optimizer(model.parameters(), options.lr, 0.9f, 0.999f, 1e-8f, options.weight_decay);
  Rng rng(model.config().seed ^ 0x5F5F5F5FULL);

  // Precompute the full edge lists (constant across epochs); datasets are
  // independent, so the conversion fans out across the work pool.
  std::vector<EdgeIndex> edges(train.size());
  par::parallel_for(0, static_cast<std::int64_t>(train.size()), 1,
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t t = b; t < e; ++t)
                        edges[static_cast<std::size_t>(t)] =
                            full_graph_edges(train[static_cast<std::size_t>(t)]->graph);
                    });

  model.set_training(true);
  const RunLog run_log;
  Stopwatch timer;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const TraceSpan epoch_span("baseline.epoch");
    double loss_sum = 0.0;
    std::int64_t total_pairs = 0;
    std::int64_t steps = 0;
    double t_sample = 0.0, t_fwd = 0.0, t_bwd = 0.0, t_opt = 0.0;
    for (std::size_t t = 0; t < train.size(); ++t) {
      Pairs pairs;
      std::vector<float> values;
      {
        ScopedTimer st(t_sample);
        collect_targets(*train[t], mode, pairs, values);
        if (!pairs.empty()) subsample(pairs, values, options.max_pairs_per_epoch, rng);
      }
      if (pairs.empty()) continue;

      Tensor loss;
      {
        ScopedTimer st(t_fwd);
        Tensor emb = model.embed(train[t]->graph, edges[t], normalizer);
        if (mode == TargetMode::kLinkLabels) {
          Tensor logits = model.link_logits(emb, pairs);
          Tensor target = Tensor::from_vector(std::move(values), logits.rows(), 1);
          loss = ops::bce_with_logits(logits, target);
        } else {
          loss = model.cap_loss(emb, pairs, values);
        }
      }
      {
        ScopedTimer st(t_bwd);
        optimizer.zero_grad();
        loss.backward();
      }
      {
        ScopedTimer st(t_opt);
        optimizer.clip_grad_norm(options.grad_clip);
        optimizer.step();
      }
      loss_sum += loss.item();
      total_pairs += static_cast<std::int64_t>(pairs.size());
      ++steps;
    }
    if (options.verbose) {
      log_info("baseline epoch ", epoch, " loss ", loss_sum, " phases[s] sample=", t_sample,
               " fwd=", t_fwd, " bwd=", t_bwd, " opt=", t_opt);
    }
    par::sample_pool_gauges();  // epoch-boundary pool gauges (DESIGN.md §8)
    // Tagged model="baseline" so both trainers' records can share one file;
    // full-graph baselines have no batch-assembly phase and no validation.
    run_log.write({.model = "baseline", .task = target_mode_name(mode), .epoch = epoch,
                   .epochs_total = options.epochs,
                   .loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0,
                   .lr = static_cast<double>(optimizer.lr()), .batches = steps,
                   .samples = total_pairs, .t_sample_s = t_sample, .t_fwd_s = t_fwd,
                   .t_bwd_s = t_bwd, .t_opt_s = t_opt, .elapsed_s = timer.seconds()});
  }
  model.set_training(false);
  return timer.seconds();
}

std::vector<float> baseline_predict(FullGraphBaseline& model, const CircuitDataset& test,
                                    const XcNormalizer& normalizer, TargetMode mode,
                                    std::vector<float>& values, bool link_task) {
  Pairs pairs;
  collect_targets(test, mode, pairs, values);
  model.set_training(false);
  InferenceGuard guard;
  const EdgeIndex edges = full_graph_edges(test.graph);
  Tensor emb = model.embed(test.graph, edges, normalizer);
  Tensor out = link_task ? ops::sigmoid(model.link_logits(emb, pairs))
                         : model.cap_predict(emb, pairs);
  std::vector<float> predictions;
  predictions.reserve(static_cast<std::size_t>(out.rows()));
  for (float v : out.data())
    predictions.push_back(link_task ? v : std::clamp(v, 0.0f, 1.0f));
  return predictions;
}

}  // namespace

XcNormalizer fit_full_graph_normalizer(std::span<const CircuitDataset* const> train) {
  XcNormalizer normalizer;
  for (const CircuitDataset* ds : train) normalizer.fit(ds->graph.xc);
  return normalizer;
}

double train_baseline_link(FullGraphBaseline& model,
                           std::span<const CircuitDataset* const> train,
                           const XcNormalizer& normalizer,
                           const BaselineTrainOptions& options) {
  return run_baseline_training(model, train, normalizer, options, TargetMode::kLinkLabels);
}

double train_baseline_edge_regression(FullGraphBaseline& model,
                                      std::span<const CircuitDataset* const> train,
                                      const XcNormalizer& normalizer,
                                      const BaselineTrainOptions& options) {
  return run_baseline_training(model, train, normalizer, options, TargetMode::kEdgeCaps);
}

double train_baseline_node_regression(FullGraphBaseline& model,
                                      std::span<const CircuitDataset* const> train,
                                      const XcNormalizer& normalizer,
                                      const BaselineTrainOptions& options) {
  return run_baseline_training(model, train, normalizer, options, TargetMode::kNodeCaps);
}

BinaryMetrics evaluate_baseline_link(FullGraphBaseline& model, const CircuitDataset& test,
                                     const XcNormalizer& normalizer) {
  std::vector<float> labels;
  const std::vector<float> scores =
      baseline_predict(model, test, normalizer, TargetMode::kLinkLabels, labels, true);
  return binary_metrics(scores, labels);
}

RegressionMetrics evaluate_baseline_edge(FullGraphBaseline& model, const CircuitDataset& test,
                                         const XcNormalizer& normalizer) {
  std::vector<float> targets;
  const std::vector<float> preds =
      baseline_predict(model, test, normalizer, TargetMode::kEdgeCaps, targets, false);
  return regression_metrics(preds, targets);
}

RegressionMetrics evaluate_baseline_node(FullGraphBaseline& model, const CircuitDataset& test,
                                         const XcNormalizer& normalizer) {
  std::vector<float> targets;
  const std::vector<float> preds =
      baseline_predict(model, test, normalizer, TargetMode::kNodeCaps, targets, false);
  return regression_metrics(preds, targets);
}

}  // namespace cgps
