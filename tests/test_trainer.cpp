#include "train/trainer.hpp"

#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

namespace cgps {
namespace {

CircuitDataset& small_dataset() {
  static CircuitDataset ds = [] {
    DatasetOptions options;
    options.seed = 5;
    return build_dataset(gen::DatasetId::kTimingControl, options);
  }();
  return ds;
}

GpsConfig tiny_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.dropout = 0.0f;
  c.attn = AttnKind::kNone;  // fastest configuration for tests
  return c;
}

TEST(NormalizeCap, WindowMapping) {
  EXPECT_EQ(normalize_cap(0.0), 0.0f);
  EXPECT_EQ(normalize_cap(1e-22), 0.0f);
  EXPECT_NEAR(normalize_cap(1e-18), 0.5f, 1e-5);
  EXPECT_NEAR(normalize_cap(1e-15), 1.0f, 1e-5);
  EXPECT_NEAR(normalize_cap(1e-12), 1.0f, 1e-5);  // clipped
}

TEST(NormalizeCap, RoundTripInsideWindow) {
  for (double c : {3e-21, 1e-19, 4.2e-18, 7e-16}) {
    EXPECT_NEAR(denormalize_cap(normalize_cap(c)), c, c * 1e-3);
  }
  EXPECT_EQ(denormalize_cap(0.0f), 0.0);
}

TEST(TaskDataTest, LinkTaskAlignment) {
  Rng rng(1);
  const TaskData data = TaskData::for_links(small_dataset(), {}, 50, rng);
  EXPECT_LE(data.size(), 50);
  EXPECT_GT(data.size(), 0);
  EXPECT_EQ(data.subgraphs.size(), data.labels.size());
  EXPECT_EQ(data.subgraphs.size(), data.targets.size());
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    if (data.labels[i] < 0.5f) {
      EXPECT_EQ(data.targets[i], 0.0f);
    }
  }
}

TEST(TaskDataTest, EdgeRegressionPositivesOnly) {
  Rng rng(2);
  const TaskData data = TaskData::for_edge_regression(small_dataset(), {}, 50, rng);
  EXPECT_GT(data.size(), 0);
  for (float t : data.targets) EXPECT_GT(t, 0.0f);
}

TEST(TaskDataTest, NodeTaskTwoHop) {
  Rng rng(3);
  SubgraphOptions options;
  options.hops = 2;
  const TaskData data = TaskData::for_nodes(small_dataset(), options, 20, rng);
  EXPECT_GT(data.size(), 0);
  for (const Subgraph& sg : data.subgraphs) EXPECT_EQ(sg.second_anchor, 0);
}

TEST(FitNormalizerTest, CoversSubgraphNodes) {
  Rng rng(4);
  const TaskData data = TaskData::for_links(small_dataset(), {}, 30, rng);
  const TaskData* tasks[] = {&data};
  const XcNormalizer norm = fit_normalizer(tasks);
  EXPECT_TRUE(norm.fitted());
}

TEST(Training, LinkPredictionLearnsOnTrainingSet) {
  Rng rng(6);
  const TaskData train = TaskData::for_links(small_dataset(), {}, 160, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  GpsConfig config = tiny_config();
  CircuitGps model(config);

  const BinaryMetrics before = evaluate_link_prediction(model, norm, train);
  TrainOptions options;
  options.epochs = 4;
  options.batch_size = 16;
  options.lr = 3e-3f;
  const double seconds = train_link_prediction(model, norm, tasks, options);
  EXPECT_GT(seconds, 0.0);
  const BinaryMetrics after = evaluate_link_prediction(model, norm, train);
  EXPECT_GT(after.auc, before.auc - 0.05);  // must not get worse
  EXPECT_GT(after.auc, 0.75);               // and must actually learn
}

TEST(Training, RegressionReducesMae) {
  Rng rng(7);
  const TaskData train = TaskData::for_edge_regression(small_dataset(), {}, 120, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  CircuitGps model(tiny_config());
  const RegressionMetrics before = evaluate_regression(model, norm, train);
  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 16;
  const double seconds = train_regression(model, norm, tasks, options);
  EXPECT_GT(seconds, 0.0);
  const RegressionMetrics after = evaluate_regression(model, norm, train);
  EXPECT_LT(after.mae, before.mae);
}

TEST(Training, HeadOnlyFineTuneTouchesOnlyHead) {
  Rng rng(8);
  const TaskData train = TaskData::for_edge_regression(small_dataset(), {}, 40, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  CircuitGps model(tiny_config());
  // Snapshot backbone weights.
  std::vector<std::vector<float>> backbone_before;
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("head_", 0) != 0)
      backbone_before.emplace_back(p.data().begin(), p.data().end());
  }
  model.freeze_backbone();
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  train_regression(model, norm, tasks, options);

  std::size_t k = 0;
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("head_", 0) == 0) continue;
    const auto& before = backbone_before[k++];
    for (std::size_t j = 0; j < before.size(); ++j) EXPECT_EQ(before[j], p.data()[j]);
  }
}

TEST(Training, PredictRegressionInUnitInterval) {
  Rng rng(9);
  const TaskData data = TaskData::for_edge_regression(small_dataset(), {}, 30, rng);
  const TaskData* tasks[] = {&data};
  const XcNormalizer norm = fit_normalizer(tasks);
  CircuitGps model(tiny_config());
  const auto preds = predict_regression(model, norm, data);
  EXPECT_EQ(preds.size(), static_cast<std::size_t>(data.size()));
  for (float p : preds) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

// Set an environment variable for one scope, clearing it on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { ::setenv(name, value, 1); }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

// The trainer's former eager engine: per-op autograd forward, loss and
// backward, run through the same epoch plan, optimizer, early stopping and
// best-weight restore as run_training. It is the bitwise reference the
// planned trainer must reproduce under the scalar backend. A validation set
// here implies early stopping (early_stop_patience > 0).
std::vector<float> eager_inference(CircuitGps& model, const XcNormalizer& norm,
                                   const TaskData& test, int batch_size, bool link_task) {
  const BatchOptions options = batch_options_for(model.config());
  model.set_training(false);
  InferenceGuard guard;
  std::vector<float> scores;
  const std::size_t n = static_cast<std::size_t>(test.size());
  for (std::size_t start = 0; start < n; start += static_cast<std::size_t>(batch_size)) {
    std::vector<const Subgraph*> refs;
    for (std::size_t i = start; i < std::min(n, start + static_cast<std::size_t>(batch_size));
         ++i)
      refs.push_back(&test.subgraphs[i]);
    Tensor out = model.forward(make_batch(refs, test.graph->xc, norm, options));
    if (link_task) out = ops::sigmoid(out);
    for (float v : out.data()) scores.push_back(link_task ? v : std::clamp(v, 0.0f, 1.0f));
  }
  return scores;
}

struct Weights {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> buffers;
};

Weights weights_of(const CircuitGps& model) {
  Weights w;
  for (const auto& [name, p] : model.named_parameters())
    w.params.emplace_back(p.data().begin(), p.data().end());
  for (const auto& [name, b] : model.named_buffers()) w.buffers.push_back(*b);
  return w;
}

TrainStats eager_training(CircuitGps& model, const XcNormalizer& norm, const TaskData& train,
                          const TaskData* validation, const TrainOptions& options,
                          bool link_task) {
  const BatchOptions batch_options = batch_options_for(model.config());
  Adam optimizer(model.trainable_parameters(), options.lr, 0.9f, 0.999f, 1e-8f,
                 options.weight_decay);
  Rng rng(model.config().seed ^ 0xA5A5A5A5ULL);
  std::vector<std::size_t> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);

  TrainStats stats;
  stats.best_validation = std::numeric_limits<double>::quiet_NaN();
  Weights best;
  double best_score = -std::numeric_limits<double>::infinity();
  int since_best = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    model.set_training(true);
    rng.shuffle(order);
    std::vector<std::size_t> starts;
    for (std::size_t s = 0; s < order.size(); s += static_cast<std::size_t>(options.batch_size))
      starts.push_back(s);
    rng.shuffle(starts);
    for (std::size_t start : starts) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(options.batch_size));
      std::vector<const Subgraph*> refs;
      std::vector<float> values;
      for (std::size_t k = start; k < end; ++k) {
        refs.push_back(&train.subgraphs[order[k]]);
        values.push_back(link_task ? train.labels[order[k]] : train.targets[order[k]]);
      }
      Tensor out = model.forward(make_batch(refs, train.graph->xc, norm, batch_options));
      Tensor target = Tensor::from_vector(std::move(values), out.rows(), 1);
      Tensor loss;
      if (link_task) {
        loss = ops::bce_with_logits(out, target);
      } else if (options.target_weight_alpha > 0.0f) {
        std::vector<float> weights(static_cast<std::size_t>(out.rows()));
        for (std::int64_t i = 0; i < out.rows(); ++i)
          weights[static_cast<std::size_t>(i)] =
              1.0f + options.target_weight_alpha * target.at(i, 0);
        Tensor w = Tensor::from_vector(std::move(weights), out.rows(), 1);
        loss = ops::mean_all(ops::mul(w, ops::square(ops::sub(out, target))));
      } else {
        loss = ops::mse_loss(out, target);
      }
      optimizer.zero_grad();
      loss.backward();
      optimizer.clip_grad_norm(options.grad_clip);
      optimizer.step();
    }
    stats.epochs_run = epoch + 1;
    if (validation == nullptr) continue;
    const std::vector<float> out = eager_inference(model, norm, *validation, 64, link_task);
    const double score = link_task ? binary_metrics(out, validation->labels).auc
                                   : -regression_metrics(out, validation->targets).mae;
    if (score > best_score) {
      best_score = score;
      stats.best_validation = score;
      since_best = 0;
      best = weights_of(model);
    } else if (++since_best >= options.early_stop_patience) {
      break;
    }
  }
  if (!best.params.empty()) {
    std::size_t i = 0;
    for (auto& [name, p] : model.named_parameters()) {
      std::copy(best.params[i].begin(), best.params[i].end(), p.data().begin());
      ++i;
    }
    i = 0;
    for (auto& [name, b] : model.named_buffers()) *b = best.buffers[i++];
  }
  model.set_training(false);
  return stats;
}

void expect_bits_equal(const std::vector<float>& a, const std::vector<float>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " [" << i << "]";
}

void expect_same_weights(const CircuitGps& got, const CircuitGps& want, const char* stage) {
  const Weights g = weights_of(got);
  const Weights w = weights_of(want);
  ASSERT_EQ(g.params.size(), w.params.size());
  ASSERT_EQ(g.buffers.size(), w.buffers.size());
  for (std::size_t i = 0; i < g.params.size(); ++i)
    expect_bits_equal(g.params[i], w.params[i], std::string(stage) + " param");
  for (std::size_t i = 0; i < g.buffers.size(); ++i)
    expect_bits_equal(g.buffers[i], w.buffers[i], std::string(stage) + " buffer");
}

// Pre-train on links, fine-tune on edge regression with a weighted loss,
// validation and early stopping, then score both tasks: every parameter, BN
// buffer and score of the trainer's public API must equal the eager loop's.
TEST(Training, MatchesEagerReferenceBitwiseUnderScalarBackend) {
  const ScopedEnv backend("CIRCUITGPS_BACKEND", "scalar");
  Rng rng(10);
  const TaskData links = TaskData::for_links(small_dataset(), {}, 48, rng);
  const TaskData edges = TaskData::for_edge_regression(small_dataset(), {}, 40, rng);
  const TaskData val = TaskData::for_edge_regression(small_dataset(), {}, 16, rng);
  const TaskData* link_tasks[] = {&links};
  const TaskData* edge_tasks[] = {&edges};
  const XcNormalizer norm = fit_normalizer(link_tasks);

  GpsConfig config = tiny_config();
  config.attn = AttnKind::kPerformer;
  config.dropout = 0.1f;
  CircuitGps planned(config);
  CircuitGps eager(config);

  TrainOptions pre;
  pre.epochs = 2;
  pre.batch_size = 16;
  train_link_prediction(planned, norm, link_tasks, pre);
  eager_training(eager, norm, links, nullptr, pre, /*link_task=*/true);
  expect_same_weights(planned, eager, "pre-train");

  TrainOptions fine;
  fine.epochs = 6;
  fine.batch_size = 8;
  fine.lr = 2e-2f;
  fine.target_weight_alpha = 0.5f;
  fine.early_stop_patience = 1;
  const TrainStats got = train_regression_ex(planned, norm, edge_tasks, &val, fine);
  const TrainStats want = eager_training(eager, norm, edges, &val, fine, /*link_task=*/false);
  EXPECT_LT(want.epochs_run, fine.epochs) << "early stopping must cut the run short";
  EXPECT_EQ(got.epochs_run, want.epochs_run);
  EXPECT_EQ(got.best_validation, want.best_validation);
  expect_same_weights(planned, eager, "fine-tune");

  const BinaryMetrics link_got = evaluate_link_prediction(planned, norm, links);
  const BinaryMetrics link_want =
      binary_metrics(eager_inference(eager, norm, links, 64, true), links.labels);
  EXPECT_EQ(link_got.auc, link_want.auc);
  EXPECT_EQ(link_got.f1, link_want.f1);
  EXPECT_EQ(link_got.accuracy, link_want.accuracy);
  expect_bits_equal(predict_regression(planned, norm, val),
                    eager_inference(eager, norm, val, 64, false), "predict_regression");
}

}  // namespace
}  // namespace cgps
