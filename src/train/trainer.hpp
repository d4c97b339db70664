// Training / evaluation loops for CircuitGPS on the three paper tasks, plus
// the fine-tuning strategies of §III-E.
#pragma once

#include "gps/model.hpp"
#include "train/metrics.hpp"
#include "train/task_data.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>

namespace cgps {

class JsonlFile;

enum class LrSchedule : std::int8_t {
  kConstant = 0,
  kCosine = 1,  // cosine decay from lr to lr/20 over the epochs
};

struct TrainOptions {
  int epochs = 5;
  int batch_size = 24;
  float lr = 2e-3f;
  LrSchedule lr_schedule = LrSchedule::kConstant;
  float grad_clip = 2.0f;
  float weight_decay = 0.0f;
  // Regression only: per-sample loss weight 1 + alpha * target. Raising
  // alpha counteracts log-space regression-to-mean on the large couplings
  // that dominate switching energy (used by the Fig. 4 pipeline).
  float target_weight_alpha = 0.0f;
  // Early stopping (only with the *_ex entry points and a validation set):
  // stop after this many epochs without validation improvement and restore
  // the best weights. 0 disables.
  int early_stop_patience = 0;
  bool verbose = false;
};

// Detailed result of a training run.
struct TrainStats {
  double seconds = 0.0;
  int epochs_run = 0;
  // Validation score at the restored-best epoch: AUC for link prediction,
  // negative MAE for regression. NaN when no validation set was given.
  double best_validation = 0.0;
};

// Derive batch-construction options from a model config.
BatchOptions batch_options_for(const GpsConfig& config);

// Fit the X_C min-max normalizer over every node appearing in the given
// training task datasets (fit on training data only, as the paper does).
XcNormalizer fit_normalizer(std::span<const TaskData* const> train);

// Pre-train on link prediction (binary cross entropy on logits). Returns
// wall-clock training seconds.
double train_link_prediction(CircuitGps& model, const XcNormalizer& normalizer,
                             std::span<const TaskData* const> train,
                             const TrainOptions& options);

// Train capacitance regression (MSE on normalized caps). Used both for
// from-scratch regression and for the fine-tuning stage; call
// model.freeze_backbone() beforehand for head-only fine-tuning.
double train_regression(CircuitGps& model, const XcNormalizer& normalizer,
                        std::span<const TaskData* const> train, const TrainOptions& options);

// Extended entry points: optional validation set enabling early stopping
// (TrainOptions::early_stop_patience) and best-weights restoration.
TrainStats train_link_prediction_ex(CircuitGps& model, const XcNormalizer& normalizer,
                                    std::span<const TaskData* const> train,
                                    const TaskData* validation, const TrainOptions& options);
TrainStats train_regression_ex(CircuitGps& model, const XcNormalizer& normalizer,
                               std::span<const TaskData* const> train,
                               const TaskData* validation, const TrainOptions& options);

// Zero-shot evaluation (model unchanged, inference mode).
BinaryMetrics evaluate_link_prediction(CircuitGps& model, const XcNormalizer& normalizer,
                                       const TaskData& test, int batch_size = 64);
RegressionMetrics evaluate_regression(CircuitGps& model, const XcNormalizer& normalizer,
                                      const TaskData& test, int batch_size = 64);

// Raw per-sample predictions (normalized caps clamped to [0, 1]).
std::vector<float> predict_regression(CircuitGps& model, const XcNormalizer& normalizer,
                                      const TaskData& test, int batch_size = 64);

// One epoch's cgps-train-v1 record (DESIGN.md §8), filled by the CircuitGPS
// and the baseline trainers alike.
struct EpochRecord {
  const char* model = "";
  const char* task = "";
  int epoch = 0, epochs_total = 0;
  double loss = 0.0, lr = 0.0;
  std::int64_t batches = 0, samples = 0;
  double t_sample_s = 0.0, t_batch_s = 0.0, t_fwd_s = 0.0, t_bwd_s = 0.0, t_opt_s = 0.0;
  double val_score = std::numeric_limits<double>::quiet_NaN();  // null when NaN
  double elapsed_s = 0.0;
};

// A training run's per-epoch JSONL telemetry, enabled by CIRCUITGPS_RUN_LOG;
// write() is a no-op when the variable is unset or the path cannot be
// opened. Records carry values the loop already computes, so the training
// loop is unchanged either way.
class RunLog {
 public:
  RunLog();
  ~RunLog();

  // Appends the record with the run id, pool width, RSS and the registry's
  // counters and gauges.
  void write(const EpochRecord& record) const;

 private:
  std::unique_ptr<JsonlFile> file_;
  std::string run_id_;
};

}  // namespace cgps
