// PlanRunner: the plan-once/run-many front end through which the trainer and
// the serve core run every forward and backward (DESIGN.md §10). Records +
// compiles one Plan per (training, loss-kind) pair on first use, then
// re-binds the cached Executor to each batch. The cache is invalidated when the parameter freeze mask
// changes (freeze_backbone / reset_head between pre-training and
// fine-tuning), since requires_grad flags are baked into the compiled
// backward schedule.
#pragma once

#include "exec/executor.hpp"
#include "gps/model.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace cgps::exec {

class PlanRunner {
 public:
  explicit PlanRunner(CircuitGps& model);

  // One training forward: picks the loss (link task -> BCE-with-logits,
  // alpha > 0 -> weighted MSE, else MSE), binds, runs the forward schedule,
  // and returns the scalar loss. `values` holds one label/target per graph.
  float forward_loss(const SubgraphBatch& batch, const std::vector<float>& values,
                     float alpha, bool link_task);

  // Backward for the most recent forward_loss. Parameter gradients accumulate
  // into the model tensors (call Optimizer::zero_grad first, as with eager).
  void backward();

  // Inference forward (no loss, training=false). Returns the per-graph output
  // column (`*rows` graphs); the pointer is valid until the next call.
  const float* predict(const SubgraphBatch& batch, std::int64_t* rows);

 private:
  Executor& executor_for(bool training, LossKind loss);
  void check_freeze_mask();

  CircuitGps& model_;
  // Slot = (training << 2) | loss kind; only 4 combinations occur in practice
  // (train x {bce, mse, wmse}, eval x none) but the flat array keeps lookup
  // trivial.
  std::array<std::unique_ptr<Executor>, 8> cache_;
  std::vector<char> rg_mask_;      // parameter requires_grad snapshot
  std::vector<float> target_;      // per-batch labels/targets (kept alive through bind)
  std::vector<float> weight_;      // kWeightedMse per-row weights
  Executor* last_ = nullptr;       // executor of the most recent forward_loss
};

}  // namespace cgps::exec
