#include "exec/runner.hpp"

#include "exec/gps_program.hpp"
#include "exec/plan.hpp"
#include "util/trace.hpp"

#include <cstddef>

namespace cgps::exec {

namespace {
std::size_t slot_of(bool training, LossKind loss) {
  return (static_cast<std::size_t>(training) << 2) | static_cast<std::size_t>(loss);
}
}  // namespace

PlanRunner::PlanRunner(CircuitGps& model) : model_(model) {}

void PlanRunner::check_freeze_mask() {
  // The handles outlive every state change the runner meets: checkpoint
  // loads, copy_state and reset_head copy into these same tensors.
  if (params_.empty()) params_ = model_.parameters();
  bool same = rg_mask_.size() == params_.size();
  for (std::size_t i = 0; same && i < params_.size(); ++i)
    same = rg_mask_[i] == static_cast<char>(params_[i].requires_grad());
  if (same) return;
  rg_mask_.clear();
  for (const Tensor& p : params_) rg_mask_.push_back(static_cast<char>(p.requires_grad()));
  for (auto& entry : cache_) entry.reset();
  last_ = nullptr;
}

Executor& PlanRunner::executor_for(bool training, LossKind loss) {
  check_freeze_mask();
  std::unique_ptr<Executor>& entry = cache_[slot_of(training, loss)];
  if (entry == nullptr) {
    const TraceSpan span("exec.plan_build");
    entry = std::make_unique<Executor>(compile(build_program(model_, training, loss)));
  }
  return *entry;
}

float PlanRunner::forward_loss(const SubgraphBatch& batch, const std::vector<float>& values,
                               float alpha, bool link_task) {
  const LossKind loss = link_task  ? LossKind::kBce
                        : alpha > 0.0f ? LossKind::kWeightedMse
                                       : LossKind::kMse;
  Executor& exec = executor_for(/*training=*/true, loss);
  target_.assign(values.begin(), values.end());
  const float* weight = nullptr;
  if (loss == LossKind::kWeightedMse) {
    weight_.resize(target_.size());
    for (std::size_t i = 0; i < target_.size(); ++i) weight_[i] = 1.0f + alpha * target_[i];
    weight = weight_.data();
  }
  exec.bind(batch, target_.data(), weight);
  {
    const TraceSpan span("exec.run_fwd");
    exec.run_fwd(model_.rng());
  }
  last_ = &exec;
  return exec.value(exec.plan().prog.loss)[0];
}

void PlanRunner::backward() {
  const TraceSpan span("exec.run_bwd");
  last_->run_bwd();
}

const float* PlanRunner::predict(const SubgraphBatch& batch, std::int64_t* rows) {
  Executor& exec = executor_for(/*training=*/false, LossKind::kNone);
  exec.bind(batch, nullptr, nullptr);
  {
    const TraceSpan span("exec.run_fwd");
    exec.run_fwd(model_.rng());
  }
  const int out = exec.plan().prog.output;
  *rows = exec.node_rows(out);
  return exec.value(out);
}

}  // namespace cgps::exec
