// First-order optimizers over flat parameter lists.
#pragma once

#include "tensor/tensor.hpp"

#include <vector>

namespace cgps {

// Common interface: step() applies accumulated gradients, zero_grad() clears.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad();

  // Clip gradients to a global L2 norm; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f, float weight_decay = 0.0f);
  void step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace cgps
