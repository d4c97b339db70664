#include "tensor/optim.hpp"

#include <cmath>

namespace cgps {

void Optimizer::zero_grad() {
  for (Tensor& p : params_) p.zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
  double total = 0.0;
  for (Tensor& p : params_) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Tensor& p : params_) {
      for (float& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2, float eps,
           float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].data().size(), 0.0f);
    v_[i].assign(params_[i].data().size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto value = params_[i].data();
    auto grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < value.size(); ++j) {
      const float g = grad[j] + weight_decay_ * value[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace cgps
