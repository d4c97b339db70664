#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace cgps {
namespace {

// Minimize ||x - target||^2; the optimizer must converge.
template <typename MakeOpt>
double optimize_quadratic(MakeOpt make_opt, int steps) {
  Tensor x = Tensor::from_vector({5.0f, -3.0f, 2.0f}, 1, 3, true);
  Tensor target = Tensor::from_vector({1.0f, 1.0f, 1.0f}, 1, 3);
  auto opt = make_opt(std::vector<Tensor>{x});
  double loss_value = 0.0;
  for (int i = 0; i < steps; ++i) {
    Tensor loss = ops::mse_loss(x, target);
    opt->zero_grad();
    loss.backward();
    opt->step();
    loss_value = loss.item();
  }
  return loss_value;
}

TEST(Adam, ConvergesOnQuadratic) {
  const double loss = optimize_quadratic(
      [](std::vector<Tensor> p) { return std::make_unique<Adam>(std::move(p), 0.1f); }, 300);
  EXPECT_LT(loss, 1e-5);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Tensor x = Tensor::from_vector({10.0f}, 1, 1, true);
  Adam opt({x}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 500; ++i) {
    // Zero data-loss gradient; only weight decay acts.
    opt.zero_grad();
    opt.step();
  }
  EXPECT_LT(std::fabs(x.data()[0]), 1.0f);
}

TEST(Optimizer, ZeroGradClears) {
  Tensor x = Tensor::from_vector({1.0f}, 1, 1, true);
  Tensor loss = ops::mse_loss(x, Tensor::scalar(0.0f));
  loss.backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  Adam opt({x}, 0.1f);
  opt.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Tensor x = Tensor::from_vector({3.0f, 4.0f}, 1, 2, true);
  auto g = x.grad();
  g[0] = 3.0f;
  g[1] = 4.0f;  // norm 5
  Adam opt({x}, 0.1f);
  const double norm = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5);
}

TEST(Optimizer, ClipGradNormLeavesSmallGradients) {
  Tensor x = Tensor::from_vector({1.0f}, 1, 1, true);
  x.grad()[0] = 0.5f;
  Adam opt({x}, 0.1f);
  opt.clip_grad_norm(10.0);
  EXPECT_NEAR(x.grad()[0], 0.5f, 1e-6);
}

}  // namespace
}  // namespace cgps
