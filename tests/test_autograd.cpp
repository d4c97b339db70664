// Finite-difference gradient verification for every differentiable op.
#include "tensor/gradcheck.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace cgps {
namespace {

Tensor random_input(std::int64_t r, std::int64_t c, Rng& rng, float scale = 1.0f) {
  Tensor t = Tensor::randn(r, c, scale, rng, /*requires_grad=*/true);
  return t;
}

void expect_gradcheck(const std::function<Tensor()>& fn, std::vector<Tensor> inputs) {
  const GradCheckResult result = grad_check(fn, std::move(inputs));
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error << " abs "
                         << result.max_abs_error;
}

TEST(Autograd, ElementwiseBinaryOps) {
  Rng rng(1);
  Tensor a = random_input(3, 4, rng);
  Tensor b = random_input(3, 4, rng);
  // Keep divisors away from zero.
  for (float& v : b.data()) v += (v >= 0 ? 2.0f : -2.0f);
  expect_gradcheck([&] { return ops::sum_all(ops::mul(ops::add(a, b), ops::sub(a, b))); },
                   {a, b});
  expect_gradcheck([&] { return ops::sum_all(ops::div(a, b)); }, {a, b});
}

TEST(Autograd, BroadcastOps) {
  Rng rng(2);
  Tensor x = random_input(4, 3, rng);
  Tensor row = random_input(1, 3, rng);
  Tensor col = random_input(4, 1, rng);
  for (float& v : col.data()) v += (v >= 0 ? 2.0f : -2.0f);
  expect_gradcheck([&] { return ops::sum_all(ops::add_rowvec(x, row)); }, {x, row});
  expect_gradcheck([&] { return ops::sum_all(ops::add_colvec(x, col)); }, {x, col});
  expect_gradcheck([&] { return ops::sum_all(ops::sub_colvec(x, col)); }, {x, col});
  expect_gradcheck([&] { return ops::sum_all(ops::mul_colvec(x, col)); }, {x, col});
  expect_gradcheck([&] { return ops::sum_all(ops::div_colvec(x, col)); }, {x, col});
}

TEST(Autograd, UnaryOps) {
  Rng rng(3);
  Tensor x = random_input(3, 3, rng);
  // Shift away from the relu kink.
  for (float& v : x.data()) v = v * 0.5f + (v >= 0 ? 1.0f : -1.0f);

  expect_gradcheck([&] { return ops::sum_all(ops::neg(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::relu(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::sigmoid(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::exp_op(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::square(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::scale(x, -1.7f)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::add_scalar(x, 3.0f)); }, {x});
}

TEST(Autograd, MatmulAndTranspose) {
  Rng rng(4);
  Tensor a = random_input(3, 4, rng);
  Tensor b = random_input(4, 2, rng);
  expect_gradcheck([&] { return ops::sum_all(ops::square(ops::matmul(a, b))); }, {a, b});
  expect_gradcheck([&] { return ops::sum_all(ops::square(ops::transpose(a))); }, {a});
}

TEST(Autograd, ConcatSliceGatherScatter) {
  Rng rng(5);
  Tensor a = random_input(3, 2, rng);
  Tensor b = random_input(3, 3, rng);
  expect_gradcheck(
      [&] {
        const Tensor parts[] = {a, b};
        return ops::sum_all(ops::square(ops::concat_cols(parts)));
      },
      {a, b});
  expect_gradcheck(
      [&] {
        const Tensor parts[] = {a, a};
        return ops::sum_all(ops::square(ops::concat_rows(parts)));
      },
      {a});
  expect_gradcheck([&] { return ops::sum_all(ops::square(ops::slice_rows(b, 1, 2))); }, {b});
  expect_gradcheck(
      [&] { return ops::sum_all(ops::square(ops::gather_rows(b, {2, 0, 0, 1}))); }, {b});
  expect_gradcheck(
      [&] { return ops::sum_all(ops::square(ops::scatter_add_rows(b, {1, 0, 1}, 2))); }, {b});
  expect_gradcheck(
      [&] { return ops::sum_all(ops::square(ops::segment_mean(b, {0, 1, 1}, 2))); }, {b});
}

TEST(Autograd, ReductionsAndSoftmax) {
  Rng rng(6);
  Tensor x = random_input(3, 4, rng);
  expect_gradcheck([&] { return ops::mean_all(ops::square(x)); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::square(ops::row_sum(x))); }, {x});
  expect_gradcheck([&] { return ops::sum_all(ops::square(ops::softmax_rows(x))); }, {x});
}

TEST(Autograd, BatchnormTraining) {
  Rng rng(7);
  Tensor x = random_input(8, 3, rng);
  Tensor gamma = Tensor::from_vector({1.0f, 0.8f, 1.2f}, 1, 3, true);
  Tensor beta = Tensor::from_vector({0.1f, -0.2f, 0.0f}, 1, 3, true);
  std::vector<float> rm(3, 0.0f), rv(3, 1.0f);
  expect_gradcheck(
      [&] {
        // Reset running stats so every call sees identical state.
        std::vector<float> rm_local(3, 0.0f), rv_local(3, 1.0f);
        return ops::sum_all(
            ops::square(ops::batchnorm(x, gamma, beta, rm_local, rv_local, 0.1f, 1e-5f, true)));
      },
      {x, gamma, beta});
}

TEST(Autograd, BatchnormEval) {
  Rng rng(8);
  Tensor x = random_input(5, 2, rng);
  Tensor gamma = Tensor::from_vector({1.5f, 0.5f}, 1, 2, true);
  Tensor beta = Tensor::from_vector({0.0f, 1.0f}, 1, 2, true);
  std::vector<float> rm{0.2f, -0.1f}, rv{1.3f, 0.7f};
  expect_gradcheck(
      [&] {
        std::vector<float> rm_local = rm, rv_local = rv;
        return ops::sum_all(
            ops::square(ops::batchnorm(x, gamma, beta, rm_local, rv_local, 0.1f, 1e-5f, false)));
      },
      {x, gamma, beta});
}

TEST(Autograd, Losses) {
  Rng rng(9);
  Tensor logits = random_input(6, 1, rng);
  Tensor labels = Tensor::from_vector({1, 0, 1, 1, 0, 0}, 6, 1);
  expect_gradcheck([&] { return ops::bce_with_logits(logits, labels); }, {logits});

  Tensor pred = random_input(5, 1, rng);
  Tensor target = Tensor::randn(5, 1, 1.0f, rng);
  expect_gradcheck([&] { return ops::mse_loss(pred, target); }, {pred});

  Tensor ce_logits = random_input(4, 3, rng);
  expect_gradcheck([&] { return ops::softmax_cross_entropy(ce_logits, {0, 2, 1, 1}); },
                   {ce_logits});
}

TEST(Autograd, GradAccumulatesAcrossUses) {
  Tensor x = Tensor::from_vector({2.0f}, 1, 1, true);
  Tensor y = ops::add(ops::square(x), ops::scale(x, 3.0f));  // x^2 + 3x
  y.backward();
  EXPECT_NEAR(x.grad()[0], 2.0f * 2.0f + 3.0f, 1e-5);
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::from_vector({1, 2}, 1, 2, true);
  Tensor y = ops::scale(x, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Autograd, DiamondGraphTopologicalOrder) {
  Tensor x = Tensor::from_vector({3.0f}, 1, 1, true);
  Tensor a = ops::scale(x, 2.0f);
  Tensor b = ops::square(x);
  Tensor y = ops::sum_all(ops::mul(a, b));  // 2x * x^2 = 2x^3 -> dy/dx = 6x^2
  y.backward();
  EXPECT_NEAR(x.grad()[0], 6.0f * 9.0f, 1e-3);
}

TEST(Autograd, DropoutMaskConsistentInBackward) {
  Rng rng(11);
  Tensor x = Tensor::full(50, 1, 1.0f, true);
  Tensor y = ops::sum_all(ops::dropout(x, 0.5f, rng));
  y.backward();
  // Gradient must equal the applied mask (0 or 1/(1-p)).
  auto g = x.grad();
  for (float v : g) EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
}

}  // namespace
}  // namespace cgps
