// Property-based sweeps over tensor ops: algebraic identities that must hold
// for arbitrary shapes and random contents.
#include "tensor/ops.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace cgps {
namespace {

struct Shape {
  std::int64_t rows;
  std::int64_t cols;
};

class TensorProperty : public ::testing::TestWithParam<Shape> {
 protected:
  Tensor random(std::int64_t r, std::int64_t c, float scale = 1.0f) {
    return Tensor::randn(r, c, scale, rng_);
  }
  Rng rng_{static_cast<std::uint64_t>(GetParam().rows * 1000 + GetParam().cols)};
};

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i)
    EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "at flat index " << i;
}

TEST_P(TensorProperty, TransposeOfProductIsReversedProduct) {
  const auto [m, n] = GetParam();
  Tensor a = random(m, n);
  Tensor b = random(n, m + 1);
  expect_close(ops::transpose(ops::matmul(a, b)),
               ops::matmul(ops::transpose(b), ops::transpose(a)));
}

TEST_P(TensorProperty, TransposeIsInvolution) {
  const auto [m, n] = GetParam();
  Tensor a = random(m, n);
  expect_close(ops::transpose(ops::transpose(a)), a, 0.0f);
}

TEST_P(TensorProperty, MatmulDistributesOverAddition) {
  const auto [m, n] = GetParam();
  Tensor a = random(m, n);
  Tensor b = random(m, n);
  Tensor c = random(n, 3);
  expect_close(ops::matmul(ops::add(a, b), c),
               ops::add(ops::matmul(a, c), ops::matmul(b, c)), 1e-3f);
}

TEST_P(TensorProperty, SoftmaxInvariantToRowShift) {
  const auto [m, n] = GetParam();
  Tensor x = random(m, n, 2.0f);
  Tensor shift = random(m, 1, 3.0f);
  expect_close(ops::softmax_rows(x), ops::softmax_rows(ops::add_colvec(x, shift)), 1e-4f);
}

TEST_P(TensorProperty, ConcatThenSliceRecoversParts) {
  const auto [m, n] = GetParam();
  Tensor a = random(m, n);
  Tensor b = random(m + 2, n);
  const Tensor parts[] = {a, b};
  Tensor joined = ops::concat_rows(parts);
  expect_close(ops::slice_rows(joined, 0, m), a, 0.0f);
  expect_close(ops::slice_rows(joined, m, m + 2), b, 0.0f);
}

TEST_P(TensorProperty, GatherScatterAdjoint) {
  // <scatter_add(x, idx, N), y> == <x, gather(y, idx)> — the defining
  // adjoint relation that makes the backward passes of the two ops each
  // other's transpose.
  const auto [m, n] = GetParam();
  const std::int64_t out_rows = m + 3;
  Tensor x = random(m, n);
  Tensor y = random(out_rows, n);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i)
    idx[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(rng_.uniform_int(
        static_cast<std::uint64_t>(out_rows)));

  const double lhs = static_cast<double>(
      ops::sum_all(ops::mul(ops::scatter_add_rows(x, idx, out_rows), y)).item());
  const double rhs =
      static_cast<double>(ops::sum_all(ops::mul(x, ops::gather_rows(y, idx))).item());
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST_P(TensorProperty, RowSumViaMatmulWithOnes) {
  const auto [m, n] = GetParam();
  Tensor x = random(m, n);
  Tensor ones = Tensor::full(n, 1, 1.0f);
  expect_close(ops::row_sum(x), ops::matmul(x, ones), 1e-4f);
}

TEST_P(TensorProperty, SigmoidSymmetry) {
  const auto [m, n] = GetParam();
  Tensor x = random(m, n, 2.0f);
  // sigmoid(-x) == 1 - sigmoid(x)
  Tensor lhs = ops::sigmoid(ops::neg(x));
  Tensor rhs = ops::add_scalar(ops::neg(ops::sigmoid(x)), 1.0f);
  expect_close(lhs, rhs, 1e-5f);
}

TEST_P(TensorProperty, MeanAllIsSumOverCount) {
  const auto [m, n] = GetParam();
  Tensor x = random(m, n);
  EXPECT_NEAR(ops::mean_all(x).item(),
              ops::sum_all(x).item() / static_cast<float>(m * n), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorProperty,
                         ::testing::Values(Shape{1, 1}, Shape{1, 7}, Shape{5, 1}, Shape{4, 4},
                                           Shape{9, 3}, Shape{16, 11}),
                         [](const auto& suite_info) {
                           return std::to_string(suite_info.param.rows) + "x" +
                                  std::to_string(suite_info.param.cols);
                         });

}  // namespace
}  // namespace cgps
