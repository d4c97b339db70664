// Forward-value correctness for every op (gradients are covered in
// test_autograd.cpp), and kernels whose loop order changed against a copy of
// the loops they replaced.
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

namespace cgps {
namespace {

Tensor t22(float a, float b, float c, float d) {
  return Tensor::from_vector({a, b, c, d}, 2, 2);
}

TEST(TensorBasics, FactoriesAndAccess) {
  Tensor z = Tensor::zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::full(2, 2, 7.0f);
  EXPECT_EQ(f.at(1, 1), 7.0f);

  Tensor s = Tensor::scalar(3.0f);
  EXPECT_EQ(s.item(), 3.0f);
  EXPECT_THROW(f.item(), std::logic_error);

  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, 2, 2), std::invalid_argument);
}

TEST(TensorBasics, UndefinedTensorThrows) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.rows(), std::logic_error);
}

TEST(Ops, AddSubMulDiv) {
  Tensor a = t22(1, 2, 3, 4);
  Tensor b = t22(5, 6, 7, 8);
  EXPECT_EQ(ops::add(a, b).at(0, 0), 6.0f);
  EXPECT_EQ(ops::sub(a, b).at(1, 1), -4.0f);
  EXPECT_EQ(ops::mul(a, b).at(0, 1), 12.0f);
  EXPECT_FLOAT_EQ(ops::div(a, b).at(1, 0), 3.0f / 7.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros(2, 2);
  Tensor b = Tensor::zeros(2, 3);
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
  EXPECT_THROW(ops::matmul(a, Tensor::zeros(3, 2)), std::invalid_argument);
}

TEST(Ops, Broadcasts) {
  Tensor x = t22(1, 2, 3, 4);
  Tensor row = Tensor::from_vector({10, 20}, 1, 2);
  Tensor col = Tensor::from_vector({100, 200}, 2, 1);
  EXPECT_EQ(ops::add_rowvec(x, row).at(1, 1), 24.0f);
  EXPECT_EQ(ops::add_colvec(x, col).at(1, 0), 203.0f);
  EXPECT_EQ(ops::sub_colvec(x, col).at(0, 1), -98.0f);
  EXPECT_EQ(ops::mul_colvec(x, col).at(0, 0), 100.0f);
  EXPECT_FLOAT_EQ(ops::div_colvec(x, col).at(1, 1), 4.0f / 200.0f);
}

TEST(Ops, ScalarAndUnary) {
  Tensor x = t22(-1, 0, 1, 4);
  EXPECT_EQ(ops::scale(x, 2.0f).at(0, 0), -2.0f);
  EXPECT_EQ(ops::add_scalar(x, 1.0f).at(0, 0), 0.0f);
  EXPECT_EQ(ops::neg(x).at(0, 0), 1.0f);
  EXPECT_EQ(ops::relu(x).at(0, 0), 0.0f);
  EXPECT_EQ(ops::relu(x).at(1, 1), 4.0f);
  EXPECT_NEAR(ops::sigmoid(Tensor::scalar(0.0f)).item(), 0.5f, 1e-6);
  EXPECT_NEAR(ops::exp_op(Tensor::scalar(1.0f)).item(), std::exp(1.0f), 1e-5);
  EXPECT_EQ(ops::square(x).at(1, 1), 16.0f);
}

TEST(Ops, SigmoidNumericallyStableAtExtremes) {
  EXPECT_NEAR(ops::sigmoid(Tensor::scalar(-100.0f)).item(), 0.0f, 1e-6);
  EXPECT_NEAR(ops::sigmoid(Tensor::scalar(100.0f)).item(), 1.0f, 1e-6);
}

TEST(Ops, MatmulKnownProduct) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = Tensor::from_vector({7, 8, 9, 10, 11, 12}, 3, 2);
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::randn(4, 4, 1.0f, rng);
  Tensor eye = Tensor::zeros(4, 4);
  for (int i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Tensor c = ops::matmul(a, eye);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
}

TEST(Ops, Transpose) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor t = ops::transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_EQ(t.at(0, 1), 4.0f);
}

TEST(Ops, ConcatAndSlice) {
  Tensor a = t22(1, 2, 3, 4);
  Tensor b = Tensor::from_vector({9, 10}, 2, 1);
  const Tensor cols[] = {a, b};
  Tensor c = ops::concat_cols(cols);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_EQ(c.at(1, 2), 10.0f);

  const Tensor rows[] = {a, a};
  Tensor r = ops::concat_rows(rows);
  EXPECT_EQ(r.rows(), 4);
  EXPECT_EQ(r.at(3, 1), 4.0f);

  Tensor s = ops::slice_rows(r, 1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_THROW(ops::slice_rows(r, 3, 2), std::invalid_argument);
}

TEST(Ops, GatherScatterSegment) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor g = ops::gather_rows(x, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(2, 1), 6.0f);
  EXPECT_THROW(ops::gather_rows(x, {3}), std::invalid_argument);

  Tensor s = ops::scatter_add_rows(x, {1, 1, 0}, 2);
  EXPECT_EQ(s.at(1, 0), 4.0f);  // rows 0 and 1 summed
  EXPECT_EQ(s.at(0, 1), 6.0f);  // row 2

  Tensor mean = ops::segment_mean(x, {0, 0, 1}, 2);
  EXPECT_FLOAT_EQ(mean.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(mean.at(1, 1), 6.0f);
}

TEST(Ops, SegmentMeanEmptySegmentIsZero) {
  Tensor x = Tensor::from_vector({1, 2}, 1, 2);
  Tensor mean = ops::segment_mean(x, {1}, 3);
  EXPECT_EQ(mean.at(0, 0), 0.0f);
  EXPECT_EQ(mean.at(2, 1), 0.0f);
  EXPECT_EQ(mean.at(1, 1), 2.0f);
}

TEST(Ops, Reductions) {
  Tensor x = t22(1, 2, 3, 4);
  EXPECT_EQ(ops::sum_all(x).item(), 10.0f);
  EXPECT_EQ(ops::mean_all(x).item(), 2.5f);
  Tensor rs = ops::row_sum(x);
  EXPECT_EQ(rs.rows(), 2);
  EXPECT_EQ(rs.at(0, 0), 3.0f);
  EXPECT_EQ(rs.at(1, 0), 7.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::from_vector({1, 2, 3, -1, 0, 1000}, 2, 3);
  Tensor s = ops::softmax_rows(x);
  for (int i = 0; i < 2; ++i) {
    float sum = 0;
    for (int j = 0; j < 3; ++j) sum += s.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_NEAR(s.at(1, 2), 1.0f, 1e-5);  // large logit dominates, no overflow
}

TEST(Ops, DropoutTrainingMaskAndIdentity) {
  Rng rng(3);
  Tensor x = Tensor::full(100, 10, 1.0f);
  Tensor d0 = ops::dropout(x, 0.0f, rng);
  EXPECT_EQ(d0.ptr(), x.ptr());  // identity alias

  Tensor d = ops::dropout(x, 0.5f, rng);
  int zeros = 0;
  for (float v : d.data()) {
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 700);
  EXPECT_THROW(ops::dropout(x, 1.0f, rng), std::invalid_argument);
}

TEST(Ops, BatchnormNormalizesTrainingBatch) {
  Rng rng(5);
  Tensor x = Tensor::randn(256, 4, 3.0f, rng);
  for (std::int64_t i = 0; i < 256; ++i) x.at(i, 1) += 10.0f;
  Tensor gamma = Tensor::full(1, 4, 1.0f);
  Tensor beta = Tensor::zeros(1, 4);
  std::vector<float> rm(4, 0.0f), rv(4, 1.0f);
  Tensor y = ops::batchnorm(x, gamma, beta, rm, rv, 0.1f, 1e-5f, /*training=*/true);
  for (int j = 0; j < 4; ++j) {
    double mean = 0, var = 0;
    for (int i = 0; i < 256; ++i) mean += y.at(i, j);
    mean /= 256;
    for (int i = 0; i < 256; ++i) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 256;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  // Running stats moved toward batch stats.
  EXPECT_GT(rm[1], 0.5f);
}

TEST(Ops, BatchnormEvalUsesRunningStats) {
  Tensor x = Tensor::full(3, 2, 4.0f);
  Tensor gamma = Tensor::full(1, 2, 1.0f);
  Tensor beta = Tensor::zeros(1, 2);
  std::vector<float> rm{4.0f, 0.0f}, rv{1.0f, 1.0f};
  Tensor y = ops::batchnorm(x, gamma, beta, rm, rv, 0.1f, 0.0f, /*training=*/false);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-5);
  EXPECT_NEAR(y.at(0, 1), 4.0f, 1e-5);
}

TEST(Losses, BceMatchesReference) {
  Tensor logits = Tensor::from_vector({0.0f, 2.0f}, 2, 1);
  Tensor targets = Tensor::from_vector({1.0f, 0.0f}, 2, 1);
  // -log(sigmoid(0)) = log 2; -log(1-sigmoid(2)) = log(1+e^2)
  const double expected = 0.5 * (std::log(2.0) + std::log1p(std::exp(2.0)));
  EXPECT_NEAR(ops::bce_with_logits(logits, targets).item(), expected, 1e-5);
}

TEST(Losses, BceStableForHugeLogits) {
  Tensor logits = Tensor::from_vector({1000.0f, -1000.0f}, 2, 1);
  Tensor targets = Tensor::from_vector({1.0f, 0.0f}, 2, 1);
  EXPECT_NEAR(ops::bce_with_logits(logits, targets).item(), 0.0, 1e-5);
}

TEST(Losses, Mse) {
  Tensor p = Tensor::from_vector({1, 3}, 2, 1);
  Tensor t = Tensor::from_vector({0, 1}, 2, 1);
  EXPECT_NEAR(ops::mse_loss(p, t).item(), (1.0 + 4.0) / 2.0, 1e-6);
}

TEST(Losses, SoftmaxCrossEntropy) {
  Tensor logits = Tensor::from_vector({10, 0, 0, 0, 10, 0}, 2, 3);
  EXPECT_NEAR(ops::softmax_cross_entropy(logits, {0, 1}).item(), 0.0, 1e-3);
  EXPECT_THROW(ops::softmax_cross_entropy(logits, {0, 3}), std::invalid_argument);
  EXPECT_THROW(ops::softmax_cross_entropy(logits, {0}), std::invalid_argument);
}

TEST(InferenceMode, SuppressesGraphConstruction) {
  Tensor a = Tensor::from_vector({1, 2}, 1, 2, /*requires_grad=*/true);
  {
    InferenceGuard guard;
    Tensor b = ops::scale(a, 2.0f);
    EXPECT_FALSE(b.requires_grad());
  }
  Tensor c = ops::scale(a, 2.0f);
  EXPECT_TRUE(c.requires_grad());
}

// The BatchNorm backward's row-order loops against an in-test copy of the
// column loops they replaced (each column summed over i ascending), bit for
// bit, on shapes around the 16-column block at 1 and 2 threads. Inputs hold
// ±0.0 and dgamma/dbeta/dx start dirty, since all three accumulate.
TEST(Kernels, BatchnormBackwardRowOrderMatchesColumnLoops) {
  Rng rng(41);
  const auto bits = [](const std::vector<float>& v) {
    std::vector<std::uint32_t> out;
    for (const float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
    return out;
  };
  const auto draw = [&](std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) {
      const double u = rng.uniform();
      x = u < 0.1 ? 0.0f : u < 0.2 ? -0.0f : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return v;
  };
  for (const std::int64_t rows : {1, 7, 393}) {
    for (const std::int64_t cols : {1, 5, 16, 17, 33, 64}) {
      const auto n = static_cast<std::size_t>(rows * cols), c = static_cast<std::size_t>(cols);
      const auto dy = draw(n), xhat = draw(n), gamma = draw(c), invstd = draw(c);
      const auto dg0 = draw(c), db0 = draw(c), dx0 = draw(n);
      // The column loops.
      std::vector<float> dg = dg0, db = db0, dx = dx0;
      const float inv_m = 1.0f / static_cast<float>(rows);
      for (std::int64_t j = 0; j < cols; ++j) {
        float g = 0.0f, b = 0.0f, sum_dxhat = 0.0f, sum_dxhat_xhat = 0.0f;
        for (std::int64_t i = 0; i < rows; ++i) {
          const auto k = static_cast<std::size_t>(i * cols + j);
          g += dy[k] * xhat[k];
          b += dy[k];
          const float dxhat = dy[k] * gamma[static_cast<std::size_t>(j)];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat[k];
        }
        dg[static_cast<std::size_t>(j)] += g;
        db[static_cast<std::size_t>(j)] += b;
        for (std::int64_t i = 0; i < rows; ++i) {
          const auto k = static_cast<std::size_t>(i * cols + j);
          const float dxhat = dy[k] * gamma[static_cast<std::size_t>(j)];
          dx[k] += invstd[static_cast<std::size_t>(j)] *
                   (dxhat - inv_m * sum_dxhat - xhat[k] * inv_m * sum_dxhat_xhat);
        }
      }
      for (const int threads : {1, 2}) {
        par::set_threads(threads);
        std::vector<float> got_dg = dg0, got_db = db0, got_dx = dx0;
        kern::bn_bwd_params(dy.data(), xhat.data(), rows, cols, got_dg.data(), got_db.data());
        kern::bn_bwd_dx_train(dy.data(), gamma.data(), invstd.data(), xhat.data(), got_dx.data(),
                              rows, cols);
        EXPECT_EQ(bits(dg), bits(got_dg)) << rows << "x" << cols << " at " << threads;
        EXPECT_EQ(bits(db), bits(got_db)) << rows << "x" << cols << " at " << threads;
        EXPECT_EQ(bits(dx), bits(got_dx)) << rows << "x" << cols << " at " << threads;
      }
      // A null target still leaves the other one right.
      std::vector<float> got_db = db0;
      kern::bn_bwd_params(dy.data(), xhat.data(), rows, cols, nullptr, got_db.data());
      EXPECT_EQ(bits(db), bits(got_db)) << rows << "x" << cols;
    }
  }
  par::set_threads(0);
}

}  // namespace
}  // namespace cgps
