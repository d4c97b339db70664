// Differentiable operations over `Tensor`.
//
// Each op computes the forward value eagerly and, when gradients are being
// tracked, attaches a backward closure to the result node. Shapes are
// validated aggressively: a mismatch is a logic error in the model code, so
// we throw std::invalid_argument with the offending shapes.
//
// Naming: ops that would shadow <cmath> get a trailing underscore-free
// distinct name (exp_op).
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace cgps {
class Rng;
}

namespace cgps::ops {

// ---- Elementwise binary (same shape) ------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- Broadcast against a row vector (1, n) or column vector (m, 1) ------
Tensor add_rowvec(const Tensor& x, const Tensor& row);
Tensor add_colvec(const Tensor& x, const Tensor& col);
Tensor sub_colvec(const Tensor& x, const Tensor& col);
Tensor mul_colvec(const Tensor& x, const Tensor& col);
Tensor div_colvec(const Tensor& x, const Tensor& col);

// ---- Scalar --------------------------------------------------------------
Tensor scale(const Tensor& x, float s);
Tensor add_scalar(const Tensor& x, float s);

// ---- Unary ----------------------------------------------------------------
Tensor neg(const Tensor& x);
Tensor relu(const Tensor& x);
Tensor sigmoid(const Tensor& x);
Tensor exp_op(const Tensor& x);
Tensor square(const Tensor& x);

// ---- Linear algebra --------------------------------------------------------
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& x);

// ---- Shape ------------------------------------------------------------------
Tensor concat_cols(std::span<const Tensor> parts);
Tensor concat_rows(std::span<const Tensor> parts);
Tensor slice_rows(const Tensor& x, std::int64_t start, std::int64_t len);

// ---- Indexed ----------------------------------------------------------------
// out[i, :] = x[idx[i], :]. Backward scatter-adds into x.
Tensor gather_rows(const Tensor& x, const std::vector<std::int32_t>& idx);
// out[idx[i], :] += x[i, :] with `out` of shape (out_rows, x.cols()).
Tensor scatter_add_rows(const Tensor& x, const std::vector<std::int32_t>& idx,
                        std::int64_t out_rows);
// Segment pooling: seg[i] in [0, n_segments) maps row i of x to a segment.
Tensor segment_mean(const Tensor& x, const std::vector<std::int32_t>& seg,
                    std::int64_t n_segments);

// ---- Reductions ----------------------------------------------------------------
Tensor sum_all(const Tensor& x);
Tensor mean_all(const Tensor& x);
Tensor row_sum(const Tensor& x);  // (m, n) -> (m, 1)

// ---- Softmax ---------------------------------------------------------------------
Tensor softmax_rows(const Tensor& x);

// ---- Regularization ----------------------------------------------------------------
// Inverted dropout; scales kept activations by 1/(1-p). Identity when p == 0.
Tensor dropout(const Tensor& x, float p, Rng& rng);

// Batch normalization over the row (sample) dimension with affine params.
// `running_mean` / `running_var` (size = cols) are updated in place when
// `training` is true and used instead of batch stats when false.
Tensor batchnorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 std::vector<float>& running_mean, std::vector<float>& running_var,
                 float momentum, float eps, bool training);

// ---- Losses (targets never receive gradients) -----------------------------------------
// Binary cross entropy on logits, numerically stable; mean over elements.
Tensor bce_with_logits(const Tensor& logits, const Tensor& targets);
Tensor mse_loss(const Tensor& pred, const Tensor& target);
// Softmax cross entropy; logits (n, K), labels[i] in [0, K). Mean over rows.
Tensor softmax_cross_entropy(const Tensor& logits, const std::vector<std::int32_t>& labels);

}  // namespace cgps::ops
