#include "tensor/ops.hpp"

#include "tensor/kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

// Parallelization strategy (see util/parallel.hpp for the pool contract):
// every parallel loop partitions *disjoint output elements* (rows of the
// result, rows of one grad buffer, or flat index ranges) and keeps the
// per-element accumulation order of the serial code. Indexed accumulations
// (scatter/segment/gather-backward) are regrouped by output row first — a
// stable counting sort, so contributions still land in ascending source
// order. Results are therefore bit-identical at every CIRCUITGPS_THREADS
// setting, including 1.
//
// The nontrivial loops live in tensor/kernels.hpp (cgps::kern) and are
// shared with the planned executor (src/exec/), so eager and planned modes
// run the same machine code over the same buffers.

namespace cgps::ops {

namespace {

using detail::Node;
using NodePtr = std::shared_ptr<detail::Node>;

[[noreturn]] void shape_error(const char* op, const Tensor& a, const Tensor& b) {
  std::ostringstream os;
  os << op << ": shape mismatch (" << a.rows() << "x" << a.cols() << ") vs (" << b.rows()
     << "x" << b.cols() << ")";
  throw std::invalid_argument(os.str());
}

void check_same_shape(const char* op, const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) shape_error(op, a, b);
}

float* grad_if_required(Node& p) { return p.requires_grad ? p.grad.data() : nullptr; }

// Elementwise binary op over kern::binary_fwd/binary_bwd; bwd(x, y, dy, da,
// db) sets one element's two grads.
template <typename Fwd, typename Bwd>
Tensor elementwise_binary(const char* name, const Tensor& a, const Tensor& b, Fwd fwd,
                          Bwd bwd) {
  check_same_shape(name, a, b);
  const bool track = grad_enabled_for({&a, &b});
  Tensor out = Tensor::make(
      a.rows(), a.cols(), track, {a.ptr(), b.ptr()}, [pa = a.ptr(), pb = b.ptr(), bwd](Node& n) {
        const float* av = pa->value.data();
        const float* bv = pb->value.data();
        const float* dy = n.grad.data();
        kern::binary_bwd(grad_if_required(*pa), grad_if_required(*pb),
                         static_cast<std::int64_t>(n.value.size()),
                         [&](std::int64_t i, float& da, float& db) {
                           bwd(av[i], bv[i], dy[i], da, db);
                         });
      });
  kern::binary_fwd(a.data().data(), b.data().data(), out.data().data(),
                   static_cast<std::int64_t>(out.data().size()), fwd);
  return out;
}

// Elementwise unary op over kern::unary_fwd/unary_bwd; bwd(x, y, dy) -> dx.
template <typename Fwd, typename Bwd>
Tensor elementwise_unary(const Tensor& x, Fwd fwd, Bwd bwd) {
  const bool track = grad_enabled_for({&x});
  Tensor out =
      Tensor::make(x.rows(), x.cols(), track, {x.ptr()}, [px = x.ptr(), bwd](Node& n) {
        const float* xv = px->value.data();
        const float* yv = n.value.data();
        const float* dy = n.grad.data();
        kern::unary_bwd(grad_if_required(*px), static_cast<std::int64_t>(n.value.size()),
                        [&](std::int64_t i) { return bwd(xv[i], yv[i], dy[i]); });
      });
  kern::unary_fwd(x.data().data(), out.data().data(),
                  static_cast<std::int64_t>(out.data().size()), fwd);
  return out;
}

void check_colvec(const char* op, const Tensor& x, const Tensor& col) {
  if (col.cols() != 1 || col.rows() != x.rows()) shape_error(op, x, col);
}

void check_rowvec(const char* op, const Tensor& x, const Tensor& row) {
  if (row.rows() != 1 || row.cols() != x.cols()) shape_error(op, x, row);
}

}  // namespace

// ---------------------------------------------------------------- binary --

Tensor add(const Tensor& a, const Tensor& b) {
  return elementwise_binary(
      "add", a, b, kern::add1,
      [](float, float, float dy, float& da, float& db) { kern::add1_bwd(dy, da, db); });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return elementwise_binary(
      "sub", a, b, kern::sub1,
      [](float, float, float dy, float& da, float& db) { kern::sub1_bwd(dy, da, db); });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return elementwise_binary("mul", a, b, kern::mul1, kern::mul1_bwd);
}

Tensor div(const Tensor& a, const Tensor& b) {
  return elementwise_binary("div", a, b, kern::div1, kern::div1_bwd);
}

// ------------------------------------------------------------- broadcast --

Tensor add_rowvec(const Tensor& x, const Tensor& row) {
  check_rowvec("add_rowvec", x, row);
  const bool track = grad_enabled_for({&x, &row});
  Tensor out = Tensor::make(
      x.rows(), x.cols(), track, {x.ptr(), row.ptr()}, [px = x.ptr(), pr = row.ptr()](Node& n) {
        const std::int64_t m = n.rows;
        const std::int64_t c = n.cols;
        if (px->requires_grad) kern::add_rowvec_bwd_dx(n.grad.data(), px->grad.data(), m * c);
        if (pr->requires_grad) kern::add_rowvec_bwd_db(n.grad.data(), pr->grad.data(), m, c);
      });
  kern::add_rowvec_fwd(x.data().data(), row.data().data(), out.data().data(), x.rows(),
                       x.cols());
  return out;
}

Tensor mul_rowvec(const Tensor& x, const Tensor& row) {
  check_rowvec("mul_rowvec", x, row);
  const bool track = grad_enabled_for({&x, &row});
  Tensor out = Tensor::make(
      x.rows(), x.cols(), track, {x.ptr(), row.ptr()}, [px = x.ptr(), pr = row.ptr()](Node& n) {
        const std::int64_t m = n.rows;
        const std::int64_t c = n.cols;
        if (px->requires_grad) {
          par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i)
              for (std::int64_t j = 0; j < c; ++j)
                px->grad[i * c + j] += n.grad[i * c + j] * pr->value[j];
          });
        }
        if (pr->requires_grad) {
          par::parallel_for(0, c, par::grain_for(m), [&](std::int64_t j0, std::int64_t j1) {
            for (std::int64_t i = 0; i < m; ++i)
              for (std::int64_t j = j0; j < j1; ++j)
                pr->grad[j] += n.grad[i * c + j] * px->value[i * c + j];
          });
        }
      });
  const float* xv = x.data().data();
  const float* rv = row.data().data();
  float* ov = out.data().data();
  const std::int64_t c = x.cols();
  par::parallel_for(0, x.rows(), par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j) ov[i * c + j] = xv[i * c + j] * rv[j];
  });
  return out;
}

namespace {

// Row-times-column broadcast over kern::colvec_fwd/colvec_bwd; bwd(x, col,
// dy, dx, dc) sets one element's two grads.
template <typename Fwd, typename Bwd>
Tensor colvec_broadcast(const char* name, const Tensor& x, const Tensor& col, Fwd fwd,
                        Bwd bwd) {
  check_colvec(name, x, col);
  const bool track = grad_enabled_for({&x, &col});
  Tensor out = Tensor::make(
      x.rows(), x.cols(), track, {x.ptr(), col.ptr()},
      [px = x.ptr(), pc = col.ptr(), bwd](Node& n) {
        const float* xv = px->value.data();
        const float* cv = pc->value.data();
        const float* dy = n.grad.data();
        kern::colvec_bwd(grad_if_required(*px), grad_if_required(*pc), n.rows, n.cols,
                         [&](std::int64_t i, std::int64_t k, float& dx, float& dc) {
                           bwd(xv[k], cv[i], dy[k], dx, dc);
                         });
      });
  kern::colvec_fwd(x.data().data(), col.data().data(), out.data().data(), x.rows(), x.cols(),
                   fwd);
  return out;
}

}  // namespace

Tensor add_colvec(const Tensor& x, const Tensor& col) {
  return colvec_broadcast(
      "add_colvec", x, col, kern::add1,
      [](float, float, float dy, float& dx, float& dc) { kern::add1_bwd(dy, dx, dc); });
}

Tensor sub_colvec(const Tensor& x, const Tensor& col) {
  return colvec_broadcast(
      "sub_colvec", x, col, kern::sub1,
      [](float, float, float dy, float& dx, float& dc) { kern::sub1_bwd(dy, dx, dc); });
}

Tensor mul_colvec(const Tensor& x, const Tensor& col) {
  return colvec_broadcast("mul_colvec", x, col, kern::mul1, kern::mul1_bwd);
}

Tensor div_colvec(const Tensor& x, const Tensor& col) {
  return colvec_broadcast("div_colvec", x, col, kern::div1, kern::div1_bwd);
}

// ----------------------------------------------------------------- scalar --

Tensor scale(const Tensor& x, float s) {
  return elementwise_unary(
      x, [s](float v) { return kern::mul1(v, s); },
      [s](float, float, float dy) { return kern::mul1(dy, s); });
}

Tensor add_scalar(const Tensor& x, float s) {
  return elementwise_unary(
      x, [s](float v) { return kern::add1(v, s); }, [](float, float, float dy) { return dy; });
}

// ------------------------------------------------------------------ unary --

Tensor neg(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return -v; }, [](float, float, float dy) { return -dy; });
}

Tensor relu(const Tensor& x) {
  return elementwise_unary(x, kern::relu1,
                           [](float v, float, float dy) { return kern::relu1_bwd(v, dy); });
}

Tensor sigmoid(const Tensor& x) {
  return elementwise_unary(x, kern::sigmoid1,
                           [](float, float y, float dy) { return kern::sigmoid1_bwd(y, dy); });
}

Tensor tanh_op(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return std::tanh(v); },
      [](float, float y, float dy) { return dy * (1.0f - y * y); });
}

Tensor exp_op(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return std::exp(v); },
      [](float, float y, float dy) { return dy * y; });
}

Tensor log_op(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return std::log(v); },
      [](float v, float, float dy) { return dy / v; });
}

Tensor sqrt_op(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return std::sqrt(v); },
      [](float, float y, float dy) { return y > 0.0f ? dy * 0.5f / y : 0.0f; });
}

Tensor square(const Tensor& x) {
  return elementwise_unary(x, kern::square1,
                           [](float v, float, float dy) { return kern::square1_bwd(v, dy); });
}

Tensor abs_op(const Tensor& x) {
  return elementwise_unary(
      x, [](float v) { return std::fabs(v); },
      [](float v, float, float dy) { return v >= 0.0f ? dy : -dy; });
}

// --------------------------------------------------------------- lin. alg --

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) shape_error("matmul", a, b);
  const std::int64_t m = a.rows();
  const std::int64_t k = a.cols();
  const std::int64_t n = b.cols();
  const bool track = grad_enabled_for({&a, &b});
  Tensor out = Tensor::make(
      m, n, track, {a.ptr(), b.ptr()}, [pa = a.ptr(), pb = b.ptr()](Node& node) {
        const std::int64_t rows = pa->rows;
        const std::int64_t inner = pa->cols;
        const std::int64_t cols = pb->cols;
        const float* dc = node.grad.data();
        if (pa->requires_grad)
          kern::matmul_da(dc, pb->value.data(), pa->grad.data(), rows, inner, cols);
        if (pb->requires_grad)
          kern::matmul_db(dc, pa->value.data(), pb->grad.data(), rows, inner, cols);
      });
  kern::matmul_fwd(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

Tensor transpose(const Tensor& x) {
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(n, m, track, {x.ptr()}, [px = x.ptr()](Node& node) {
    if (!px->requires_grad) return;
    kern::transpose_bwd(node.grad.data(), px->grad.data(), px->rows, px->cols);
  });
  kern::transpose_fwd(x.data().data(), out.data().data(), m, n);
  return out;
}

// ------------------------------------------------------------------ shape --

Tensor concat_cols(std::span<const Tensor> parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no inputs");
  const std::int64_t m = parts[0].rows();
  std::int64_t total = 0;
  bool track = false;
  std::vector<NodePtr> parents;
  parents.reserve(parts.size());
  for (const Tensor& t : parts) {
    if (t.rows() != m) shape_error("concat_cols", parts[0], t);
    total += t.cols();
    parents.push_back(t.ptr());
    track = track || grad_enabled_for({&t});
  }
  Tensor out = Tensor::make(m, total, track, parents, [parents](Node& node) {
    const std::int64_t rows = node.rows;
    const std::int64_t total_cols = node.cols;
    std::int64_t offset = 0;
    for (const auto& p : parents) {
      const std::int64_t c = p->cols;
      if (p->requires_grad)
        kern::concat_cols_bwd_part(node.grad.data(), p->grad.data(), rows, c, total_cols,
                                   offset);
      offset += c;
    }
  });
  float* ov = out.data().data();
  std::int64_t offset = 0;
  for (const Tensor& t : parts) {
    const std::int64_t c = t.cols();
    kern::concat_cols_fwd_part(t.data().data(), ov, m, c, total, offset);
    offset += c;
  }
  return out;
}

Tensor concat_rows(std::span<const Tensor> parts) {
  if (parts.empty()) throw std::invalid_argument("concat_rows: no inputs");
  const std::int64_t c = parts[0].cols();
  std::int64_t total = 0;
  bool track = false;
  std::vector<NodePtr> parents;
  parents.reserve(parts.size());
  for (const Tensor& t : parts) {
    if (t.cols() != c) shape_error("concat_rows", parts[0], t);
    total += t.rows();
    parents.push_back(t.ptr());
    track = track || grad_enabled_for({&t});
  }
  Tensor out = Tensor::make(total, c, track, parents, [parents](Node& node) {
    const std::int64_t cols = node.cols;
    std::int64_t offset = 0;
    for (const auto& p : parents) {
      const std::int64_t m = p->rows;
      if (p->requires_grad) {
        for (std::int64_t i = 0; i < m * cols; ++i) p->grad[i] += node.grad[offset * cols + i];
      }
      offset += m;
    }
  });
  auto ov = out.data();
  std::int64_t offset = 0;
  for (const Tensor& t : parts) {
    auto tv = t.data();
    std::copy(tv.begin(), tv.end(), ov.begin() + offset * c);
    offset += t.rows();
  }
  return out;
}

Tensor slice_rows(const Tensor& x, std::int64_t start, std::int64_t len) {
  if (start < 0 || len < 0 || start + len > x.rows())
    throw std::invalid_argument("slice_rows: range out of bounds");
  const std::int64_t c = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(len, c, track, {x.ptr()}, [px = x.ptr(), start](Node& node) {
    if (!px->requires_grad) return;
    const std::int64_t cols = node.cols;
    for (std::int64_t i = 0; i < node.rows * cols; ++i)
      px->grad[start * cols + i] += node.grad[i];
  });
  auto xv = x.data();
  std::copy(xv.begin() + start * c, xv.begin() + (start + len) * c, out.data().begin());
  return out;
}

// ---------------------------------------------------------------- indexed --

Tensor gather_rows(const Tensor& x, const std::vector<std::int32_t>& idx) {
  const std::int64_t c = x.cols();
  for (std::int32_t i : idx) {
    if (i < 0 || i >= x.rows()) throw std::invalid_argument("gather_rows: index out of range");
  }
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(
      static_cast<std::int64_t>(idx.size()), c, track, {x.ptr()},
      [px = x.ptr(), idx](Node& node) {
        if (!px->requires_grad) return;
        kern::gather_bwd(node.grad.data(), idx.data(), static_cast<std::int64_t>(idx.size()),
                         node.cols, px->rows, px->grad.data());
      });
  kern::gather_fwd(x.data().data(), idx.data(), static_cast<std::int64_t>(idx.size()), c,
                   out.data().data());
  return out;
}

Tensor scatter_add_rows(const Tensor& x, const std::vector<std::int32_t>& idx,
                        std::int64_t out_rows) {
  if (static_cast<std::int64_t>(idx.size()) != x.rows())
    throw std::invalid_argument("scatter_add_rows: idx size != rows");
  for (std::int32_t i : idx) {
    if (i < 0 || i >= out_rows)
      throw std::invalid_argument("scatter_add_rows: index out of range");
  }
  const std::int64_t c = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(out_rows, c, track, {x.ptr()}, [px = x.ptr(), idx](Node& node) {
    if (!px->requires_grad) return;
    kern::scatter_add_bwd(node.grad.data(), idx.data(), static_cast<std::int64_t>(idx.size()),
                          node.cols, px->grad.data());
  });
  kern::scatter_add_fwd(x.data().data(), idx.data(), static_cast<std::int64_t>(idx.size()), c,
                        out_rows, out.data().data());
  return out;
}

Tensor segment_sum(const Tensor& x, const std::vector<std::int32_t>& seg,
                   std::int64_t n_segments) {
  return scatter_add_rows(x, seg, n_segments);
}

Tensor segment_mean(const Tensor& x, const std::vector<std::int32_t>& seg,
                    std::int64_t n_segments) {
  if (static_cast<std::int64_t>(seg.size()) != x.rows())
    throw std::invalid_argument("segment_mean: seg size != rows");
  for (std::int32_t s : seg) {
    if (s < 0 || s >= n_segments)
      throw std::invalid_argument("segment_mean: segment id out of range");
  }
  std::vector<float> inv_count(static_cast<std::size_t>(n_segments));
  kern::segment_inv_count(seg.data(), static_cast<std::int64_t>(seg.size()), n_segments,
                          inv_count.data());

  const std::int64_t c = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(
      n_segments, c, track, {x.ptr()}, [px = x.ptr(), seg, inv_count](Node& node) {
        if (!px->requires_grad) return;
        kern::segment_mean_bwd(node.grad.data(), seg.data(),
                               static_cast<std::int64_t>(seg.size()), node.cols,
                               inv_count.data(), px->grad.data());
      });
  kern::segment_mean_fwd(x.data().data(), seg.data(), static_cast<std::int64_t>(seg.size()), c,
                         n_segments, inv_count.data(), out.data().data());
  return out;
}

// ------------------------------------------------------------- reductions --

Tensor sum_all(const Tensor& x) {
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(1, 1, track, {x.ptr()}, [px = x.ptr()](Node& node) {
    if (!px->requires_grad) return;
    kern::sum_all_bwd(node.grad[0], px->grad.data(), static_cast<std::int64_t>(px->grad.size()));
  });
  out.data()[0] = kern::sum_all_fwd(x.data().data(), x.numel());
  return out;
}

Tensor mean_all(const Tensor& x) {
  const float inv = 1.0f / static_cast<float>(x.numel());
  return scale(sum_all(x), inv);
}

Tensor row_sum(const Tensor& x) {
  const std::int64_t m = x.rows();
  const std::int64_t c = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(m, 1, track, {x.ptr()}, [px = x.ptr()](Node& node) {
    if (!px->requires_grad) return;
    kern::row_sum_bwd(node.grad.data(), px->grad.data(), px->rows, px->cols);
  });
  kern::row_sum_fwd(x.data().data(), out.data().data(), m, c);
  return out;
}

// ---------------------------------------------------------------- softmax --

Tensor softmax_rows(const Tensor& x) {
  const std::int64_t m = x.rows();
  const std::int64_t c = x.cols();
  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(m, c, track, {x.ptr()}, [px = x.ptr()](Node& node) {
    if (!px->requires_grad) return;
    kern::softmax_bwd(node.value.data(), node.grad.data(), px->grad.data(), node.rows,
                      node.cols);
  });
  kern::softmax_fwd(x.data().data(), out.data().data(), m, c);
  return out;
}

// ---------------------------------------------------------- regularization --

Tensor dropout(const Tensor& x, float p, Rng& rng) {
  if (p <= 0.0f) return x;
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  std::vector<float> mask(x.data().size());
  kern::dropout_mask(rng, p, mask.data(), static_cast<std::int64_t>(mask.size()));

  const bool track = grad_enabled_for({&x});
  Tensor out = Tensor::make(x.rows(), x.cols(), track, {x.ptr()}, [px = x.ptr(), mask](Node& node) {
    if (!px->requires_grad) return;
    kern::dropout_bwd(node.grad.data(), mask.data(), px->grad.data(),
                      static_cast<std::int64_t>(node.grad.size()));
  });
  kern::dropout_fwd(x.data().data(), mask.data(), out.data().data(),
                    static_cast<std::int64_t>(mask.size()));
  return out;
}

Tensor batchnorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 std::vector<float>& running_mean, std::vector<float>& running_var,
                 float momentum, float eps, bool training) {
  check_rowvec("batchnorm(gamma)", x, gamma);
  check_rowvec("batchnorm(beta)", x, beta);
  const std::int64_t m = x.rows();
  const std::int64_t c = x.cols();
  if (static_cast<std::int64_t>(running_mean.size()) != c ||
      static_cast<std::int64_t>(running_var.size()) != c)
    throw std::invalid_argument("batchnorm: running stats size mismatch");

  std::vector<float> mean(c), invstd(c);
  auto xv = x.data();
  if (training) {
    std::vector<float> var(c);
    kern::bn_stats_train(xv.data(), m, c, mean.data(), var.data(), invstd.data(),
                         running_mean.data(), running_var.data(), momentum, eps);
  } else {
    kern::bn_stats_eval(running_mean.data(), running_var.data(), c, eps, mean.data(),
                        invstd.data());
  }

  // xhat saved for backward.
  std::vector<float> xhat(static_cast<std::size_t>(m * c));
  kern::bn_xhat(xv.data(), mean.data(), invstd.data(), xhat.data(), m, c);

  const bool track = grad_enabled_for({&x, &gamma, &beta});
  Tensor out = Tensor::make(
      m, c, track, {x.ptr(), gamma.ptr(), beta.ptr()},
      [px = x.ptr(), pg = gamma.ptr(), pb = beta.ptr(), xhat, invstd, training](Node& node) {
        const std::int64_t rows = node.rows;
        const std::int64_t cols = node.cols;
        kern::bn_bwd_params(node.grad.data(), xhat.data(), rows, cols,
                            pg->requires_grad ? pg->grad.data() : nullptr,
                            pb->requires_grad ? pb->grad.data() : nullptr);
        if (!px->requires_grad) return;
        if (!training) {
          kern::bn_bwd_dx_eval(node.grad.data(), pg->value.data(), invstd.data(),
                               px->grad.data(), rows, cols);
          return;
        }
        kern::bn_bwd_dx_train(node.grad.data(), pg->value.data(), invstd.data(), xhat.data(),
                              px->grad.data(), rows, cols);
      });
  kern::bn_fwd_out(gamma.data().data(), beta.data().data(), xhat.data(), out.data().data(), m,
                   c);
  return out;
}

// ----------------------------------------------------------------- losses --

Tensor bce_with_logits(const Tensor& logits, const Tensor& targets) {
  check_same_shape("bce_with_logits", logits, targets);
  const std::int64_t n = logits.numel();
  const bool track = grad_enabled_for({&logits});
  Tensor out = Tensor::make(
      1, 1, track, {logits.ptr(), targets.ptr()},
      [pl = logits.ptr(), pt = targets.ptr()](Node& node) {
        if (!pl->requires_grad) return;
        kern::bce_bwd(pl->value.data(), pt->value.data(), node.grad[0],
                      static_cast<std::int64_t>(pl->value.size()), pl->grad.data());
      });
  out.data()[0] = kern::bce_fwd(logits.data().data(), targets.data().data(), n);
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape("mse_loss", pred, target);
  const std::int64_t n = pred.numel();
  const bool track = grad_enabled_for({&pred});
  Tensor out = Tensor::make(
      1, 1, track, {pred.ptr(), target.ptr()},
      [pp = pred.ptr(), pt = target.ptr()](Node& node) {
        if (!pp->requires_grad) return;
        kern::mse_bwd(pp->value.data(), pt->value.data(), node.grad[0],
                      static_cast<std::int64_t>(pp->value.size()), pp->grad.data());
      });
  out.data()[0] = kern::mse_fwd(pred.data().data(), target.data().data(), n);
  return out;
}

Tensor l1_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape("l1_loss", pred, target);
  const std::int64_t n = pred.numel();
  const float inv_n = 1.0f / static_cast<float>(n);
  const bool track = grad_enabled_for({&pred});
  Tensor out = Tensor::make(
      1, 1, track, {pred.ptr(), target.ptr()},
      [pp = pred.ptr(), pt = target.ptr(), inv_n](Node& node) {
        if (!pp->requires_grad) return;
        const float dy = node.grad[0];
        const std::int64_t total = static_cast<std::int64_t>(pp->value.size());
        par::parallel_for(0, total, par::grain_for(1), [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const float d = pp->value[i] - pt->value[i];
            pp->grad[i] += dy * inv_n * (d >= 0.0f ? 1.0f : -1.0f);
          }
        });
      });
  float loss = 0.0f;
  auto pv = pred.data();
  auto tv = target.data();
  for (std::int64_t i = 0; i < n; ++i) loss += std::fabs(pv[i] - tv[i]);
  out.data()[0] = loss * inv_n;
  return out;
}

Tensor softmax_cross_entropy(const Tensor& logits, const std::vector<std::int32_t>& labels) {
  const std::int64_t m = logits.rows();
  const std::int64_t k = logits.cols();
  if (static_cast<std::int64_t>(labels.size()) != m)
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  for (std::int32_t l : labels) {
    if (l < 0 || l >= k)
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
  }
  // Precompute softmax for both forward and backward. Rows are independent;
  // the scalar loss reduction stays serial (i-ascending) over the finished
  // probs for determinism.
  std::vector<float> probs(static_cast<std::size_t>(m * k));
  auto lv = logits.data();
  par::parallel_for(0, m, par::grain_for(4 * k), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = lv.data() + i * k;
      float mx = row[0];
      for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (std::int64_t j = 0; j < k; ++j) {
        probs[i * k + j] = std::exp(row[j] - mx);
        sum += probs[i * k + j];
      }
      const float inv = 1.0f / sum;
      for (std::int64_t j = 0; j < k; ++j) probs[i * k + j] *= inv;
    }
  });
  float loss = 0.0f;
  for (std::int64_t i = 0; i < m; ++i)
    loss -= std::log(std::max(probs[i * k + labels[i]], 1e-12f));
  const float inv_m = 1.0f / static_cast<float>(m);
  const bool track = grad_enabled_for({&logits});
  Tensor out = Tensor::make(1, 1, track, {logits.ptr()},
                            [pl = logits.ptr(), probs, labels, inv_m](Node& node) {
                              if (!pl->requires_grad) return;
                              const float dy = node.grad[0];
                              const std::int64_t cols = pl->cols;
                              par::parallel_for(
                                  0, pl->rows, par::grain_for(cols),
                                  [&](std::int64_t i0, std::int64_t i1) {
                                    for (std::int64_t i = i0; i < i1; ++i) {
                                      for (std::int64_t j = 0; j < cols; ++j) {
                                        float g = probs[i * cols + j];
                                        if (j == labels[i]) g -= 1.0f;
                                        pl->grad[i * cols + j] += dy * inv_m * g;
                                      }
                                    }
                                  });
                            });
  out.data()[0] = loss * inv_m;
  return out;
}

}  // namespace cgps::ops
