// Bit-exact reference backend: delegates the matmul family to the shared
// kern:: loops and implements the fused kernels as single passes whose
// per-element arithmetic is exactly the unfused sequence (full RN dot sum,
// then one bias add, then the ReLU compare), so fused scalar results are
// bitwise identical to eager. No allocation anywhere in this file
// (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"
#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

#include <cmath>

namespace cgps::exec {

namespace {

class ScalarBackend final : public KernelBackend {
 public:
  const char* name() const override { return "scalar"; }

  void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m, std::int64_t k,
                  std::int64_t n) const override {
    kern::matmul_fwd(a, b, o, m, k, n);
  }

  void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    kern::matmul_da(dc, b, da, rows, inner, cols);
  }

  void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    kern::matmul_db(dc, a, db, rows, inner, cols);
  }

  void linear_fwd(const float* x, const float* w, const float* bias, float* o, std::int64_t m,
                  std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* oi = o + i * n;
        accumulate_row(x + i * k, w, oi, k, n);
        for (std::int64_t j = 0; j < n; ++j) oi[j] += bias[j];
      }
    });
  }

  void linear_relu_fwd(const float* x, const float* w, const float* bias, float* o,
                       std::int64_t m, std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* oi = o + i * n;
        accumulate_row(x + i * k, w, oi, k, n);
        for (std::int64_t j = 0; j < n; ++j) oi[j] = kern::relu1(oi[j] + bias[j]);
      }
    });
  }

  void gate_chain_fwd(const float* e_hat, const float* lm, float* eta, float* msg,
                      std::int64_t count) const override {
    par::parallel_for(0, count, par::grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float s = kern::sigmoid1(e_hat[i]);
        eta[i] = s;
        msg[i] = s * lm[i];
      }
    });
  }

  void favor_fwd(const float* proj, const float* u, float* e, float* phi, std::int64_t rows,
                 std::int64_t dh, std::int64_t fm, float scale) const override {
    // The eager sequence u * u, row_sum, * 0.5, sub_colvec, exp, * scale, one
    // row at a time. This TU is built without FMA, so each square rounds.
    par::parallel_for(0, rows, par::grain_for(fm), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* ui = u + i * dh;
        float sum = 0.0f;
        for (std::int64_t j = 0; j < dh; ++j) sum += ui[j] * ui[j];
        const float half = sum * 0.5f;
        for (std::int64_t j = 0; j < fm; ++j) {
          const float ev = std::exp(kern::sub_colvec1(proj[i * fm + j], half));
          e[i * fm + j] = ev;
          phi[i * fm + j] = ev * scale;
        }
      }
    });
  }

 private:
  // One output row of X W, the exact kern::matmul_fwd inner loop (zero, then
  // ikj axpy with zero-skip on the A element).
  static void accumulate_row(const float* xi, const float* w, float* oi, std::int64_t k,
                             std::int64_t n) {
    for (std::int64_t j = 0; j < n; ++j) oi[j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float xip = xi[p];
      if (xip == 0.0f) continue;
      const float* wp = w + p * n;
      for (std::int64_t j = 0; j < n; ++j) oi[j] += xip * wp[j];
    }
  }
};

}  // namespace

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace cgps::exec
