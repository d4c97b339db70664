// Bit-exact reference backend: delegates the matmul family to the shared
// kern:: loops and implements the fused kernels as single passes whose
// per-element arithmetic is exactly the unfused sequence (full RN dot sum,
// then one bias add, then the ReLU compare), so fused scalar results are
// bitwise identical to eager. No allocation anywhere in this file
// (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"
#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

#include <algorithm>
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

  void qkv_fwd(const float* x, const float* wpack, float* q, float* k, float* v, std::int64_t m,
               std::int64_t dim, std::int64_t heads, std::int64_t dh,
               float qk_scale) const override {
    // kern::matmul_fwd's row loop with the output row cut into the 3*heads
    // blocks of dh, each block's row living in its own save; then the q/k
    // scale pass's one multiply.
    const std::int64_t blocks = 3 * heads, n = blocks * dh;
    float* const saves[3] = {q, k, v};
    const auto block_row = [&](std::int64_t b, std::int64_t i) {
      return saves[b % 3] + (b / 3) * m * dh + i * dh;
    };
    par::parallel_for(0, m, par::grain_for(dim * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        for (std::int64_t b = 0; b < blocks; ++b) std::fill_n(block_row(b, i), dh, 0.0f);
        const float* xi = x + i * dim;
        for (std::int64_t p = 0; p < dim; ++p) {
          const float xip = xi[p];
          if (xip == 0.0f) continue;
          const float* wp = wpack + p * n;
          for (std::int64_t b = 0; b < blocks; ++b) {
            float* o = block_row(b, i);
            for (std::int64_t j = 0; j < dh; ++j) o[j] += xip * wp[b * dh + j];
          }
        }
        for (std::int64_t b = 0; b < blocks; ++b) {
          if (b % 3 == 2) continue;
          float* o = block_row(b, i);
          for (std::int64_t j = 0; j < dh; ++j) o[j] *= qk_scale;
        }
      }
    });
  }

  void performer_attend_fwd(const float* phi_q, const float* phi_k, const float* v,
                            const std::int64_t* graph_ptr, std::int64_t graphs, std::int64_t dh,
                            std::int64_t fm, float* kv, float* z, float* numer, float* denom,
                            float* out, std::int64_t out_stride) const override {
    par::parallel_for(0, graphs, attend_grain(graph_ptr, graphs, dh, fm),
                      [&](std::int64_t g0, std::int64_t g1) {
      for (std::int64_t g = g0; g < g1; ++g) {
        const std::int64_t s = graph_ptr[g], e = graph_ptr[g + 1];
        if (e == s) continue;
        // kv = matmul(phi_k^T, v) and z = matmul(phi_k^T, ones): each kv[m,j]
        // and z[m] takes its rows' terms in ascending order, skipping
        // phi_k == 0, with phi_k read in place (a * 1 is a).
        float* kvg = kv + g * fm * dh;
        float* zg = z + g * fm;
        std::fill_n(kvg, fm * dh, 0.0f);
        std::fill_n(zg, fm, 0.0f);
        for (std::int64_t i = s; i < e; ++i) {
          const float* pk = phi_k + i * fm;
          const float* vi = v + i * dh;
          for (std::int64_t mm = 0; mm < fm; ++mm) {
            const float a = pk[mm];
            if (a == 0.0f) continue;
            zg[mm] += a;
            for (std::int64_t j = 0; j < dh; ++j) kvg[mm * dh + j] += a * vi[j];
          }
        }
        // numer = matmul(phi_q, kv), denom = matmul(phi_q, z) + 1e-6, then
        // div_colvec.
        for (std::int64_t i = s; i < e; ++i) {
          float* ni = numer + i * dh;
          accumulate_row(phi_q + i * fm, kvg, ni, fm, dh);
          accumulate_row(phi_q + i * fm, zg, denom + i, fm, 1);
          denom[i] += 1e-6f;
          for (std::int64_t j = 0; j < dh; ++j)
            out[i * out_stride + j] = kern::div_colvec1(ni[j], denom[i]);
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
