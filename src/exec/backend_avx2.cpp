// AVX2/FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/exec/CMakeLists.txt) so the rest of the build keeps
// its portable baseline; dispatch is a runtime CPU check (backend.cpp).
//
// Accuracy contract: vector lanes + FMA re-associate *within* one output
// element, so results differ from scalar by rounding only (planned AVX2 vs
// eager agrees to ~1e-5 relative, gradcheck-validated). The parallel
// partitioning and the element iteration order are identical to kern::, so
// results are still deterministic at every thread count. No allocation
// anywhere in this file (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <immintrin.h>

#include "exec/quant.hpp"
#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

namespace cgps::exec {

namespace {

// Register-blocked forward micro-kernel shared by matmul_fwd, linear_fwd and
// linear_relu_fwd. Every output element follows one fixed sequence: start at
// +0.0, acc = fma(a[i,p], b[p,j], acc) for p ascending, skipping a[i,p] == 0
// (either sign), then + bias[j] (fused linears), then max(., 0) (ReLU).
// That is kern::matmul_fwd's ikj loop with every multiply-add fused into one
// FMA; the blocking only decides where partial sums live, so results do not
// depend on it. A block of R rows x V ymm accumulators stays in registers
// across the whole k loop and each output row is stored once, bias and ReLU
// applied at the store. Columns past the last full 8-lane group (all of them
// when n < 8, e.g. the Performer normaliser's n = 1) use scalar std::fma
// accumulators interleaved over R rows.

// Rows per block: about eight independent FMA chains, enough to cover the
// FMA latency on two ports.
template <int V>
constexpr int kBlockRows = V <= 1 ? 8 : 8 / V;

// R rows x 8V columns. `a` is the block's first row (row stride k); `b`,
// `bias` and `o` point at the block's first column (row stride n).
template <int R, int V>
inline void block_fwd(const float* a, const float* b, const float* bias, bool relu, float* o,
                      std::int64_t k, std::int64_t n) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r)
    for (std::int64_t v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * n;
    for (int r = 0; r < R; ++r) {
      const float arp = a[r * k + p];
      if (arp == 0.0f) continue;
      const __m256 av = _mm256_set1_ps(arp);
      for (std::int64_t v = 0; v < V; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8 * v), acc[r][v]);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int r = 0; r < R; ++r) {
    for (std::int64_t v = 0; v < V; ++v) {
      __m256 out = acc[r][v];
      if (bias != nullptr) out = _mm256_add_ps(out, _mm256_loadu_ps(bias + 8 * v));
      if (relu) out = _mm256_max_ps(out, zero);
      _mm256_storeu_ps(o + r * n + 8 * v, out);
    }
  }
}

// R rows x one column, scalar accumulators (same pointer layout, V = 0).
template <int R>
inline void block_fwd_col(const float* a, const float* b, const float* bias, bool relu,
                          float* o, std::int64_t k, std::int64_t n) {
  float acc[R] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const float bp = b[p * n];
    for (int r = 0; r < R; ++r) {
      const float arp = a[r * k + p];
      if (arp != 0.0f) acc[r] = std::fma(arp, bp, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float out = acc[r];
    if (bias != nullptr) out += *bias;
    if (relu) out = kern::relu1(out);
    o[r * n] = out;
  }
}

// `rows` rows of one column panel (V ymm wide, or one scalar column when
// V == 0): blocks of R rows, then the remainder in halving blocks.
template <int R, int V>
inline void panel_fwd(const float* a, const float* b, const float* bias, bool relu, float* o,
                      std::int64_t rows, std::int64_t k, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + R <= rows; i += R) {
    if constexpr (V == 0)
      block_fwd_col<R>(a + i * k, b, bias, relu, o + i * n, k, n);
    else
      block_fwd<R, V>(a + i * k, b, bias, relu, o + i * n, k, n);
  }
  if constexpr (R > 1) panel_fwd<R / 2, V>(a + i * k, b, bias, relu, o + i * n, rows - i, k, n);
}

// Output rows [i0, i1) of O = A(m,k) B(k,n) [+ bias] [ReLU]: 32-column
// panels, then the remaining full 8-lane groups as one panel, then the
// scalar columns. `bias` may be null (plain matmul: no add at all).
inline void rows_fwd(const float* a, const float* b, const float* bias, bool relu, float* o,
                     std::int64_t i0, std::int64_t i1, std::int64_t k, std::int64_t n) {
  a += i0 * k;
  o += i0 * n;
  const std::int64_t rows = i1 - i0;
  const auto bias_at = [bias](std::int64_t j) { return bias == nullptr ? nullptr : bias + j; };
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32)
    panel_fwd<kBlockRows<4>, 4>(a, b + j, bias_at(j), relu, o + j, rows, k, n);
  const std::int64_t groups = (n - j) / 8;
  if (groups == 3)
    panel_fwd<kBlockRows<3>, 3>(a, b + j, bias_at(j), relu, o + j, rows, k, n);
  else if (groups == 2)
    panel_fwd<kBlockRows<2>, 2>(a, b + j, bias_at(j), relu, o + j, rows, k, n);
  else if (groups == 1)
    panel_fwd<kBlockRows<1>, 1>(a, b + j, bias_at(j), relu, o + j, rows, k, n);
  for (j += 8 * groups; j < n; ++j)
    panel_fwd<kBlockRows<0>, 0>(a, b + j, bias_at(j), relu, o + j, rows, k, n);
}

// Register-blocked dB micro-kernel: the forward blocking turned around, with
// dB rows in place of output rows and the i loop in place of the k loop.
// Every dB element follows one fixed sequence: start from its current value,
// then acc = fma(a[i,p], dc[i,j], acc) for i ascending, skipping a[i,p] == 0
// (either sign). That is kern::matmul_db's axpy loop with every multiply-add
// fused into one FMA. A block of R dB rows x V ymm columns is loaded once,
// stays in registers across the whole i loop and is stored once. Columns
// past the last full 8-lane group use scalar std::fma accumulators
// interleaved over R rows.

// R dB rows x 8V columns. `a` is the block's first column of A (row stride
// inner); `dc` and `db` point at the block's first column (row stride cols).
template <int R, int V>
inline void block_db(const float* dc, const float* a, float* db, std::int64_t rows,
                     std::int64_t inner, std::int64_t cols) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r)
    for (std::int64_t v = 0; v < V; ++v) acc[r][v] = _mm256_loadu_ps(db + r * cols + 8 * v);
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* ai = a + i * inner;
    __m256 d[V];
    for (std::int64_t v = 0; v < V; ++v) d[v] = _mm256_loadu_ps(dc + i * cols + 8 * v);
    for (int r = 0; r < R; ++r) {
      if (ai[r] == 0.0f) continue;
      const __m256 av = _mm256_set1_ps(ai[r]);
      for (std::int64_t v = 0; v < V; ++v) acc[r][v] = _mm256_fmadd_ps(av, d[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r)
    for (std::int64_t v = 0; v < V; ++v) _mm256_storeu_ps(db + r * cols + 8 * v, acc[r][v]);
}

// R dB rows x one column, scalar accumulators (same pointer layout, V = 0).
template <int R>
inline void block_db_col(const float* dc, const float* a, float* db, std::int64_t rows,
                         std::int64_t inner, std::int64_t cols) {
  float acc[R];
  for (int r = 0; r < R; ++r) acc[r] = db[r * cols];
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* ai = a + i * inner;
    const float d = dc[i * cols];
    for (int r = 0; r < R; ++r)
      if (ai[r] != 0.0f) acc[r] = std::fma(ai[r], d, acc[r]);
  }
  for (int r = 0; r < R; ++r) db[r * cols] = acc[r];
}

// `count` dB rows of one column panel (V ymm wide, or one scalar column when
// V == 0): blocks of R rows, then the remainder in halving blocks.
template <int R, int V>
inline void panel_db(const float* dc, const float* a, float* db, std::int64_t count,
                     std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  std::int64_t p = 0;
  for (; p + R <= count; p += R) {
    if constexpr (V == 0)
      block_db_col<R>(dc, a + p, db + p * cols, rows, inner, cols);
    else
      block_db<R, V>(dc, a + p, db + p * cols, rows, inner, cols);
  }
  if constexpr (R > 1)
    panel_db<R / 2, V>(dc, a + p, db + p * cols, count - p, rows, inner, cols);
}

// dB rows [p0, p1) of dB(inner,cols) += A(rows,inner)^T dC(rows,cols), in
// the forward's column panels: 32 wide, then the remaining full 8-lane
// groups as one panel, then the scalar columns.
inline void rows_db(const float* dc, const float* a, float* db, std::int64_t p0, std::int64_t p1,
                    std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  a += p0;
  db += p0 * cols;
  const std::int64_t count = p1 - p0;
  std::int64_t j = 0;
  for (; j + 32 <= cols; j += 32)
    panel_db<kBlockRows<4>, 4>(dc + j, a, db + j, count, rows, inner, cols);
  const std::int64_t groups = (cols - j) / 8;
  if (groups == 3)
    panel_db<kBlockRows<3>, 3>(dc + j, a, db + j, count, rows, inner, cols);
  else if (groups == 2)
    panel_db<kBlockRows<2>, 2>(dc + j, a, db + j, count, rows, inner, cols);
  else if (groups == 1)
    panel_db<kBlockRows<1>, 1>(dc + j, a, db + j, count, rows, inner, cols);
  for (j += 8 * groups; j < cols; ++j)
    panel_db<kBlockRows<0>, 0>(dc + j, a, db + j, count, rows, inner, cols);
}

// Register-blocked dA micro-kernel. Every dA element follows one fixed
// sequence: eight lanes start at +0.0, and lane l takes acc = fma(dc[i,j],
// b[p,j], acc) for the column j = 8c + l of each full 8-column chunk c,
// chunks ascending; the lanes are summed as ((v0+v4)+(v2+v6)) +
// ((v1+v5)+(v3+v7)); the cols % 8 tail continues that sum with std::fma
// over j ascending; and the result is added to dA[i,p] once. A block of
// eight p runs together, each with its own 8-lane accumulator, so each dC
// chunk is loaded once per eight dot products and one transpose-add reduces
// all eight; the block then walks every row of the chunk with its B rows
// hot in L1.

// Lane q of the result is the lane sum of acc[q], paired as above.
inline __m256 hsum8x8(const __m256 (&acc)[8]) {
  // v[l] + v[l+4]: accumulator q in the low half, q + 4 in the high half.
  const auto fold = [](__m256 lo, __m256 hi) {
    return _mm256_add_ps(_mm256_permute2f128_ps(lo, hi, 0x20),
                         _mm256_permute2f128_ps(lo, hi, 0x31));
  };
  const __m256 h0 = fold(acc[0], acc[4]);
  const __m256 h1 = fold(acc[1], acc[5]);
  const __m256 h2 = fold(acc[2], acc[6]);
  const __m256 h3 = fold(acc[3], acc[7]);
  // (v0+v4)+(v2+v6) and (v1+v5)+(v3+v7) of two accumulators per register.
  const __m256 s01 = _mm256_add_ps(_mm256_unpacklo_ps(h0, h1), _mm256_unpackhi_ps(h0, h1));
  const __m256 s23 = _mm256_add_ps(_mm256_unpacklo_ps(h2, h3), _mm256_unpackhi_ps(h2, h3));
  return _mm256_add_ps(_mm256_shuffle_ps(s01, s23, _MM_SHUFFLE(1, 0, 1, 0)),
                       _mm256_shuffle_ps(s01, s23, _MM_SHUFFLE(3, 2, 3, 2)));
}

// dA[i, p..p+P) for every row i, P <= 8. `b` is row p of B (row stride
// cols); `da` points at dA[0,p] (row stride inner).
template <int P>
inline void block_da(const float* dc, const float* b, float* da, std::int64_t rows,
                     std::int64_t inner, std::int64_t cols) {
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(P), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* dci = dc + i * cols;
    float* dai = da + i * inner;
    __m256 acc[8];
    for (int q = 0; q < 8; ++q) acc[q] = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 d = _mm256_loadu_ps(dci + j);
      for (int q = 0; q < P; ++q)
        acc[q] = _mm256_fmadd_ps(d, _mm256_loadu_ps(b + q * cols + j), acc[q]);
    }
    __m256 sum = hsum8x8(acc);
    if (j < cols) {
      alignas(32) float s[8];
      _mm256_store_ps(s, sum);
      for (; j < cols; ++j)
        for (int q = 0; q < P; ++q) s[q] = std::fma(dci[j], b[q * cols + j], s[q]);
      sum = _mm256_load_ps(s);
    }
    if constexpr (P == 8)
      _mm256_storeu_ps(dai, _mm256_add_ps(_mm256_loadu_ps(dai), sum));
    else
      _mm256_maskstore_ps(dai, mask, _mm256_add_ps(_mm256_maskload_ps(dai, mask), sum));
  }
}

// dA columns [0, count) of `rows` rows: blocks of P columns, then the
// remainder in halving blocks.
template <int P>
inline void panel_da(const float* dc, const float* b, float* da, std::int64_t count,
                     std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  std::int64_t p = 0;
  for (; p + P <= count; p += P) block_da<P>(dc, b + p * cols, da + p, rows, inner, cols);
  if constexpr (P > 1)
    panel_da<P / 2>(dc, b + p * cols, da + p, count - p, rows, inner, cols);
}

// Exact horizontal sum of eight int32 lanes (integer adds are associative,
// so any reduction order gives the same bits).
inline std::int32_t hsum8i(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
  return _mm_cvtsi128_si32(s);
}

// Exact int32 dot product of two int8 rows: 32 codes per iteration, each
// 16-byte half sign-extended to int16 and multiply-added pairwise into int32
// lanes (products are bounded by 127^2, so the epi16 madd cannot wrap).
// Bitwise identical to the scalar backend's dot_q8 — only the fp32 combine
// in q8_combine rounds, and it is shared.
inline std::int32_t dot_q8(const std::int8_t* x, const std::int8_t* w, std::int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p));
    const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p));
    const __m256i xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
    const __m256i wlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
    const __m256i xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
    const __m256i whi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wv, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, wlo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, whi));
  }
  std::int32_t sum = hsum8i(acc);
  for (; p < k; ++p)
    sum += static_cast<std::int32_t>(x[p]) * static_cast<std::int32_t>(w[p]);
  return sum;
}

class Avx2Backend final : public KernelBackend {
 public:
  const char* name() const override { return "avx2"; }

  void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m, std::int64_t k,
                  std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(a, b, nullptr, false, o, i0, i1, k, n);
    });
  }

  void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    // Chunks own dA rows, as in kern::matmul_da.
    par::parallel_for(0, rows, par::grain_for(inner * cols),
                      [&](std::int64_t i0, std::int64_t i1) {
      panel_da<8>(dc + i0 * cols, b, da + i0 * inner, inner, i1 - i0, inner, cols);
    });
  }

  void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    // Chunks own dB rows [p0, p1), as in kern::matmul_db.
    par::parallel_for(0, inner, par::grain_for(rows * cols),
                      [&](std::int64_t p0, std::int64_t p1) {
      rows_db(dc, a, db, p0, p1, rows, inner, cols);
    });
  }

  void linear_fwd(const float* x, const float* w, const float* bias, float* o, std::int64_t m,
                  std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(x, w, bias, false, o, i0, i1, k, n);
    });
  }

  void linear_relu_fwd(const float* x, const float* w, const float* bias, float* o,
                       std::int64_t m, std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(x, w, bias, true, o, i0, i1, k, n);
    });
  }

  void gate_chain_fwd(const float* e_hat, const float* lm, float* eta, float* msg,
                      std::int64_t count) const override {
    // The sigmoid is exp-bound, not SIMD-bound; the win here is the single
    // fused pass, same as scalar.
    par::parallel_for(0, count, par::grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float s = kern::sigmoid1(e_hat[i]);
        eta[i] = s;
        msg[i] = s * lm[i];
      }
    });
  }

  void linear_fwd_q8(const std::int8_t* xq, const float* sx, const std::int8_t* wq,
                     const float* sw, const float* bias, float* o, std::int64_t m,
                     std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::int8_t* xi = xq + i * k;
        float* oi = o + i * n;
        const float sxi = sx[i];
        for (std::int64_t j = 0; j < n; ++j)
          oi[j] = q8_combine(sxi, sw[j], dot_q8(xi, wq + j * k, k), bias[j]);
      }
    });
  }

  void linear_relu_fwd_q8(const std::int8_t* xq, const float* sx, const std::int8_t* wq,
                          const float* sw, const float* bias, float* o, std::int64_t m,
                          std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::int8_t* xi = xq + i * k;
        float* oi = o + i * n;
        const float sxi = sx[i];
        for (std::int64_t j = 0; j < n; ++j)
          oi[j] = kern::relu1(q8_combine(sxi, sw[j], dot_q8(xi, wq + j * k, k), bias[j]));
      }
    });
  }
};

}  // namespace

const KernelBackend* avx2_backend() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const Avx2Backend backend;
  return &backend;
}

}  // namespace cgps::exec

#else  // !(__AVX2__ && __FMA__)

namespace cgps::exec {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace cgps::exec

#endif
