// AVX2/FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/exec/CMakeLists.txt) so the rest of the build keeps
// its portable baseline; dispatch is a runtime CPU check (backend.cpp).
//
// Accuracy contract: vector lanes + FMA re-associate *within* one output
// element, so results differ from scalar by rounding only (planned AVX2 vs
// eager agrees to ~1e-5 relative, gradcheck-validated). The parallel
// partitioning and the element iteration order are identical to kern::, so
// results are still deterministic at every thread count. favor_fwd and
// gate_chain_fwd re-associate nothing: with exp8 below they match scalar bit
// for bit on every non-NaN output. No allocation anywhere in this file
// (cgps_lint: exec-kernel-alloc).
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

// Lanes [0, n) of a maskload/maskstore mask, n <= 8.
inline __m256i lane_mask(std::int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
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
  const __m256i mask = lane_mask(P);
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

// exp8: expf on eight lanes, bit for bit glibc's (sysdeps/ieee754/flt-32/
// e_expf.c, the table-driven double-precision algorithm of glibc >= 2.27, in
// the FMA build its ifunc picks on AVX2 CPUs). In double, z = x * 32/ln2 is
// split as k + r with k = round(z) (the 1.5 * 2^52 shift); then exp(x) =
// 2^(k/32) * 2^(r/32), the first factor a table entry with k's high bits
// added to its exponent field, the second a cubic in r, and one rounding to
// float. r must be the single fused multiply-subtract the contracted C
// computes: a separate multiply and subtract is one ulp off at x =
// 0x1.04845ep+5 and -0x1.f8cbb2p+5. glibc takes separate paths for |x| >= 88,
// inf and NaN, so an 8-lane group holding any of them is recomputed with
// std::exp.

// kExpTable[i] = bits(2^(i/32)) - (i << 47), so 2^(k/32) is the double with
// bits kExpTable[k % 32] + (k << 47).
alignas(32) constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;  // 32 / ln 2
constexpr double kExpShift = 0x1.8p+52;                     // rounds z to an integer
// glibc's poly_scaled: 2^(r/32) ~= C0 r^3 + C1 r^2 + C2 r + 1.
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / (32 * 32 * 32);
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / (32 * 32);
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
// Bits of 88.0f: lanes whose |x| bits reach it take glibc's special paths.
constexpr std::int32_t kExpSpecialBits = 0x42b00000;

// Four lanes of the fast path, |x| < 88.
inline __m128 exp4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d kd_shifted = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, _mm256_sub_pd(kd_shifted, shift));
  const __m256i t = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExpTable),
                                           _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

inline __m256 exp8(__m256 x) {
  const __m256i abs_bits =
      _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fffffff));
  const __m256i special = _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(kExpSpecialBits - 1));
  if (!_mm256_testz_si256(special, special)) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, x);
    for (float& v : lanes) v = std::exp(v);
    return _mm256_load_ps(lanes);
  }
  return _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)), exp4(_mm256_castps256_ps128(x)));
}

// 0.5 * sum_j u[j]^2 over j ascending from +0.0, each square rounded on its
// own as in the scalar backend. A plain u * u would be fused into the add in
// this -mfma TU; fma(u, u, -0.0) is exactly the rounded square (adding -0.0
// changes no product, not even +0.0) and its result is never fused again.
inline float half_sq_norm(const float* u, std::int64_t dh) {
  float sum = 0.0f;
  for (std::int64_t j = 0; j < dh; ++j) sum += std::fma(u[j], u[j], -0.0f);
  return sum * 0.5f;
}

// Eight lanes, or the lanes of `mask` when Masked (a row or chunk tail).
template <bool Masked>
inline __m256 load8(const float* p, __m256i mask) {
  if constexpr (Masked) return _mm256_maskload_ps(p, mask);
  else return _mm256_loadu_ps(p);
}
template <bool Masked>
inline void store8(float* p, __m256i mask, __m256 v) {
  if constexpr (Masked) _mm256_maskstore_ps(p, mask, v);
  else _mm256_storeu_ps(p, v);
}

// e = exp8(proj - half), phi = e * scale.
template <bool Masked>
inline void favor8(const float* proj, __m256 half, __m256 scale, float* e, float* phi,
                   __m256i mask) {
  const __m256 ev = exp8(_mm256_sub_ps(load8<Masked>(proj, mask), half));
  store8<Masked>(e, mask, ev);
  store8<Masked>(phi, mask, _mm256_mul_ps(ev, scale));
}

// eta = sigmoid(v), msg = eta * lm. kern::sigmoid1's two branches share
// e = exp(-|v|): 1 / (1 + e) for v >= 0, e / (1 + e) otherwise.
template <bool Masked>
inline void gate8(const float* v, const float* lm, float* eta, float* msg, __m256i mask) {
  const __m256 x = load8<Masked>(v, mask);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp8(_mm256_or_ps(x, _mm256_set1_ps(-0.0f)));
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 s = _mm256_div_ps(_mm256_blendv_ps(e, one, nonneg), _mm256_add_ps(one, e));
  store8<Masked>(eta, mask, s);
  store8<Masked>(msg, mask, _mm256_mul_ps(s, load8<Masked>(lm, mask)));
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
    par::parallel_for(0, count, par::grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
      const __m256i tail = lane_mask((hi - lo) % 8);
      std::int64_t i = lo;
      for (; i + 8 <= hi; i += 8) gate8<false>(e_hat + i, lm + i, eta + i, msg + i, tail);
      if (i < hi) gate8<true>(e_hat + i, lm + i, eta + i, msg + i, tail);
    });
  }

  void favor_fwd(const float* proj, const float* u, float* e, float* phi, std::int64_t rows,
                 std::int64_t dh, std::int64_t fm, float scale) const override {
    const __m256i tail = lane_mask(fm % 8);
    const __m256 vscale = _mm256_set1_ps(scale);
    par::parallel_for(0, rows, par::grain_for(fm), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const __m256 half = _mm256_set1_ps(half_sq_norm(u + i * dh, dh));
        const std::int64_t o = i * fm;
        std::int64_t j = 0;
        for (; j + 8 <= fm; j += 8)
          favor8<false>(proj + o + j, half, vscale, e + o + j, phi + o + j, tail);
        if (j < fm) favor8<true>(proj + o + j, half, vscale, e + o + j, phi + o + j, tail);
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
