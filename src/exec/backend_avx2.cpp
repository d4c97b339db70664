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
// for bit on every non-NaN output. qkv_fwd and performer_attend_fwd keep the
// per-element sequences of this backend's calls they replace. No allocation
// anywhere in this file (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <immintrin.h>

#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

namespace cgps::exec {

namespace {

// Register-blocked forward micro-kernel shared by matmul_fwd, linear_fwd,
// linear_relu_fwd and qkv_fwd. Every
// output element follows one fixed sequence: start at +0.0, acc = fma(a[i,p],
// b[p,j], acc) for p ascending, skipping a[i,p] == 0 (either sign), then the
// sink's store: + bias[j] (fused linears), then max(., 0) (ReLU), or the
// q/k scale (qkv_fwd). That is kern::matmul_fwd's ikj loop with every
// multiply-add fused into one FMA; the blocking only decides where partial
// sums live, so results do not depend on it. A block of R rows x V ymm
// accumulators stays in registers across the whole k loop and each output
// row is stored once. Columns past the last full 8-lane group (all of them
// when n < 8) use scalar std::fma accumulators interleaved over R rows.

// Rows per block: about eight independent FMA chains, enough to cover the
// FMA latency on two ports.
template <int V>
constexpr int kBlockRows = V <= 1 ? 8 : 8 / V;

// Output sinks. rows_fwd places a sink at its first row (at_row) and at each
// column panel (at_col), panel_fwd at each block of rows; a block then hands
// over lane group v of its row r (store) or its one scalar column
// (store_col), each exactly once.

// Row-major O(m, n), then + bias[j] when bias is not null, then max(., 0)
// when relu.
struct DenseOut {
  float* o;
  std::int64_t n;
  const float* bias;
  bool relu;

  DenseOut at_row(std::int64_t i) const { return {o + i * n, n, bias, relu}; }
  DenseOut at_col(std::int64_t j) const {
    return {o + j, n, bias == nullptr ? nullptr : bias + j, relu};
  }
  void store(int r, int v, __m256 acc) const {
    if (bias != nullptr) acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias + 8 * v));
    if (relu) acc = _mm256_max_ps(acc, _mm256_setzero_ps());
    _mm256_storeu_ps(o + r * n + 8 * v, acc);
  }
  void store_col(int r, float acc) const {
    if (bias != nullptr) acc += *bias;
    if (relu) acc = kern::relu1(acc);
    o[r * n] = acc;
  }
};

// The packed q/k/v projection X [Wq0|Wk0|Wv0|Wq1|...]: column j is column
// j % dh of block b = j / dh, which is head b / 3's q, k or v (b % 3), an
// m x dh matrix at q/k/v + (b / 3) m dh. q and k are multiplied by `scale`
// at the store, v by 1 (exact). When dh % 8 == 0 each lane group lies inside
// one block, and at_col resolves the panel's (at most four) groups once.
struct QkvOut {
  float* q;
  float* k;
  float* v;
  std::int64_t m, dh, n;  // n = 3 * heads * dh
  float scale;
  std::int64_t row = 0, col = 0;
  float* group[4] = {};  // each lane group's destination in row `row`
  float group_scale[4] = {};

  QkvOut at_row(std::int64_t i) const {
    QkvOut s = *this;
    s.row += i;
    for (float*& g : s.group)
      if (g != nullptr) g += i * dh;
    return s;
  }
  QkvOut at_col(std::int64_t j) const {
    QkvOut s = *this;
    s.col += j;
    if (dh % 8 != 0) return s;
    std::int64_t b = s.col / dh, c = s.col % dh;
    for (int g = 0; g < 4 && s.col + 8 * g < n; ++g) {
      s.group[g] = block(b, s.group_scale[g]) + row * dh + c;
      c += 8;
      if (c == dh) {
        c = 0;
        ++b;
      }
    }
    return s;
  }
  void store(int r, int g, __m256 acc) const {
    if (group[g] != nullptr)
      _mm256_storeu_ps(group[g] + r * dh, _mm256_mul_ps(acc, _mm256_set1_ps(group_scale[g])));
    else
      store_lanes(r, 8 * g, acc);
  }
  void store_col(int r, float acc) const { store_at(r, 0, acc); }

 private:
  // Row 0 of block b's save, and its factor.
  float* block(std::int64_t b, float& factor) const {
    factor = b % 3 == 2 ? 1.0f : scale;
    return (b % 3 == 0 ? q : b % 3 == 1 ? k : v) + (b / 3) * m * dh;
  }
  void store_at(int r, std::int64_t c, float acc) const {
    const std::int64_t j = col + c;
    float factor = 1.0f;
    float* dst = block(j / dh, factor) + (row + r) * dh + j % dh;
    *dst = acc * factor;
  }
  // A lane group that straddles two blocks (dh % 8 != 0), one lane at a
  // time. Out of line, so the vector store above stays lean.
  [[gnu::noinline]] void store_lanes(int r, std::int64_t c, __m256 acc) const {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    for (int l = 0; l < 8; ++l) store_at(r, c + l, lanes[l]);
  }
};

// R rows x 8V columns. `a` is the block's first row (row stride k); `b`
// points at the block's first column (row stride n).
template <int R, int V, class Out>
inline void block_fwd(const float* a, const float* b, const Out out, std::int64_t k,
                      std::int64_t n) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * n;
    for (int r = 0; r < R; ++r) {
      const float arp = a[r * k + p];
      if (arp == 0.0f) continue;
      const __m256 av = _mm256_set1_ps(arp);
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8 * v), acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v) out.store(r, v, acc[r][v]);
}

// R rows x one column, scalar accumulators (same pointer layout, V = 0).
template <int R, class Out>
inline void block_fwd_col(const float* a, const float* b, const Out out, std::int64_t k,
                          std::int64_t n) {
  float acc[R] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const float bp = b[p * n];
    for (int r = 0; r < R; ++r) {
      const float arp = a[r * k + p];
      if (arp != 0.0f) acc[r] = std::fma(arp, bp, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) out.store_col(r, acc[r]);
}

// `rows` rows of one column panel (V ymm wide, or one scalar column when
// V == 0): blocks of R rows, then the remainder in halving blocks.
template <int R, int V, class Out>
inline void panel_fwd(const float* a, const float* b, const Out& out, std::int64_t rows,
                      std::int64_t k, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + R <= rows; i += R) {
    if constexpr (V == 0)
      block_fwd_col<R>(a + i * k, b, out.at_row(i), k, n);
    else
      block_fwd<R, V>(a + i * k, b, out.at_row(i), k, n);
  }
  if constexpr (R > 1) panel_fwd<R / 2, V>(a + i * k, b, out.at_row(i), rows - i, k, n);
}

// Output rows [i0, i1) of A(m,k) B(k,n) into `out`: 32-column panels, then
// the remaining full 8-lane groups as one panel, then the scalar columns.
template <class Out>
inline void rows_fwd(const float* a, const float* b, const Out& out, std::int64_t i0,
                     std::int64_t i1, std::int64_t k, std::int64_t n) {
  a += i0 * k;
  const Out o = out.at_row(i0);
  const std::int64_t rows = i1 - i0;
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) panel_fwd<kBlockRows<4>, 4>(a, b + j, o.at_col(j), rows, k, n);
  const std::int64_t groups = (n - j) / 8;
  if (groups == 3)
    panel_fwd<kBlockRows<3>, 3>(a, b + j, o.at_col(j), rows, k, n);
  else if (groups == 2)
    panel_fwd<kBlockRows<2>, 2>(a, b + j, o.at_col(j), rows, k, n);
  else if (groups == 1)
    panel_fwd<kBlockRows<1>, 1>(a, b + j, o.at_col(j), rows, k, n);
  for (j += 8 * groups; j < n; ++j) panel_fwd<kBlockRows<0>, 0>(a, b + j, o.at_col(j), rows, k, n);
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

// Lanes [0, n) of a maskload/maskstore mask (all eight when n >= 8).
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

// The Performer attend of one graph. Every element keeps the sequence of
// the per-graph matmul_fwd calls (backend.hpp). FAVOR+ features are
// exp(.) * scale, which is zero only on underflow, so phi is tested for
// zeros eight entries at a time: a group without zeros runs its eight fmas
// without a branch, any other group skips its zeros one by one. Lanes past
// fm load as zero, so a short group always takes the skipping path and
// never reads past its row.

// Zero lanes of eight phi entries, one bit each.
inline int zero_lanes(__m256 x) {
  return _mm256_movemask_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_EQ_OQ));
}

// kv rows [m0, m0 + rows) x columns [c, c + 8) of one graph, rows <= 8:
// from +0.0, fma(phi_k[i,m], v[i,j], acc) over the len rows ascending,
// skipping phi_k == 0. With z, also z[m0, m0 + rows): +0.0 plus phi_k[i,m]
// over the rows ascending. That is matmul_fwd(phi_k^T, ones): its fma(phi_k,
// 1, acc) rounds phi_k + acc once, and its skipped ±0.0 terms could not
// change z, which starts at +0.0 and so never becomes -0.0.
template <bool MaskedCols>
inline void kv_block(const float* phi_k, const float* v, std::int64_t len, std::int64_t dh,
                     std::int64_t fm, std::int64_t rows, __m256i cols_mask, float* kv,
                     float* z) {
  const __m256i rows_mask = lane_mask(rows);
  __m256 acc[8];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  __m256 zacc = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < len; ++i) {
    const float* a = phi_k + i * fm;
    const __m256 pk = _mm256_maskload_ps(a, rows_mask);
    if (z != nullptr) zacc = _mm256_add_ps(zacc, pk);
    const __m256 vi = load8<MaskedCols>(v + i * dh, cols_mask);
    const int zeros = zero_lanes(pk);
    if (zeros == 0) {
      for (int r = 0; r < 8; ++r) acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r]), vi, acc[r]);
    } else {
      for (int r = 0; r < 8; ++r)
        if ((zeros >> r & 1) == 0) acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r]), vi, acc[r]);
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) store8<MaskedCols>(kv + r * dh, cols_mask, acc[r]);
  if (z != nullptr) _mm256_maskstore_ps(z, rows_mask, zacc);
}

// numer[i, c..c+8) of one row: from +0.0, fma(phi_q[i,m], kv[m,j], acc) over
// m ascending, skipping phi_q == 0. With denom (the first column chunk),
// also denom[i]: the same chain over z as one scalar std::fma per m, then
// + 1e-6.
template <bool MaskedCols>
inline __m256 numer_chunk(const float* a, const float* kv, const float* z, std::int64_t dh,
                          std::int64_t fm, __m256i cols_mask, float* denom) {
  __m256 acc = _mm256_setzero_ps();
  float d = 0.0f;
  const auto step = [&](std::int64_t m) {
    acc = _mm256_fmadd_ps(_mm256_set1_ps(a[m]), load8<MaskedCols>(kv + m * dh, cols_mask), acc);
    if (denom != nullptr) d = std::fma(a[m], z[m], d);
  };
  for (std::int64_t m0 = 0; m0 < fm; m0 += 8) {
    const int zeros = zero_lanes(_mm256_maskload_ps(a + m0, lane_mask(fm - m0)));
    if (zeros == 0) {
      for (int r = 0; r < 8; ++r) step(m0 + r);
    } else {
      for (int r = 0; r < 8; ++r)
        if ((zeros >> r & 1) == 0) step(m0 + r);
    }
  }
  if (denom != nullptr) *denom = d + 1e-6f;
  return acc;
}

inline void attend_graph(const float* phi_q, const float* phi_k, const float* v,
                         std::int64_t len, std::int64_t dh, std::int64_t fm, float* kv, float* z,
                         float* numer, float* denom, float* out, std::int64_t out_stride) {
  const __m256i tail = lane_mask(dh % 8);
  for (std::int64_t m0 = 0; m0 < fm; m0 += 8) {
    const std::int64_t rows = fm - m0 < 8 ? fm - m0 : 8;
    std::int64_t c = 0;
    for (; c + 8 <= dh; c += 8)
      kv_block<false>(phi_k + m0, v + c, len, dh, fm, rows, tail, kv + m0 * dh + c,
                      c == 0 ? z + m0 : nullptr);
    if (c < dh)
      kv_block<true>(phi_k + m0, v + c, len, dh, fm, rows, tail, kv + m0 * dh + c,
                     c == 0 ? z + m0 : nullptr);
  }
  for (std::int64_t i = 0; i < len; ++i) {
    const float* a = phi_q + i * fm;
    float* ni = numer + i * dh;
    float* oi = out + i * out_stride;
    std::int64_t c = 0;
    for (; c + 8 <= dh; c += 8) {
      const __m256 acc =
          numer_chunk<false>(a, kv + c, z, dh, fm, tail, c == 0 ? denom + i : nullptr);
      store8<false>(ni + c, tail, acc);
      store8<false>(oi + c, tail, _mm256_div_ps(acc, _mm256_set1_ps(denom[i])));
    }
    if (c < dh) {
      const __m256 acc =
          numer_chunk<true>(a, kv + c, z, dh, fm, tail, c == 0 ? denom + i : nullptr);
      store8<true>(ni + c, tail, acc);
      store8<true>(oi + c, tail, _mm256_div_ps(acc, _mm256_set1_ps(denom[i])));
    }
  }
}

class Avx2Backend final : public KernelBackend {
 public:
  const char* name() const override { return "avx2"; }

  void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m, std::int64_t k,
                  std::int64_t n) const override {
    const DenseOut out{o, n, nullptr, false};
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(a, b, out, i0, i1, k, n);
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
    const DenseOut out{o, n, bias, false};
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(x, w, out, i0, i1, k, n);
    });
  }

  void linear_relu_fwd(const float* x, const float* w, const float* bias, float* o,
                       std::int64_t m, std::int64_t k, std::int64_t n) const override {
    const DenseOut out{o, n, bias, true};
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(x, w, out, i0, i1, k, n);
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

  void qkv_fwd(const float* x, const float* wpack, float* q, float* k, float* v, std::int64_t m,
               std::int64_t dim, std::int64_t heads, std::int64_t dh,
               float qk_scale) const override {
    const std::int64_t n = 3 * heads * dh;
    const QkvOut out{q, k, v, m, dh, n, qk_scale};
    par::parallel_for(0, m, par::grain_for(dim * n), [&](std::int64_t i0, std::int64_t i1) {
      rows_fwd(x, wpack, out, i0, i1, dim, n);
    });
  }

  void performer_attend_fwd(const float* phi_q, const float* phi_k, const float* v,
                            const std::int64_t* graph_ptr, std::int64_t graphs, std::int64_t dh,
                            std::int64_t fm, float* kv, float* z, float* numer, float* denom,
                            float* out, std::int64_t out_stride) const override {
    par::parallel_for(0, graphs, attend_grain(graph_ptr, graphs, dh, fm),
                      [&](std::int64_t g0, std::int64_t g1) {
      for (std::int64_t g = g0; g < g1; ++g) {
        const std::int64_t s = graph_ptr[g], len = graph_ptr[g + 1] - s;
        if (len == 0) continue;
        attend_graph(phi_q + s * fm, phi_k + s * fm, v + s * dh, len, dh, fm, kv + g * fm * dh,
                     z + g * fm, numer + s * dh, denom + s, out + s * out_stride, out_stride);
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
