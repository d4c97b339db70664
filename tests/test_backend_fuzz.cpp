// Backend fuzz sweep (scalar vs AVX2) over odd/prime shapes, including
// zero-row batches and sizes that straddle every vector-width boundary. The
// fp32 kernels may re-associate within one output element, so they are held
// to a relative tolerance against scalar; the AVX2 matmul kernels, forward
// and backward, must also match, bit for bit, an in-test reference of their
// per-element sequence. The exp kernels (favor_fwd, gate_chain_fwd), whose
// AVX2 exp is a port of glibc's expf, must match bitwise too, and so must the
// Performer's wide kernels (qkv_fwd, performer_attend_fwd and the backward's
// performer_attend_bwd and favor_bwd) match the calls they replace, on each
// backend.
#include "exec/backend.hpp"
#include "tensor/kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <utility>
#include <vector>

namespace cgps {
namespace {

// Odd, prime, and width-straddling dims. 8/16 float lanes all hit
// partial-tail paths somewhere in this set, and 8/16/24/32/48/64
// cover every AVX2 column-panel width of the forward and dB kernels (one to
// four ymm, then a second panel) and every dA row-block size (8, 4, 2, 1).
const std::vector<std::int64_t> kDims = {1,  2,  3,  5,  7,  8,  9,  13, 16,
                                         17, 24, 31, 32, 33, 48, 64, 67};
// Row counts around each AVX2 forward row-block size (8, 4 and 2 rows), so
// full blocks and every halving remainder run.
const std::vector<std::int64_t> kBatchRows = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 31, 33};

std::vector<float> random_floats(std::size_t n, Rng& rng, double lo = -2.0, double hi = 2.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// uniform(-2, 2) never yields an exact zero, so the A-side zero-skip would
// go untested: replace about a fifth of the entries with +0.0 and -0.0, and
// a few with ±1e-30, whose products underflow to a signed zero. A -0.0
// accumulator is what makes a skipped zero observable: fma(±0, b, -0.0) can
// turn it into +0.0.
std::vector<float> random_floats_with_zeros(std::size_t n, Rng& rng) {
  std::vector<float> v = random_floats(n, rng);
  for (float& x : v) {
    const double u = rng.uniform();
    if (u < 0.1) x = 0.0f;
    else if (u < 0.2) x = -0.0f;
    else if (u < 0.25) x = std::copysign(1e-30f, x);
  }
  return v;
}

// The AVX2 forward order, one element at a time: +0.0, then std::fma over p
// ascending skipping a[i,p] == 0, then + bias[j], then ReLU.
std::vector<float> reference_fwd(const std::vector<float>& a, const std::vector<float>& b,
                                 const float* bias, bool relu, std::int64_t m, std::int64_t k,
                                 std::int64_t n) {
  std::vector<float> o(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float aip = a[static_cast<std::size_t>(i * k + p)];
        if (aip != 0.0f) acc = std::fma(aip, b[static_cast<std::size_t>(p * n + j)], acc);
      }
      if (bias != nullptr) acc += bias[j];
      if (relu) acc = acc > 0.0f ? acc : 0.0f;
      o[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  return o;
}

// The AVX2 dA order, one element at a time: eight lanes from +0.0, lane l
// taking std::fma over the columns j = 8c + l of the full 8-column chunks,
// the lanes summed ((v0+v4)+(v2+v6))+((v1+v5)+(v3+v7)), then std::fma over
// the cols % 8 tail, then one add into dA.
void reference_da_into(const float* dc, const float* b, float* da, std::int64_t rows,
                       std::int64_t inner, std::int64_t cols) {
  const std::int64_t full = cols - cols % 8;
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* dci = dc + i * cols;
    for (std::int64_t p = 0; p < inner; ++p) {
      const float* bp = b + p * cols;
      float v[8] = {};
      for (std::int64_t j = 0; j < full; ++j) v[j % 8] = std::fma(dci[j], bp[j], v[j % 8]);
      float s = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
      for (std::int64_t j = full; j < cols; ++j) s = std::fma(dci[j], bp[j], s);
      da[i * inner + p] += s;
    }
  }
}

std::vector<float> reference_da(const std::vector<float>& dc, const std::vector<float>& b,
                                std::vector<float> da, std::int64_t rows, std::int64_t inner,
                                std::int64_t cols) {
  reference_da_into(dc.data(), b.data(), da.data(), rows, inner, cols);
  return da;
}

// The AVX2 dB order, one element at a time: from its current value,
// std::fma over i ascending, skipping a[i,p] == 0.
void reference_db_into(const float* dc, const float* a, float* db, std::int64_t rows,
                       std::int64_t inner, std::int64_t cols) {
  for (std::int64_t p = 0; p < inner; ++p) {
    for (std::int64_t j = 0; j < cols; ++j) {
      float& acc = db[p * cols + j];
      for (std::int64_t i = 0; i < rows; ++i) {
        const float aip = a[i * inner + p];
        if (aip != 0.0f) acc = std::fma(aip, dc[i * cols + j], acc);
      }
    }
  }
}

std::vector<float> reference_db(const std::vector<float>& dc, const std::vector<float>& a,
                                std::vector<float> db, std::int64_t rows, std::int64_t inner,
                                std::int64_t cols) {
  reference_db_into(dc.data(), a.data(), db.data(), rows, inner, cols);
  return db;
}

void expect_rel_close(const std::vector<float>& a, const std::vector<float>& b, float rel,
                      const char* what, std::int64_t m, std::int64_t k, std::int64_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = rel * (1.0f + std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_NEAR(a[i], b[i], tol)
        << what << " m=" << m << " k=" << k << " n=" << n << " at " << i;
  }
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b, const char* what,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " m=" << m << " k=" << k << " n=" << n << " at " << i << ": " << a[i]
        << " vs " << b[i];
}

TEST(BackendFuzz, Fp32KernelsAgreeWithinTolerance) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  Rng rng(2024);
  // The backward inputs come from their own stream, so the sampled shapes
  // and the forward inputs do not depend on them.
  Rng grad_rng(2025);
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        // Keep the sweep cheap: sample the cube rather than exhausting it,
        // but always keep the zero-row and size-1 edges.
        if (m > 1 && k > 1 && n > 1 && rng.uniform() > 0.25) continue;
        const bool zeros = rng.uniform() < 0.5;
        const auto a = zeros ? random_floats_with_zeros(static_cast<std::size_t>(m * k), rng)
                             : random_floats(static_cast<std::size_t>(m * k), rng);
        const auto b = zeros ? random_floats_with_zeros(static_cast<std::size_t>(k * n), rng)
                             : random_floats(static_cast<std::size_t>(k * n), rng);
        const auto bias = random_floats(static_cast<std::size_t>(n), rng);
        std::vector<float> o_scalar(static_cast<std::size_t>(m * n));
        std::vector<float> o_avx2(static_cast<std::size_t>(m * n));

        scalar.matmul_fwd(a.data(), b.data(), o_scalar.data(), m, k, n);
        avx2->matmul_fwd(a.data(), b.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "matmul_fwd", m, k, n);

        scalar.linear_fwd(a.data(), b.data(), bias.data(), o_scalar.data(), m, k, n);
        avx2->linear_fwd(a.data(), b.data(), bias.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "linear_fwd", m, k, n);

        scalar.linear_relu_fwd(a.data(), b.data(), bias.data(), o_scalar.data(), m, k, n);
        avx2->linear_relu_fwd(a.data(), b.data(), bias.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "linear_relu_fwd", m, k, n);

        // dA(m,k) += dC B^T and dB(k,n) += A^T dC, both from a dirty gradient
        // because both kernels accumulate.
        const auto dc = zeros ? random_floats_with_zeros(static_cast<std::size_t>(m * n), grad_rng)
                              : random_floats(static_cast<std::size_t>(m * n), grad_rng);
        const auto da = random_floats(static_cast<std::size_t>(m * k), grad_rng);
        const auto db = random_floats(static_cast<std::size_t>(k * n), grad_rng);
        std::vector<float> g_scalar = da;
        std::vector<float> g_avx2 = da;
        scalar.matmul_da(dc.data(), b.data(), g_scalar.data(), m, k, n);
        avx2->matmul_da(dc.data(), b.data(), g_avx2.data(), m, k, n);
        expect_rel_close(g_scalar, g_avx2, 1e-5f, "matmul_da", m, k, n);

        g_scalar = db;
        g_avx2 = db;
        scalar.matmul_db(dc.data(), a.data(), g_scalar.data(), m, k, n);
        avx2->matmul_db(dc.data(), a.data(), g_avx2.data(), m, k, n);
        expect_rel_close(g_scalar, g_avx2, 1e-5f, "matmul_db", m, k, n);
      }
    }
  }
}

// The AVX2 forward kernels keep every element's exact sequence whatever
// their register blocking, so they match the reference bit for bit,
// including the sign of zero results and the skipped ±0.0 inputs.
TEST(BackendFuzz, Avx2ForwardKernelsMatchReferenceBitwise) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  Rng rng(3031);
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        if (m > 1 && k > 1 && n > 1 && rng.uniform() > 0.25) continue;
        const auto a = random_floats_with_zeros(static_cast<std::size_t>(m * k), rng);
        const auto b = random_floats_with_zeros(static_cast<std::size_t>(k * n), rng);
        const auto bias = random_floats_with_zeros(static_cast<std::size_t>(n), rng);
        std::vector<float> o(static_cast<std::size_t>(m * n));

        avx2->matmul_fwd(a.data(), b.data(), o.data(), m, k, n);
        expect_bitwise(reference_fwd(a, b, nullptr, false, m, k, n), o, "matmul_fwd", m, k, n);

        avx2->linear_fwd(a.data(), b.data(), bias.data(), o.data(), m, k, n);
        expect_bitwise(reference_fwd(a, b, bias.data(), false, m, k, n), o, "linear_fwd", m, k,
                       n);

        avx2->linear_relu_fwd(a.data(), b.data(), bias.data(), o.data(), m, k, n);
        expect_bitwise(reference_fwd(a, b, bias.data(), true, m, k, n), o, "linear_relu_fwd", m,
                       k, n);
      }
    }
  }
}

// A skipped zero is observable only on a -0.0 accumulator: the first
// product underflows to -0.0, and fma(+0.0, 1, -0.0) would give +0.0. Pin
// the skip in every column panel (one to four ymm, scalar columns) and row
// block.
TEST(BackendFuzz, Avx2ForwardSkipsZerosOnNegativeZeroAccumulator) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const std::int64_t k = 2;
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t n : kDims) {
      std::vector<float> a(static_cast<std::size_t>(m * k));
      for (std::int64_t i = 0; i < m; ++i) {
        a[static_cast<std::size_t>(i * k)] = 1e-30f;
        a[static_cast<std::size_t>(i * k + 1)] = 0.0f;
      }
      std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
      for (std::int64_t j = 0; j < n; ++j) b[static_cast<std::size_t>(j)] = -1e-30f;
      const std::vector<float> bias(static_cast<std::size_t>(n), -0.0f);
      std::vector<float> o(static_cast<std::size_t>(m * n));

      avx2->matmul_fwd(a.data(), b.data(), o.data(), m, k, n);
      for (const float v : o) ASSERT_TRUE(v == 0.0f && std::signbit(v)) << "m=" << m << " n=" << n;
      expect_bitwise(reference_fwd(a, b, nullptr, false, m, k, n), o, "matmul_fwd", m, k, n);

      avx2->linear_fwd(a.data(), b.data(), bias.data(), o.data(), m, k, n);
      expect_bitwise(reference_fwd(a, b, bias.data(), false, m, k, n), o, "linear_fwd", m, k,
                     n);

      avx2->linear_relu_fwd(a.data(), b.data(), bias.data(), o.data(), m, k, n);
      expect_bitwise(reference_fwd(a, b, bias.data(), true, m, k, n), o, "linear_relu_fwd", m, k,
                     n);
    }
  }
}

// The AVX2 backward kernels keep every element's exact sequence whatever
// their blocking, so they match the reference bit for bit on every shape,
// from a dirty gradient and with ±0.0 and ±1e-30 inputs.
TEST(BackendFuzz, Avx2BackwardKernelsMatchReferenceBitwise) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  Rng rng(5059);
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        const auto dc = random_floats_with_zeros(static_cast<std::size_t>(m * n), rng);
        const auto a = random_floats_with_zeros(static_cast<std::size_t>(m * k), rng);
        const auto b = random_floats_with_zeros(static_cast<std::size_t>(k * n), rng);
        const auto da0 = random_floats_with_zeros(static_cast<std::size_t>(m * k), rng);
        const auto db0 = random_floats_with_zeros(static_cast<std::size_t>(k * n), rng);

        std::vector<float> da = da0;
        avx2->matmul_da(dc.data(), b.data(), da.data(), m, k, n);
        expect_bitwise(reference_da(dc, b, da0, m, k, n), da, "matmul_da", m, k, n);

        std::vector<float> db = db0;
        avx2->matmul_db(dc.data(), a.data(), db.data(), m, k, n);
        expect_bitwise(reference_db(dc, a, db0, m, k, n), db, "matmul_db", m, k, n);
      }
    }
  }
}

// The dB zero-skip is observable only on a -0.0 gradient: every product
// here is +0.0 (+0.0 x 1 or -0.0 x -1), and fma(±0.0, x, -0.0) would turn
// the -0.0 into +0.0. An all-zero A must leave a -0.0 dB as it is, for
// either sign of zero, in every column panel and row block.
TEST(BackendFuzz, Avx2MatmulDbSkipsZerosOnNegativeZeroGradient) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        std::vector<float> a(static_cast<std::size_t>(m * k));
        std::vector<float> dc(static_cast<std::size_t>(m * n));
        for (std::int64_t i = 0; i < m; ++i) {
          const bool odd = i % 2 == 1;
          std::fill_n(a.begin() + i * k, k, odd ? -0.0f : 0.0f);
          std::fill_n(dc.begin() + i * n, n, odd ? -1.0f : 1.0f);
        }
        std::vector<float> db(static_cast<std::size_t>(k * n), -0.0f);
        avx2->matmul_db(dc.data(), a.data(), db.data(), m, k, n);
        for (const float v : db)
          ASSERT_TRUE(v == 0.0f && std::signbit(v)) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// The Performer forward's wide kernels against the calls they replace, on
// each backend, built from that backend's own matmul_fwd: qkv_fwd against
// one matmul_fwd per head and role plus the q/k scale passes, and
// performer_attend_fwd against the per-graph transpose, four matmul_fwd, the
// ones fill, + 1e-6f and the division.

std::vector<const exec::KernelBackend*> all_backends() {
  std::vector<const exec::KernelBackend*> out = {&exec::scalar_backend()};
  if (const exec::KernelBackend* avx2 = exec::avx2_backend()) out.push_back(avx2);
  return out;
}

void reference_qkv(const exec::KernelBackend& be, const std::vector<float>& x,
                   const std::vector<float>& wpack, float* q, float* k, float* v, std::int64_t m,
                   std::int64_t dim, std::int64_t heads, std::int64_t dh, float scale) {
  const std::int64_t n = 3 * heads * dh;
  std::vector<float> w(static_cast<std::size_t>(dim * dh));
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t r = 0; r < 3; ++r) {
      for (std::int64_t p = 0; p < dim; ++p)
        for (std::int64_t j = 0; j < dh; ++j)
          w[static_cast<std::size_t>(p * dh + j)] =
              wpack[static_cast<std::size_t>(p * n + (3 * h + r) * dh + j)];
      float* dst = (r == 0 ? q : r == 1 ? k : v) + h * m * dh;
      be.matmul_fwd(x.data(), w.data(), dst, m, dim, dh);
      if (r < 2)
        for (std::int64_t i = 0; i < m * dh; ++i) dst[i] *= scale;
    }
  }
}

void reference_attend(const exec::KernelBackend& be, const float* phi_q, const float* phi_k,
                      const float* v, const std::vector<std::int64_t>& graph_ptr, std::int64_t dh,
                      std::int64_t fm, float* kv, float* z, float* numer, float* denom, float* out,
                      std::int64_t out_stride) {
  const auto graphs = static_cast<std::int64_t>(graph_ptr.size()) - 1;
  for (std::int64_t g = 0; g < graphs; ++g) {
    const std::int64_t s = graph_ptr[static_cast<std::size_t>(g)];
    const std::int64_t len = graph_ptr[static_cast<std::size_t>(g) + 1] - s;
    if (len == 0) continue;
    std::vector<float> phikt(static_cast<std::size_t>(fm * len));
    kern::transpose_fwd(phi_k + s * fm, phikt.data(), len, fm);
    float* kvg = kv + g * fm * dh;
    float* zg = z + g * fm;
    be.matmul_fwd(phikt.data(), v + s * dh, kvg, fm, len, dh);
    be.matmul_fwd(phi_q + s * fm, kvg, numer + s * dh, len, fm, dh);
    std::vector<float> ones(static_cast<std::size_t>(len));
    std::fill(ones.begin(), ones.end(), 1.0f);
    be.matmul_fwd(phikt.data(), ones.data(), zg, fm, len, 1);
    be.matmul_fwd(phi_q + s * fm, zg, denom + s, len, fm, 1);
    for (std::int64_t i = s; i < s + len; ++i) denom[i] += 1e-6f;
    for (std::int64_t i = s; i < s + len; ++i)
      for (std::int64_t j = 0; j < dh; ++j) out[i * out_stride + j] = numer[i * dh + j] / denom[i];
  }
}

// One batch of mixed graph lengths, an empty graph included (its kv and z
// slots must stay as they were).
const std::vector<std::int64_t> kGraphLengths = {9, 1, 57, 2, 0, 8, 7};

std::vector<std::int64_t> graph_offsets() {
  std::vector<std::int64_t> ptr = {0};
  for (const std::int64_t len : kGraphLengths) ptr.push_back(ptr.back() + len);
  return ptr;
}

TEST(BackendFuzz, QkvProjectionMatchesPerHeadCallsBitwise) {
  Rng rng(7073);
  const auto m = graph_offsets().back();
  for (const exec::KernelBackend* be : all_backends()) {
    for (const std::int64_t heads : {1, 2, 4}) {
      for (const std::int64_t dim : {16, 32, 48}) {
        for (const std::int64_t dh : {1, 4, 8, 12}) {
          const std::int64_t n = 3 * heads * dh;
          const auto x = random_floats_with_zeros(static_cast<std::size_t>(m * dim), rng);
          const auto wpack = random_floats_with_zeros(static_cast<std::size_t>(dim * n), rng);
          const float scale = 1.0f / std::pow(static_cast<float>(dh), 0.25f);
          const auto dirty = random_floats(static_cast<std::size_t>(3 * heads * m * dh), rng);
          std::vector<float> want = dirty, got = dirty;
          const std::size_t save = static_cast<std::size_t>(heads * m * dh);
          reference_qkv(*be, x, wpack, want.data(), want.data() + save, want.data() + 2 * save, m,
                        dim, heads, dh, scale);
          be->qkv_fwd(x.data(), wpack.data(), got.data(), got.data() + save,
                      got.data() + 2 * save, m, dim, heads, dh, scale);
          SCOPED_TRACE(be->name());
          expect_bitwise(want, got, "qkv_fwd heads/dim/dh", heads, dim, dh);
        }
      }
    }
  }
}

TEST(BackendFuzz, PerformerAttendMatchesPerGraphCallsBitwise) {
  Rng rng(8087);
  const std::vector<std::int64_t> graph_ptr = graph_offsets();
  const auto graphs = static_cast<std::int64_t>(kGraphLengths.size());
  const std::int64_t rows = graph_ptr.back();
  for (const exec::KernelBackend* be : all_backends()) {
    for (const std::int64_t heads : {1, 2, 4}) {
      for (const std::int64_t dh : {1, 4, 8, 12}) {
        for (const std::int64_t fm : {1, 8, 12, 16, 33}) {
          const auto phi_q = random_floats_with_zeros(static_cast<std::size_t>(rows * fm), rng);
          const auto phi_k = random_floats_with_zeros(static_cast<std::size_t>(rows * fm), rng);
          const auto v = random_floats_with_zeros(static_cast<std::size_t>(rows * dh), rng);
          // Saves [kv | z | numer | denom] and the layer output, all dirty.
          const std::int64_t kv_n = graphs * fm * dh, z_n = graphs * fm, numer_n = rows * dh;
          const auto dirty =
              random_floats(static_cast<std::size_t>(kv_n + z_n + numer_n + rows), rng);
          const auto dirty_out = random_floats(static_cast<std::size_t>(rows * heads * dh), rng);
          std::vector<float> want = dirty, got = dirty, want_out = dirty_out, got_out = dirty_out;
          // The last head's column block: the output stride is heads * dh.
          const std::int64_t stride = heads * dh, col = (heads - 1) * dh;
          const auto saves = [&](std::vector<float>& b) {
            float* kv = b.data();
            return std::array<float*, 4>{kv, kv + kv_n, kv + kv_n + z_n, kv + kv_n + z_n + numer_n};
          };
          const auto w = saves(want), g = saves(got);
          reference_attend(*be, phi_q.data(), phi_k.data(), v.data(), graph_ptr, dh, fm, w[0],
                           w[1], w[2], w[3], want_out.data() + col, stride);
          be->performer_attend_fwd(phi_q.data(), phi_k.data(), v.data(), graph_ptr.data(),
                                   graphs, dh, fm, g[0], g[1], g[2], g[3], got_out.data() + col,
                                   stride);
          SCOPED_TRACE(be->name());
          expect_bitwise(want, got, "performer_attend_fwd saves heads/dh/fm", heads, dh, fm);
          expect_bitwise(want_out, got_out, "performer_attend_fwd out heads/dh/fm", heads, dh, fm);
        }
      }
    }
  }
}

// The attend's zero-skips, made observable on a -0.0 accumulator. Row 0 of
// each graph has phi_k = (1e-30, 1e-20, 0, ...) and v = -1e-20, so kv[0,j]
// underflows to -0.0 and kv[1,j] is the denormal -1e-40; every later row has
// phi_k = ±0.0 and v = 1. Every row has phi_q = (0, 1e-20, 0, ...), so
// numer[i,j] underflows to -0.0 at m = 1. An fma of a skipped ±0.0 phi_k or
// phi_q would turn these -0.0s into +0.0.
TEST(BackendFuzz, PerformerAttendSkipsZerosOnNegativeZeroAccumulator) {
  const std::vector<std::int64_t> graph_ptr = graph_offsets();
  const auto graphs = static_cast<std::int64_t>(kGraphLengths.size());
  const std::int64_t rows = graph_ptr.back();
  for (const exec::KernelBackend* be : all_backends()) {
    for (const std::int64_t dh : {1, 4, 8, 12}) {
      for (const std::int64_t fm : {8, 12, 16, 33}) {
        std::vector<float> phi_q(static_cast<std::size_t>(rows * fm), 0.0f);
        std::vector<float> phi_k(phi_q.size()), v(static_cast<std::size_t>(rows * dh), 1.0f);
        for (std::int64_t i = 0; i < rows; ++i) {
          phi_q[static_cast<std::size_t>(i * fm + 1)] = 1e-20f;
          for (std::int64_t m = 0; m < fm; ++m)
            phi_k[static_cast<std::size_t>(i * fm + m)] = (i + m) % 2 == 0 ? 0.0f : -0.0f;
        }
        for (std::size_t g = 0; g + 1 < graph_ptr.size(); ++g) {
          const std::int64_t s = graph_ptr[g];
          if (graph_ptr[g + 1] == s) continue;
          phi_k[static_cast<std::size_t>(s * fm)] = 1e-30f;
          phi_k[static_cast<std::size_t>(s * fm + 1)] = 1e-20f;
          std::fill_n(v.begin() + s * dh, dh, -1e-20f);
        }
        const std::int64_t kv_n = graphs * fm * dh, z_n = graphs * fm, numer_n = rows * dh;
        std::vector<float> want(static_cast<std::size_t>(kv_n + z_n + numer_n + rows), 7.0f);
        std::vector<float> got = want, want_out(static_cast<std::size_t>(rows * dh), 7.0f);
        std::vector<float> got_out = want_out;
        reference_attend(*be, phi_q.data(), phi_k.data(), v.data(), graph_ptr, dh, fm,
                         want.data(), want.data() + kv_n, want.data() + kv_n + z_n,
                         want.data() + kv_n + z_n + numer_n, want_out.data(), dh);
        be->performer_attend_fwd(phi_q.data(), phi_k.data(), v.data(), graph_ptr.data(), graphs,
                                 dh, fm, got.data(), got.data() + kv_n, got.data() + kv_n + z_n,
                                 got.data() + kv_n + z_n + numer_n, got_out.data(), dh);
        SCOPED_TRACE(be->name());
        expect_bitwise(want, got, "performer_attend_fwd saves dh/fm", 0, dh, fm);
        expect_bitwise(want_out, got_out, "performer_attend_fwd out dh/fm", 0, dh, fm);
      }
    }
  }
}

// The Performer backward's two kernels against the per-graph sequence they
// replace: for performer_attend_bwd, the div_colvec backward into zeroed
// dnumer and ddenom, eight matmul grads, the transpose and the ones vector;
// for favor_bwd, the closures phi = e * scale back to proj = u omega. Each
// sequence runs on a pair of matmul grads: a backend's own kernels, or for
// AVX2 also the in-test references of their per-element sequences above.
// The elementwise steps run in this TU, built without FMA like the executor.

std::size_t count_of(std::int64_t count) { return static_cast<std::size_t>(count); }

using MatmulGrad = void (*)(const exec::KernelBackend*, const float*, const float*, float*,
                            std::int64_t, std::int64_t, std::int64_t);

struct MatmulGrads {
  const char* name;
  const exec::KernelBackend* be;  // null: the in-test AVX2 references
  MatmulGrad da, db;
};

void backend_da(const exec::KernelBackend* be, const float* dc, const float* b, float* da,
                std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  be->matmul_da(dc, b, da, rows, inner, cols);
}
void backend_db(const exec::KernelBackend* be, const float* dc, const float* a, float* db,
                std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  be->matmul_db(dc, a, db, rows, inner, cols);
}
void avx2_reference_da(const exec::KernelBackend*, const float* dc, const float* b, float* da,
                       std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  reference_da_into(dc, b, da, rows, inner, cols);
}
void avx2_reference_db(const exec::KernelBackend*, const float* dc, const float* a, float* db,
                       std::int64_t rows, std::int64_t inner, std::int64_t cols) {
  reference_db_into(dc, a, db, rows, inner, cols);
}

// Each backend with the references its new kernels must equal.
std::vector<std::pair<const exec::KernelBackend*, std::vector<MatmulGrads>>> backward_cases() {
  std::vector<std::pair<const exec::KernelBackend*, std::vector<MatmulGrads>>> out;
  const exec::KernelBackend* scalar = &exec::scalar_backend();
  out.push_back({scalar, {{"scalar calls", scalar, backend_da, backend_db}}});
  if (const exec::KernelBackend* avx2 = exec::avx2_backend())
    out.push_back({avx2,
                   {{"avx2 calls", avx2, backend_da, backend_db},
                    {"avx2 reference", nullptr, avx2_reference_da, avx2_reference_db}}});
  return out;
}

// (dh, fm): every pair of {1, 4, 8, 12} x {1, 8, 12, 16, 33}, and 24 x 48,
// whose kv takes more than the 1024 floats the AVX2 backward transposes on
// its stack.
std::vector<std::pair<std::int64_t, std::int64_t>> backward_shapes() {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const std::int64_t dh : {1, 4, 8, 12})
    for (const std::int64_t fm : {1, 8, 12, 16, 33}) out.emplace_back(dh, fm);
  out.emplace_back(24, 48);
  return out;
}

struct AttendBwdIo {
  std::vector<float> dkv, dz, dphi_q, dphi_k, dv;
};

// The per-graph sequence of the Performer attend backward of one head.
// Graphs run in descending order, as the executor's loop did.
void reference_attend_bwd(const MatmulGrads& mm, const float* dy, std::int64_t dy_stride,
                          const float* phi_q, const float* phi_k, const float* v, const float* kv,
                          const float* z, const float* numer, const float* denom,
                          const std::vector<std::int64_t>& graph_ptr, std::int64_t dh,
                          std::int64_t fm, AttendBwdIo& io) {
  const auto graphs = static_cast<std::int64_t>(graph_ptr.size()) - 1;
  const auto zeroed = [](std::int64_t n) {
    return std::vector<float>(static_cast<std::size_t>(n));
  };
  for (std::int64_t g = graphs - 1; g >= 0; --g) {
    const std::int64_t s = graph_ptr[static_cast<std::size_t>(g)];
    const std::int64_t len = graph_ptr[static_cast<std::size_t>(g) + 1] - s;
    if (len == 0) continue;
    // dhead: the head's column block copied into a zeroed buffer.
    std::vector<float> dblock = zeroed(len * dh);
    for (std::int64_t i = 0; i < len; ++i)
      for (std::int64_t j = 0; j < dh; ++j)
        dblock[static_cast<std::size_t>(i * dh + j)] += dy[(s + i) * dy_stride + j];
    std::vector<float> dnumer = zeroed(len * dh), ddenom = zeroed(len);
    for (std::int64_t i = 0; i < len; ++i)
      for (std::int64_t j = 0; j < dh; ++j) {
        float da = 0.0f, dc = 0.0f;
        kern::div1_bwd(numer[(s + i) * dh + j], denom[s + i],
                       dblock[static_cast<std::size_t>(i * dh + j)], da, dc);
        dnumer[static_cast<std::size_t>(i * dh + j)] += da;
        ddenom[static_cast<std::size_t>(i)] += dc;
      }
    const float* pq = phi_q + s * fm;
    float* dpq = io.dphi_q.data() + s * fm;
    std::fill_n(dpq, len * fm, 0.0f);
    mm.da(mm.be, ddenom.data(), z + g * fm, dpq, len, fm, 1);
    float* dzg = io.dz.data() + g * fm;
    std::fill_n(dzg, fm, 0.0f);
    mm.db(mm.be, ddenom.data(), pq, dzg, len, fm, 1);
    const std::vector<float> ones(static_cast<std::size_t>(len), 1.0f);
    std::vector<float> dphikt = zeroed(fm * len);
    mm.da(mm.be, dzg, ones.data(), dphikt.data(), fm, len, 1);
    mm.da(mm.be, dnumer.data(), kv + g * fm * dh, dpq, len, fm, dh);
    float* dkvg = io.dkv.data() + g * fm * dh;
    std::fill_n(dkvg, fm * dh, 0.0f);
    mm.db(mm.be, dnumer.data(), pq, dkvg, len, fm, dh);
    std::vector<float> phikt = zeroed(fm * len);
    kern::transpose_fwd(phi_k + s * fm, phikt.data(), len, fm);
    mm.da(mm.be, dkvg, v + s * dh, dphikt.data(), fm, len, dh);
    float* dvg = io.dv.data() + s * dh;
    std::fill_n(dvg, len * dh, 0.0f);
    mm.db(mm.be, dkvg, phikt.data(), dvg, fm, len, dh);
    float* dpk = io.dphi_k.data() + s * fm;
    std::fill_n(dpk, len * fm, 0.0f);
    kern::transpose_bwd(dphikt.data(), dpk, len, fm);
  }
}

// The per-graph sequence of the FAVOR+ feature backward.
void reference_favor_bwd(const MatmulGrads& mm, float* dphi, const float* u, const float* e,
                         const float* omega, const std::vector<std::int64_t>& graph_ptr,
                         std::int64_t dh, std::int64_t fm, float scale, float* du) {
  for (std::size_t g = 0; g + 1 < graph_ptr.size(); ++g) {
    const std::int64_t s = graph_ptr[g], len = graph_ptr[g + 1] - s;
    if (len == 0) continue;
    float* d = dphi + s * fm;
    float* dug = du + s * dh;
    std::fill_n(dug, len * dh, 0.0f);
    for (std::int64_t i = 0; i < len * fm; ++i) d[i] *= scale;
    for (std::int64_t i = 0; i < len * fm; ++i) d[i] *= e[s * fm + i];
    std::vector<float> dsumsq(static_cast<std::size_t>(len));
    for (std::int64_t i = 0; i < len; ++i)
      for (std::int64_t j = 0; j < fm; ++j) dsumsq[static_cast<std::size_t>(i)] += -d[i * fm + j];
    for (float& x : dsumsq) x *= 0.5f;
    std::vector<float> dsq(static_cast<std::size_t>(len * dh));
    kern::row_sum_bwd(dsumsq.data(), dsq.data(), len, dh);
    for (std::int64_t i = 0; i < len * dh; ++i)
      dug[i] += dsq[static_cast<std::size_t>(i)] * 2.0f * u[s * dh + i];
    mm.da(mm.be, d, omega, dug, len, dh, fm);
  }
}

void expect_attend_bwd_matches(const exec::KernelBackend& be, const std::vector<MatmulGrads>& refs,
                               const std::vector<float>& dy, std::int64_t dy_stride,
                               const std::vector<float>& phi_q, const std::vector<float>& phi_k,
                               const std::vector<float>& v, const std::vector<float>& kv,
                               const std::vector<float>& z, const std::vector<float>& numer,
                               const std::vector<float>& denom,
                               const std::vector<std::int64_t>& graph_ptr, std::int64_t dh,
                               std::int64_t fm, const AttendBwdIo& dirty) {
  const auto graphs = static_cast<std::int64_t>(graph_ptr.size()) - 1;
  for (const int threads : {1, 2}) {
    par::set_threads(threads);
    AttendBwdIo got = dirty;
    be.performer_attend_bwd(dy.data(), dy_stride, phi_q.data(), phi_k.data(), v.data(), kv.data(),
                            z.data(), numer.data(), denom.data(), graph_ptr.data(), graphs, dh, fm,
                            got.dkv.data(), got.dz.data(), got.dphi_q.data(), got.dphi_k.data(),
                            got.dv.data());
    for (const MatmulGrads& mm : refs) {
      AttendBwdIo want = dirty;
      reference_attend_bwd(mm, dy.data(), dy_stride, phi_q.data(), phi_k.data(), v.data(),
                           kv.data(), z.data(), numer.data(), denom.data(), graph_ptr, dh, fm,
                           want);
      SCOPED_TRACE(std::string(be.name()) + " vs " + mm.name + " at " + std::to_string(threads) +
                   " threads");
      expect_bitwise(want.dkv, got.dkv, "attend_bwd dkv stride/dh/fm", dy_stride, dh, fm);
      expect_bitwise(want.dz, got.dz, "attend_bwd dz stride/dh/fm", dy_stride, dh, fm);
      expect_bitwise(want.dphi_q, got.dphi_q, "attend_bwd dphi_q stride/dh/fm", dy_stride, dh, fm);
      expect_bitwise(want.dphi_k, got.dphi_k, "attend_bwd dphi_k stride/dh/fm", dy_stride, dh, fm);
      expect_bitwise(want.dv, got.dv, "attend_bwd dv stride/dh/fm", dy_stride, dh, fm);
    }
  }
  par::set_threads(0);
}

AttendBwdIo dirty_attend_bwd_io(std::int64_t rows, std::int64_t graphs, std::int64_t dh,
                                std::int64_t fm, Rng& rng) {
  AttendBwdIo io;
  io.dkv = random_floats(static_cast<std::size_t>(graphs * fm * dh), rng);
  io.dz = random_floats(static_cast<std::size_t>(graphs * fm), rng);
  io.dphi_q = random_floats(static_cast<std::size_t>(rows * fm), rng);
  io.dphi_k = random_floats(static_cast<std::size_t>(rows * fm), rng);
  io.dv = random_floats(static_cast<std::size_t>(rows * dh), rng);
  return io;
}

TEST(BackendFuzz, PerformerAttendBwdMatchesPerGraphCallsBitwise) {
  Rng rng(9091);
  const std::vector<std::int64_t> graph_ptr = graph_offsets();
  const auto graphs = static_cast<std::int64_t>(kGraphLengths.size());
  const std::int64_t rows = graph_ptr.back();
  for (const auto& [be, refs] : backward_cases()) {
    for (const std::int64_t heads : {1, 3}) {
      for (const auto& [dh, fm] : backward_shapes()) {
        // dy is the last head's column block of a heads * dh wide gradient.
        const std::int64_t stride = heads * dh;
        const auto dy_full = random_floats_with_zeros(count_of(rows * stride), rng);
        const std::vector<float> dy(dy_full.begin() + (heads - 1) * dh, dy_full.end());
        const auto phi_q = random_floats_with_zeros(count_of(rows * fm), rng);
        const auto phi_k = random_floats_with_zeros(count_of(rows * fm), rng);
        const auto v = random_floats_with_zeros(count_of(rows * dh), rng);
        const auto kv = random_floats_with_zeros(count_of(graphs * fm * dh), rng);
        const auto z = random_floats_with_zeros(count_of(graphs * fm), rng);
        const auto numer = random_floats_with_zeros(count_of(rows * dh), rng);
        const auto denom = random_floats(count_of(rows), rng);
        expect_attend_bwd_matches(*be, refs, dy, stride, phi_q, phi_k, v, kv, z, numer, denom,
                                  graph_ptr, dh, fm,
                                  dirty_attend_bwd_io(rows, graphs, dh, fm, rng));
      }
    }
  }
}

// The backward's zero-skips, made observable on -0.0 accumulators. The
// first row of each graph has phi_q = (1e-10, 1e-30, ...), dy = -1e-20,
// numer = -1 and denom = 1, so dkv[0,j] = -1e-30 while dkv[m>0,j] and
// dz[m>0] underflow to -0.0 under AVX2's fmas; every later row has phi_q =
// ±0.0, dy = 1 and numer = 0. Every row has phi_k = (1e-20, ±0.0, ...), so
// dv[i,j] underflows to -0.0 at m = 0. An fma of a skipped ±0.0 phi_q or
// phi_k would turn some of these -0.0s into +0.0.
TEST(BackendFuzz, PerformerAttendBwdSkipsZerosOnNegativeZeroAccumulator) {
  const std::vector<std::int64_t> graph_ptr = graph_offsets();
  const auto graphs = static_cast<std::int64_t>(kGraphLengths.size());
  const std::int64_t rows = graph_ptr.back();
  Rng rng(9092);
  for (const auto& [be, refs] : backward_cases()) {
    for (const std::int64_t dh : {1, 4, 8, 12}) {
      for (const std::int64_t fm : {8, 12, 16, 33}) {
        std::vector<float> phi_q(count_of(rows * fm)), phi_k(count_of(rows * fm));
        std::vector<float> dy(count_of(rows * dh), 1.0f), numer(count_of(rows * dh), 0.0f);
        const std::vector<float> denom(count_of(rows), 1.0f), v(count_of(rows * dh), 1.0f);
        for (std::int64_t i = 0; i < rows; ++i)
          for (std::int64_t m = 0; m < fm; ++m) {
            const float zero = (i + m) % 2 == 0 ? 0.0f : -0.0f;
            phi_q[count_of(i * fm + m)] = zero;
            phi_k[count_of(i * fm + m)] = m == 0 ? 1e-20f : zero;
          }
        for (std::size_t g = 0; g + 1 < graph_ptr.size(); ++g) {
          const std::int64_t s = graph_ptr[g];
          if (graph_ptr[g + 1] == s) continue;
          for (std::int64_t m = 0; m < fm; ++m)
            phi_q[count_of(s * fm + m)] = m == 0 ? 1e-10f : 1e-30f;
          std::fill_n(dy.begin() + s * dh, dh, -1e-20f);
          std::fill_n(numer.begin() + s * dh, dh, -1.0f);
        }
        const auto kv = random_floats(count_of(graphs * fm * dh), rng);
        const auto z = random_floats(count_of(graphs * fm), rng);
        expect_attend_bwd_matches(*be, refs, dy, dh, phi_q, phi_k, v, kv, z, numer, denom,
                                  graph_ptr, dh, fm,
                                  dirty_attend_bwd_io(rows, graphs, dh, fm, rng));
      }
    }
  }
}

TEST(BackendFuzz, FavorBwdMatchesPerGraphCallsBitwise) {
  Rng rng(9093);
  const std::vector<std::int64_t> graph_ptr = graph_offsets();
  const std::int64_t rows = graph_ptr.back();
  for (const auto& [be, refs] : backward_cases()) {
    for (const auto& [dh, fm] : backward_shapes()) {
      const auto dphi = random_floats_with_zeros(count_of(rows * fm), rng);
      const auto u = random_floats_with_zeros(count_of(rows * dh), rng);
      const auto e = random_floats_with_zeros(count_of(rows * fm), rng);
      const auto omega = random_floats_with_zeros(count_of(dh * fm), rng);
      const auto du0 = random_floats(count_of(rows * dh), rng);
      const float scale = 1.0f / std::sqrt(static_cast<float>(fm));
      for (const int threads : {1, 2}) {
        par::set_threads(threads);
        std::vector<float> got_dphi = dphi, got_du = du0;
        be->favor_bwd(got_dphi.data(), u.data(), e.data(), omega.data(), rows, dh, fm, scale,
                      got_du.data());
        for (const MatmulGrads& mm : refs) {
          std::vector<float> want_dphi = dphi, want_du = du0;
          reference_favor_bwd(mm, want_dphi.data(), u.data(), e.data(), omega.data(), graph_ptr,
                              dh, fm, scale, want_du.data());
          SCOPED_TRACE(std::string(be->name()) + " vs " + mm.name + " at " +
                       std::to_string(threads) + " threads");
          expect_bitwise(want_dphi, got_dphi, "favor_bwd dphi rows/dh/fm", rows, dh, fm);
          expect_bitwise(want_du, got_du, "favor_bwd du rows/dh/fm", rows, dh, fm);
        }
      }
      par::set_threads(0);
    }
  }
}

// Inputs at the edges of exp8's fast path: signed zeros and tiny values, |x|
// just below, at and just above 88 (where the scalar fallback starts),
// expf's overflow (88.72) and underflow (-103.97) thresholds, infinities,
// NaN, and the two inputs whose r needs the single fused multiply-subtract.
const std::vector<float> kExpEdges = {
    0.0f, -0.0f, 1e-30f, -1e-30f,
    std::nextafter(88.0f, 0.0f), std::nextafter(-88.0f, 0.0f), 88.0f, -88.0f,
    std::nextafter(88.0f, 100.0f), std::nextafter(-88.0f, -100.0f),
    88.72f, 0x1.62e42ep6f, std::nextafter(0x1.62e42ep6f, 100.0f), -103.97f, -0x1.9fe368p6f,
    -104.0f, INFINITY, -INFINITY, NAN, 0x1.04845ep+5f, -0x1.f8cbb2p+5f};

// uniform(-4, 4) with about one entry in `edge_every` drawn from kExpEdges,
// so most 8-lane groups stay on the fast path and some take the fallback.
std::vector<float> exp_inputs(std::size_t n, Rng& rng, int edge_every) {
  std::vector<float> v = random_floats(n, rng, -4.0, 4.0);
  for (float& x : v)
    if (rng.uniform_int(edge_every) == 0)
      x = kExpEdges[static_cast<std::size_t>(rng.uniform_int(kExpEdges.size()))];
  return v;
}

// Bitwise, except that a NaN need only meet a NaN: its sign bit depends on
// the operand order the compiler picks for a commutative add.
void expect_bitwise_or_nan(const std::vector<float>& want, const std::vector<float>& got,
                           const char* what, std::int64_t rows, std::int64_t dh,
                           std::int64_t fm) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " rows=" << rows << " dh=" << dh
                                      << " fm=" << fm << " at " << i << ": " << got[i];
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]), std::bit_cast<std::uint32_t>(got[i]))
        << what << " rows=" << rows << " dh=" << dh << " fm=" << fm << " at " << i << ": "
        << want[i] << " vs " << got[i];
  }
}

// favor_fwd and gate_chain_fwd route their exp through exp8, a port of
// glibc's expf, so AVX2 matches scalar bit for bit on every non-NaN output:
// every fm from 1 to 33 (the full 8-lane groups and every masked tail), dh
// with and without a tail, row counts around 8, and edge inputs that take
// the scalar fallback. Half the u rows are zero, so proj reaches exp as it is.
TEST(BackendFuzz, Avx2ExpKernelsMatchScalarBitwise) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  Rng rng(6067);
  for (const std::int64_t rows : {0, 1, 7, 8, 9}) {
    for (const std::int64_t dh : {1, 8, 9, 16}) {
      for (std::int64_t fm = 1; fm <= 33; ++fm) {
        const auto proj = exp_inputs(static_cast<std::size_t>(rows * fm), rng, 8);
        auto u = exp_inputs(static_cast<std::size_t>(rows * dh), rng, 64);
        for (std::int64_t i = 0; i < rows; ++i)
          if (rng.uniform() < 0.5) std::fill_n(u.begin() + i * dh, dh, 0.0f);
        const float scale = 1.0f / std::sqrt(static_cast<float>(fm));
        std::vector<float> e_scalar(proj.size()), phi_scalar(proj.size());
        std::vector<float> e_avx2(proj.size()), phi_avx2(proj.size());
        scalar.favor_fwd(proj.data(), u.data(), e_scalar.data(), phi_scalar.data(), rows, dh, fm,
                         scale);
        avx2->favor_fwd(proj.data(), u.data(), e_avx2.data(), phi_avx2.data(), rows, dh, fm,
                        scale);
        expect_bitwise_or_nan(e_scalar, e_avx2, "favor_fwd e", rows, dh, fm);
        expect_bitwise_or_nan(phi_scalar, phi_avx2, "favor_fwd phi", rows, dh, fm);

        // In place, as the executor calls it: proj aliases e.
        std::vector<float> e_inplace = proj;
        avx2->favor_fwd(e_inplace.data(), u.data(), e_inplace.data(), phi_avx2.data(), rows, dh,
                        fm, scale);
        expect_bitwise_or_nan(e_scalar, e_inplace, "favor_fwd in place", rows, dh, fm);

        const auto lm = random_floats(proj.size(), rng);
        std::vector<float> eta_scalar(proj.size()), msg_scalar(proj.size());
        std::vector<float> eta_avx2(proj.size()), msg_avx2(proj.size());
        scalar.gate_chain_fwd(proj.data(), lm.data(), eta_scalar.data(), msg_scalar.data(),
                              rows * fm);
        avx2->gate_chain_fwd(proj.data(), lm.data(), eta_avx2.data(), msg_avx2.data(), rows * fm);
        expect_bitwise_or_nan(eta_scalar, eta_avx2, "gate_chain_fwd eta", rows, dh, fm);
        expect_bitwise_or_nan(msg_scalar, msg_avx2, "gate_chain_fwd msg", rows, dh, fm);
      }
    }
  }
}

// favor_fwd with u = 0 and dh = 1 computes e = exp(proj): compare the AVX2
// kernel with std::exp, bit for bit, on every `stride`-th float with
// |x| < 88 (both signs) and on `extra`.
void expect_avx2_exp_matches_std_exp(const exec::KernelBackend& avx2, std::uint32_t stride,
                                     const std::vector<float>& extra) {
  constexpr std::int64_t kFm = 64, kRows = 1024;
  constexpr std::uint32_t kLimit = 0x42b00000;  // bits of 88.0f
  std::vector<float> x, e(kRows * kFm), phi(kRows * kFm);
  const std::vector<float> u(kRows, 0.0f);
  x.reserve(kRows * kFm);
  const auto flush = [&] {
    const std::size_t used = x.size();
    x.resize(kRows * kFm, 0.0f);
    avx2.favor_fwd(x.data(), u.data(), e.data(), phi.data(), kRows, 1, kFm, 1.0f);
    for (std::size_t i = 0; i < used; ++i)
      if (std::bit_cast<std::uint32_t>(e[i]) != std::bit_cast<std::uint32_t>(std::exp(x[i])))
        FAIL() << "exp(" << std::hexfloat << x[i] << ") = " << e[i] << ", std::exp gives "
               << std::exp(x[i]);
    x.clear();
  };
  for (const float v : extra) x.push_back(v);
  for (std::uint32_t bits = 0; bits < kLimit; bits += stride) {
    if (x.size() + 2 > static_cast<std::size_t>(kRows * kFm)) {
      flush();
      if (::testing::Test::HasFatalFailure()) return;
    }
    x.push_back(std::bit_cast<float>(bits));
    x.push_back(std::bit_cast<float>(bits | 0x80000000u));
  }
  flush();
}

TEST(BackendFuzz, Avx2ExpMatchesStdExp) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  expect_avx2_exp_matches_std_exp(*avx2, 97, {0x1.04845ep+5f, -0x1.f8cbb2p+5f});
}

// Every float with |x| < 88, about half a minute: run it when the libm
// changes (CI does, on its AVX2 leg), since exp8 is bitwise only against an
// expf that computes glibc's algorithm.
TEST(BackendFuzz, DISABLED_Avx2ExpMatchesStdExpExhaustive) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  expect_avx2_exp_matches_std_exp(*avx2, 1, {});
}

}  // namespace
}  // namespace cgps
