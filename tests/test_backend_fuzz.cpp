// Backend fuzz sweep (scalar vs AVX2) over odd/prime shapes, including
// zero-row batches and sizes that straddle every vector-width boundary. The
// fp32 kernels may re-associate within one output element, so they are held
// to a relative tolerance against scalar; the AVX2 matmul kernels, forward
// and backward, must also match, bit for bit, an in-test reference of their
// per-element sequence.
// The int8 kernels share their one fp32 combine (q8_combine) and must match
// bitwise, and so must the exp kernels (favor_fwd, gate_chain_fwd), whose
// AVX2 exp is a port of glibc's expf.
#include "exec/backend.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

namespace cgps {
namespace {

// Odd, prime, and width-straddling dims. 8/16 float lanes and 32 int8 lanes
// all hit partial-tail paths somewhere in this set, and 8/16/24/32/48/64
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
std::vector<float> reference_da(const std::vector<float>& dc, const std::vector<float>& b,
                                std::vector<float> da, std::int64_t rows, std::int64_t inner,
                                std::int64_t cols) {
  const std::int64_t full = cols - cols % 8;
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* dci = dc.data() + i * cols;
    for (std::int64_t p = 0; p < inner; ++p) {
      const float* bp = b.data() + p * cols;
      float v[8] = {};
      for (std::int64_t j = 0; j < full; ++j) v[j % 8] = std::fma(dci[j], bp[j], v[j % 8]);
      float s = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
      for (std::int64_t j = full; j < cols; ++j) s = std::fma(dci[j], bp[j], s);
      da[static_cast<std::size_t>(i * inner + p)] += s;
    }
  }
  return da;
}

// The AVX2 dB order, one element at a time: from its current value,
// std::fma over i ascending, skipping a[i,p] == 0.
std::vector<float> reference_db(const std::vector<float>& dc, const std::vector<float>& a,
                                std::vector<float> db, std::int64_t rows, std::int64_t inner,
                                std::int64_t cols) {
  for (std::int64_t p = 0; p < inner; ++p) {
    for (std::int64_t j = 0; j < cols; ++j) {
      float& acc = db[static_cast<std::size_t>(p * cols + j)];
      for (std::int64_t i = 0; i < rows; ++i) {
        const float aip = a[static_cast<std::size_t>(i * inner + p)];
        if (aip != 0.0f) acc = std::fma(aip, dc[static_cast<std::size_t>(i * cols + j)], acc);
      }
    }
  }
  return db;
}

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (std::int8_t& x : v) x = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
  return v;
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

TEST(BackendFuzz, Int8KernelsAreBitwiseIdentical) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  Rng rng(4048);
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        if (m > 1 && k > 1 && n > 1 && rng.uniform() > 0.25) continue;
        const auto xq = random_codes(static_cast<std::size_t>(m * k), rng);
        const auto wq = random_codes(static_cast<std::size_t>(n * k), rng);
        const auto sx = random_floats(static_cast<std::size_t>(m), rng, 0.001, 0.1);
        const auto sw = random_floats(static_cast<std::size_t>(n), rng, 0.001, 0.1);
        const auto bias = random_floats(static_cast<std::size_t>(n), rng);
        std::vector<float> o_scalar(static_cast<std::size_t>(m * n));
        std::vector<float> o_avx2(static_cast<std::size_t>(m * n));

        scalar.linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                             o_scalar.data(), m, k, n);
        avx2->linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                            o_avx2.data(), m, k, n);
        expect_bitwise(o_scalar, o_avx2, "linear_fwd_q8", m, k, n);

        scalar.linear_relu_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                                  o_scalar.data(), m, k, n);
        avx2->linear_relu_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(),
                                 o_avx2.data(), m, k, n);
        expect_bitwise(o_scalar, o_avx2, "linear_relu_fwd_q8", m, k, n);
      }
    }
  }
}

// Saturated codes at the kernels' extreme values: ±127 codes with the
// largest scales must still accumulate exactly (k*127*127 < 2^31 holds for
// every k here) and match bitwise across backends.
TEST(BackendFuzz, Int8SaturatedInputsStayExact) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  const std::int64_t m = 3, k = 257, n = 5;
  std::vector<std::int8_t> xq(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
  for (std::size_t i = 0; i < xq.size(); ++i) xq[i] = (i % 2 == 0) ? 127 : -127;
  for (std::size_t i = 0; i < wq.size(); ++i) wq[i] = (i % 3 == 0) ? -127 : 127;
  const std::vector<float> sx(static_cast<std::size_t>(m), 1.0f);
  const std::vector<float> sw(static_cast<std::size_t>(n), 1.0f);
  const std::vector<float> bias(static_cast<std::size_t>(n), 0.5f);
  std::vector<float> o_scalar(static_cast<std::size_t>(m * n));
  std::vector<float> o_avx2(static_cast<std::size_t>(m * n));
  scalar.linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(), o_scalar.data(),
                       m, k, n);
  avx2->linear_fwd_q8(xq.data(), sx.data(), wq.data(), sw.data(), bias.data(), o_avx2.data(), m,
                      k, n);
  expect_bitwise(o_scalar, o_avx2, "linear_fwd_q8 saturated", m, k, n);
  for (const float v : o_scalar) ASSERT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace cgps
