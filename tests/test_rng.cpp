#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <vector>

namespace cgps {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(5);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// The bulk mask fill is a bernoulli(p) loop: the same values and the same
// state afterwards, for the float p that dropout passes, the extremes, and
// counts around the loop's unroll widths. A normal() draw before the fill
// leaves a cached value, which the fill must not touch either.
TEST(Rng, BernoulliMaskFillEqualsBernoulliLoop) {
  for (const double p : {0.0, static_cast<double>(1e-10f), 1e-10, static_cast<double>(0.1f), 0.5,
                         static_cast<double>(0.9f), 1.0}) {
    for (const std::int64_t count : {0, 1, 7, 8, 9, 64, 1000, 10592}) {
      Rng loop(static_cast<std::uint64_t>(count) * 31 + 5), fill = loop;
      EXPECT_EQ(loop.normal(), fill.normal());
      std::vector<float> want(static_cast<std::size_t>(count)), got(want.size(), -1.0f);
      for (float& m : want) m = loop.bernoulli(p) ? 0.0f : 2.5f;
      fill.fill_bernoulli_mask(p, 2.5f, got.data(), count);
      ASSERT_EQ(want, got) << "p=" << p << " count=" << count;
      EXPECT_EQ(loop.normal(), fill.normal()) << "p=" << p << " count=" << count;
      EXPECT_EQ(loop.next_u64(), fill.next_u64()) << "p=" << p << " count=" << count;
    }
  }
}

// Thresholds at the edge: a draw whose 53 bits equal ceil(p 2^53) - 1 is
// below p, one equal to ceil(p 2^53) is not; p outside [0, 1] and NaN
// behave as uniform() < p does.
TEST(Rng, BernoulliMaskFillHandlesOutOfRangeP) {
  for (const double p : {-0.5, 1.5, std::nan("")}) {
    Rng loop(11), fill = loop;
    std::vector<float> want(100), got(100);
    for (float& m : want) m = loop.bernoulli(p) ? 0.0f : 1.0f;
    fill.fill_bernoulli_mask(p, 1.0f, got.data(), 100);
    EXPECT_EQ(want, got) << "p=" << p;
    EXPECT_EQ(loop.next_u64(), fill.next_u64());
  }
}

}  // namespace
}  // namespace cgps
