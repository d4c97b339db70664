// Deterministic pseudo-random number generation for the whole library.
//
// Everything in CircuitGPS that needs randomness (weight init, dropout,
// negative sampling, synthetic layout jitter, ...) draws from an explicit
// `Rng` object so experiments are reproducible from a single seed. The
// generator is xoshiro256** (Blackman & Vigna), seeded through splitmix64.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cgps {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  // Re-initialize the state from a 64-bit seed (splitmix64 expansion).
  void reseed(std::uint64_t seed);

  // Raw 64 random bits.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  // Standard normal via Box-Muller (cached second value).
  double normal();

  // Normal with given mean / stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Bernoulli trial with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  // out[i] = bernoulli(p) ? +0.0f : keep for i in [0, count), in order: the
  // same draws, values and final state as that loop, with the state held in
  // locals and no branch. uniform() < p is exactly (u >> 11) < ceil(p 2^53):
  // u >> 11 is an integer below 2^53, and uniform() is it times 2^-53. The
  // value is keep's bits masked by the comparison, so a 10% drop rate costs
  // no mispredicted branch.
  void fill_bernoulli_mask(double p, float keep, float* out, std::int64_t count) {
    const std::uint64_t threshold =
        !(p > 0.0) ? 0 : p >= 1.0 ? std::uint64_t{1} << 53
                                  : static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    const std::uint32_t keep_bits = std::bit_cast<std::uint32_t>(keep);
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    for (std::int64_t i = 0; i < count; ++i) {
      const std::uint32_t kept = (step(s0, s1, s2, s3) >> 11) >= threshold;
      out[i] = std::bit_cast<float>(keep_bits & (0u - kept));
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

  // Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k <= n), order unspecified.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  // Derive an independent child generator (for per-worker streams).
  Rng fork();

 private:
  // One xoshiro256** step: advances the four state words, returns the output.
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
                            std::uint64_t& s3) {
    const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    return result;
  }

  std::uint64_t s_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cgps
