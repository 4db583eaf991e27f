#ifndef GROUPFORM_COMMON_RANDOM_H_
#define GROUPFORM_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace groupform::common {

/// Deterministic, seedable PRNG (xoshiro256**). Every randomized component
/// of the library takes an explicit Rng (or seed), which makes experiments
/// and tests reproducible bit-for-bit across runs and platforms.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit word.
  std::uint64_t NextUint64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t NextUint64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller (cached pair).
  double NextGaussian();

  /// Normal with the given mean / stddev.
  double Gaussian(double mean, double stddev);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n) with exponent s > 0; rank 0 is the most
  /// popular. Uses an O(1)-per-draw approximation after O(n) table setup is
  /// avoided: inverse-CDF on the harmonic approximation.
  std::int64_t Zipf(std::int64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `count` distinct values from [0, n) (count <= n), in random
  /// order. O(count) expected via Floyd's algorithm.
  std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t n,
                                                     std::int64_t count);

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_RANDOM_H_
