#include "common/random.h"

#include <cassert>
#include <cmath>
#include <unordered_set>

namespace groupform::common {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextUint64(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(NextUint64());
  }
  return lo + static_cast<std::int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::int64_t Rng::Zipf(std::int64_t n, double s) {
  assert(n > 0);
  assert(s > 0.0);
  // Inverse-CDF sampling on the continuous approximation of the Zipf CDF:
  // H(x) ~ (x^{1-s} - 1) / (1 - s) for s != 1, log(x) for s == 1.
  const double x_max = static_cast<double>(n) + 1.0;
  double h_max;
  if (std::abs(s - 1.0) < 1e-9) {
    h_max = std::log(x_max);
  } else {
    h_max = (std::pow(x_max, 1.0 - s) - 1.0) / (1.0 - s);
  }
  const double u = NextDouble();
  double x;
  if (std::abs(s - 1.0) < 1e-9) {
    x = std::exp(u * h_max);
  } else {
    x = std::pow(u * h_max * (1.0 - s) + 1.0, 1.0 / (1.0 - s));
  }
  std::int64_t rank = static_cast<std::int64_t>(x) - 1;
  if (rank < 0) rank = 0;
  if (rank >= n) rank = n - 1;
  return rank;
}

std::vector<std::int64_t> Rng::SampleWithoutReplacement(std::int64_t n,
                                                        std::int64_t count) {
  assert(count >= 0);
  assert(count <= n);
  // Floyd's algorithm: O(count) expected time, no O(n) allocation.
  std::unordered_set<std::int64_t> chosen;
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t j = n - count; j < n; ++j) {
    std::int64_t t = UniformInt(0, j);
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  Shuffle(out);
  return out;
}

}  // namespace groupform::common
