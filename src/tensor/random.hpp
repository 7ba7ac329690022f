// Deterministic, seedable random number generation.
//
// All stochastic components of the library (weight init, dataset synthesis,
// dropout, attack restarts, region sampling) draw from dcn::Rng so that every
// experiment is reproducible from a single printed seed.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace dcn {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// simulation workloads; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value. Defined here, like uniform(), so per-element
  /// draw loops (region sampling draws one per pixel) inline the step.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Advance the stream by n draws, as if next_u64() were called n times.
  /// O(n); for long strides prefer RngSkip (tensor/rng_skip.hpp).
  void discard(std::uint64_t n);

  /// The 256-bit generator state (does not include the Box-Muller spare).
  /// Exposed for RngSkip's precomputed jumps and for differential tests.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const;
  void set_state(const std::array<std::uint64_t, 4>& s);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached spare value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator (for parallel/streamed use).
  Rng fork();

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace dcn
