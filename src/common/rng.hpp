// Deterministic random number generation.
//
// All stochastic pieces of PTLR (point jitter, synthetic measurement
// vectors, random test matrices) draw from ptlr::Rng so that experiments are
// reproducible from a single seed, as required for regenerating the paper's
// tables and figures deterministically.
#pragma once

#include <cstdint>
#include <random>

namespace ptlr {

/// The splitmix64 increment (2^64 / golden ratio): the step of a
/// splitmix64 stream's state.
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ull;

/// splitmix64: `x` + kSplitmixGamma, avalanche-mixed — the next draw of a
/// splitmix64 stream whose state is `x`, and a stateless,
/// schedule-invariant hash of `x`. The chaos perturber, the fault
/// injector, the wire's message ids and the broadcast trees' rotations all
/// draw from it.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seedable RNG wrapper. Thin veneer over a 64-bit Mersenne twister with
/// convenience draws used across the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Standard normal draw.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t integer(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  /// Access to the underlying engine for std::shuffle and friends.
  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace ptlr
