// Seedable random-number helpers.
//
// Workload generators must be reproducible run-to-run, and in a
// replicated setting randomness used *inside* a replica's request handler
// must be identical on every replica (it is part of the request's
// deterministic program).  Workloads therefore derive per-request RNGs
// from the request id instead of sampling a shared global generator.
#pragma once

#include <cstdint>
#include <random>

namespace adets::common {

/// SplitMix64 — tiny, fast, well-distributed; good for seed derivation.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic RNG seeded from one or more ids.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(mix(seed)) {}
  Rng(std::uint64_t a, std::uint64_t b) : engine_(mix(mix(a) ^ b)) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

 private:
  static std::uint64_t mix(std::uint64_t seed) {
    std::uint64_t s = seed;
    return splitmix64(s);
  }

  std::mt19937_64 engine_;
};

}  // namespace adets::common
