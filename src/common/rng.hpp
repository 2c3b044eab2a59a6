// ESSEX: deterministic, stream-keyed random number generation.
//
// Ensemble methods need *reproducible* perturbations: member k must draw
// the same stream regardless of the order in which the task pool executes
// it (paper §4.1 relaxes completion order, so draw order cannot depend on
// completion order). Rng is a counter-based SplitMix64/xoshiro256** hybrid
// keyed by (seed, stream id), so each ensemble member owns an independent
// stream derived from its perturbation index.
#pragma once

#include <cstdint>
#include <vector>

namespace essex {

/// Deterministic pseudo-random generator (xoshiro256** seeded via
/// SplitMix64). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed the generator. `stream` selects an independent substream so
  /// ensemble member i can use Rng(seed, i) without correlation.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL,
               std::uint64_t stream = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda);

  /// n i.i.d. standard normals.
  std::vector<double> normals(std::size_t n);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace essex
