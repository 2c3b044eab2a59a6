// ESSEX: initial-condition perturbations (the paper's "pert" stage).
//
// Member i's initial state is the central estimate plus a randomly
// weighted combination of the error modes, plus white noise "in part to
// represent the errors truncated by the error subspace" (paper §6).
// Draws are keyed by the perturbation index so the pool can execute
// members in any order and still reproduce identical fields.
#pragma once

#include <cstddef>

#include "esse/error_subspace.hpp"
#include "linalg/matrix.hpp"

namespace essex::esse {

/// Generator of reproducible, indexed initial-condition perturbations.
class PerturbationGenerator {
 public:
  struct Params {
    double white_noise = 0.0;  ///< stddev of the truncation-error noise
    std::uint64_t seed = 42;   ///< base seed; member i uses stream i
  };

  PerturbationGenerator(const ErrorSubspace& subspace, Params params);

  /// The perturbation (not the full state) for member `index`.
  la::Vector perturbation(std::size_t index) const;

  /// central + perturbation(index).
  la::Vector perturbed_state(const la::Vector& central,
                             std::size_t index) const;

  const Params& params() const { return params_; }

 private:
  const ErrorSubspace& subspace_;
  Params params_;
};

}  // namespace essex::esse
