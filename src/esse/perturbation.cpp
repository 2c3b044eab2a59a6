#include "esse/perturbation.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace essex::esse {

PerturbationGenerator::PerturbationGenerator(const ErrorSubspace& subspace,
                                             Params params)
    : subspace_(subspace), params_(params) {
  ESSEX_REQUIRE(!subspace.empty(),
                "perturbation generator needs a non-empty subspace");
  ESSEX_REQUIRE(
      params.white_noise >= 0.0 && std::isfinite(params.white_noise),
      "white noise amplitude must be finite and non-negative");
}

la::Vector PerturbationGenerator::perturbation(std::size_t index) const {
  // Stream = member index + 1 so index 0 differs from the base stream.
  Rng rng(params_.seed, index + 1);
  la::Vector coeffs(subspace_.rank());
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    coeffs[j] = subspace_.sigmas()[j] * rng.normal();
  }
  la::Vector p = subspace_.expand(coeffs);
  if (params_.white_noise > 0.0) {
    for (auto& x : p) x += params_.white_noise * rng.normal();
  }
  return p;
}

la::Vector PerturbationGenerator::perturbed_state(const la::Vector& central,
                                                  std::size_t index) const {
  ESSEX_REQUIRE(central.size() == subspace_.dim(),
                "central state dimension mismatch");
  la::Vector x = central;
  la::Vector p = perturbation(index);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += p[i];
  return x;
}

}  // namespace essex::esse
