#include "esse/convergence.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace essex::esse {

ConvergenceTest::ConvergenceTest(Params params) : params_(params) {
  ESSEX_REQUIRE(params.similarity_threshold > 0.0 &&
                    params.similarity_threshold <= 1.0,
                "similarity threshold must lie in (0,1]");
}

std::optional<double> ConvergenceTest::update(ErrorSubspace subspace,
                                              std::size_t n_members) {
  if (n_members < params_.min_members) return std::nullopt;
  ESSEX_REQUIRE(n_members >= latest_n_,
                "convergence updates must use non-decreasing ensemble sizes");
  std::optional<double> rho;
  if (latest_.has_value()) {
    rho = subspace_similarity(*latest_, subspace);
    history_.push_back({n_members, *rho});
    if (*rho >= params_.similarity_threshold) converged_ = true;
  }
  latest_ = std::move(subspace);
  latest_n_ = n_members;
  return rho;
}

ErrorSubspace ConvergenceTest::take_latest() {
  ESSEX_REQUIRE(latest_.has_value(), "no recorded subspace to take");
  ErrorSubspace out = std::move(*latest_);
  latest_.reset();
  return out;
}

EnsembleSizeController::EnsembleSizeController(Params params)
    : params_(params), target_(params.initial) {
  ESSEX_REQUIRE(params.initial >= 2, "initial ensemble size must be >= 2");
  ESSEX_REQUIRE(params.growth > 1.0, "growth factor must exceed 1");
  ESSEX_REQUIRE(params.max_members >= params.initial,
                "Nmax must be >= the initial size");
  ESSEX_REQUIRE(params.min_members <= params.max_members,
                "min_members floor must be <= Nmax");
}

std::size_t EnsembleSizeController::floor_members() const {
  return std::min(std::max<std::size_t>(params_.min_members, 2),
                  params_.max_members);
}

std::size_t EnsembleSizeController::pool_target(double headroom) const {
  // Huge or infinite headroom saturates at Nmax before the double→size_t
  // cast can overflow.
  const double m = std::ceil(static_cast<double>(target_) * headroom);
  if (!(m < static_cast<double>(params_.max_members))) {
    return params_.max_members;
  }
  return std::max(static_cast<std::size_t>(m), target_);
}

std::size_t EnsembleSizeController::grow() {
  // A huge or infinite growth factor saturates at Nmax before the
  // double→size_t cast, which would otherwise overflow (as in
  // pool_target()).
  const double next = std::ceil(static_cast<double>(target_) * params_.growth);
  if (!(next < static_cast<double>(params_.max_members))) {
    target_ = params_.max_members;
    return target_;
  }
  target_ = std::min(std::max(static_cast<std::size_t>(next), target_ + 1),
                     params_.max_members);
  return target_;
}

std::size_t EnsembleSizeController::shrink() {
  auto next = static_cast<std::size_t>(
      std::floor(static_cast<double>(target_) / params_.growth));
  next = std::min(next, target_ > 0 ? target_ - 1 : std::size_t{0});
  target_ = std::max(next, floor_members());
  return target_;
}

}  // namespace essex::esse
