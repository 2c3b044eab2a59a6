// ESSEX: ESSE convergence control (paper §3/Fig. 2, §4 point 2).
//
// "A convergence criterion compares error subspaces of different sizes.
// Hence the dimensions of the ensemble and error subspace vary in time."
// ConvergenceTest tracks the subspace estimated at successive ensemble
// sizes and reports convergence when the weighted similarity coefficient
// exceeds a threshold. EnsembleSizeController implements the staged pool
// growth N → N₂ → … → Nmax.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "esse/error_subspace.hpp"

namespace essex::esse {

/// Successive-subspace convergence test.
class ConvergenceTest {
 public:
  struct Params {
    double similarity_threshold = 0.97;  ///< ρ* for convergence
    std::size_t min_members = 8;  ///< don't test below this ensemble size
  };

  explicit ConvergenceTest(Params params);

  /// Record the subspace estimated from `n_members` members; returns the
  /// similarity with the previous estimate (nullopt for the first call or
  /// when below min_members). A recorded estimate is moved in and kept
  /// until the next one, never copied.
  std::optional<double> update(ErrorSubspace subspace, std::size_t n_members);

  /// True once two successive estimates agreed at the threshold.
  bool converged() const { return converged_; }

  /// Ensemble size of the estimate the last recording update() kept (0
  /// before the first one). Once converged() that is the converged one.
  std::size_t latest_members() const { return latest_n_; }

  /// Move that estimate out, e.g. into the forecast result; requires one.
  /// The next update() is then compared against nothing, like a first
  /// call.
  ErrorSubspace take_latest();

  /// History of (n_members, similarity-with-previous) pairs.
  struct Sample {
    std::size_t n_members;
    double similarity;
  };
  const std::vector<Sample>& history() const { return history_; }

  const Params& params() const { return params_; }

 private:
  Params params_;
  std::optional<ErrorSubspace> latest_;
  std::size_t latest_n_ = 0;
  std::vector<Sample> history_;
  bool converged_ = false;
};

/// Staged ensemble-size schedule: start at N, multiply by `growth` on
/// each failed convergence test, cap at Nmax (paper §4.1 last paragraph).
/// The DES twin (SimForecastService::maybe_shrink_for_deadline) also
/// drives the schedule *down* when a request would miss its deadline:
/// shrink() walks the target back toward the `min_members` floor without
/// restarting the ensemble. The real ForecastService never shrinks.
class EnsembleSizeController {
 public:
  struct Params {
    std::size_t initial = 32;
    double growth = 2.0;
    std::size_t max_members = 512;  ///< Nmax
    /// Elasticity floor: shrink() never reduces the target below this
    /// (and never below 2 — a spread needs two members).
    std::size_t min_members = 2;
  };

  explicit EnsembleSizeController(Params params);

  /// Current target ensemble size N.
  std::size_t target() const { return target_; }

  /// Pool size M ≥ N: keep `headroom` extra members in flight so the SVD
  /// pipeline never drains while the pool is enlarged. Extreme headroom
  /// saturates at Nmax; callers refuse headroom below 1.
  std::size_t pool_target(double headroom) const;

  /// Enlarge after a failed convergence test; returns the new target.
  /// Saturates at Nmax.
  std::size_t grow();

  /// Walk the target back by one growth stage (inverse of grow());
  /// returns the new target. Saturates at the min_members floor.
  std::size_t shrink();

  bool at_max() const { return target_ >= params_.max_members; }
  bool at_min() const { return target_ <= floor_members(); }

  const Params& params() const { return params_; }

 private:
  /// Effective shrink floor: max(min_members, 2), capped at Nmax.
  std::size_t floor_members() const;

  Params params_;
  std::size_t target_;
};

}  // namespace essex::esse
