// ESSEX: the ESSE forecast/assimilation cycle (paper Fig. 2).
//
// This is the *scientific* driver: perturb → ensemble forecast → differ →
// SVD → convergence test → (optionally) assimilate, all in-process with
// an optional thread pool. The MTC execution semantics of Fig. 4 —
// schedulers, I/O staging, cancellation policies — live in src/workflow;
// both layers share these numerics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/member_ledger.hpp"
#include "esse/analysis.hpp"
#include "esse/convergence.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "esse/multilevel.hpp"
#include "esse/perturbation.hpp"
#include "obs/observation.hpp"
#include "ocean/model.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::esse {

/// Knobs for one forecast cycle.
struct CycleParams {
  PerturbationGenerator::Params perturbation;
  ConvergenceTest::Params convergence;
  EnsembleSizeController::Params ensemble;
  double forecast_hours = 24.0;   ///< simulation-time length of the forecast
  double variance_fraction = 0.99;  ///< subspace truncation
  std::size_t max_rank = 0;       ///< 0 = uncapped
  std::size_t check_interval = 8;  ///< members between SVD/convergence tests
  /// Worker threads for the MTC runner's member pool and the tiled
  /// analysis; the block-synchronous run_uncertainty_forecast always
  /// integrates its members serially.
  std::size_t threads = 1;
  bool stochastic_members = true;  ///< members feel model noise (dη)
  /// Localized analysis (DESIGN.md §14). Off by default: the global
  /// dense update, bitwise identical to the pre-localization cycle.
  /// When enabled, the analysis runs tiled per `tiling` and the differ's
  /// column store is sharded by the same tiling.
  LocalizationParams localization;
  ocean::TilingParams tiling;
  /// Multilevel (multi-fidelity) ensemble (DESIGN.md §15). Off by
  /// default (levels == 1): the single-level path, bitwise identical to
  /// the pre-multilevel cycle. When enabled, the MTC runner executes the
  /// planned per-level member mix instead of the adaptive
  /// `ensemble`-controller schedule (pool growth and headroom do not
  /// apply — the level layout is fixed up front so column weights are
  /// schedule-free).
  MultilevelParams multilevel;
  /// Analysis filter selection + multi-model surrogate bias (DESIGN.md
  /// §16). The default — kSubspaceKalman — leaves the cycle bitwise
  /// identical to the pre-refactor path. When method == kMultiModel the
  /// forecast stage additionally integrates the deliberately-biased
  /// coarse surrogate and the analysis assimilates it as
  /// pseudo-observations.
  AnalysisParams analysis;
  /// Optional telemetry sink (nullable, not owned): the forecast loop
  /// streams `esse.convergence` events (t = ensemble size, value = ρ) and
  /// `esse.*` counters into it.
  telemetry::Sink* sink = nullptr;
};

/// MTC execution accounting attached to a forecast by task-parallel
/// runners (service::run_parallel_forecast); absent for the serial
/// block-synchronous driver. The inherited tally is the executor's:
/// members_submitted is the pool size M issued (M ≥ N), every submitted
/// member is done, cancelled or lost, and the attempt tallies are zero
/// for failure-free runs.
struct MtcAccounting : MemberTally {
  /// Submitted members the forecast does not use (members_submitted −
  /// members_run): cancelled on convergence (§4.1), past the deciding
  /// milestone, or lost.
  std::size_t members_unused = 0;
  std::size_t svd_runs = 0;           ///< decoupled SVD invocations
};

/// Outcome of the uncertainty-forecast stage. The single forecast result
/// type for both the block-synchronous driver and the MTC runner: the
/// latter additionally fills `mtc`.
struct ForecastResult {
  la::Vector central_forecast;      ///< packed central (unperturbed) run
  ErrorSubspace forecast_subspace;  ///< dominant forecast error modes
  std::size_t members_run = 0;
  bool converged = false;
  std::vector<ConvergenceTest::Sample> convergence_history;
  std::optional<MtcAccounting> mtc;  ///< set by MTC runners only
  /// Coarse companion forecast (packed, fine-grid dimension), present
  /// only when CycleParams::analysis.method == kMultiModel — the
  /// multi-model combiner's second opinion, assimilated as
  /// pseudo-observations by the analysis stage.
  std::optional<la::Vector> surrogate_forecast;
};

/// Horizontal coarsening of the multi-model surrogate's grid: it runs on
/// level 1 of a factor-2 GridHierarchy of the fine grid, so it costs 1/8
/// of a fine member (¼ the points × ½ the steps under the advective CFL).
inline constexpr std::size_t kSurrogateCoarsen = 2;

/// Integrate the multi-model surrogate: a deliberately-biased coarse
/// companion forecast on the kSurrogateCoarsen-coarsened grid (the
/// MultilevelEnsemble coarse-model recipe), prolonged back to the fine
/// grid with `bias` added uniformly. Deterministic (no model noise) —
/// one extra cheap integration per cycle.
la::Vector run_surrogate_forecast(const ocean::OceanModel& model,
                                  const ocean::OceanState& initial,
                                  double t0_hours, double forecast_hours,
                                  double bias);

/// Integrate one ensemble member from a packed initial condition for
/// `forecast_hours`; returns the packed final state. A stochastic member
/// draws its model noise from a stream keyed by (`seed`, `member_id`),
/// offset from the perturbation stream of the same member id.
la::Vector run_member(const ocean::OceanModel& model,
                      const la::Vector& packed_initial, double t0_hours,
                      double forecast_hours, bool stochastic,
                      std::uint64_t seed, std::size_t member_id);

/// Run the ensemble uncertainty forecast: integrate the central state and
/// `N` perturbed members from `t0_hours` for `forecast_hours`, growing N
/// per the controller until the subspace converges or Nmax is reached.
ForecastResult run_uncertainty_forecast(const ocean::OceanModel& model,
                                        const ocean::OceanState& initial,
                                        const ErrorSubspace& initial_subspace,
                                        double t0_hours,
                                        const CycleParams& params);

/// Full cycle: uncertainty forecast followed by the ESSE analysis against
/// the given observations. Returns both stages' outputs.
struct CycleResult {
  ForecastResult forecast;
  AnalysisResult analysis;
};

CycleResult run_assimilation_cycle(const ocean::OceanModel& model,
                                   const ocean::OceanState& initial,
                                   const ErrorSubspace& initial_subspace,
                                   double t0_hours,
                                   const obs::ObsOperator& h,
                                   const CycleParams& params);

/// Build an initial error subspace when no posterior from a previous
/// cycle exists: sample `n_samples` stochastic model integrations of
/// length `spinup_hours` about `initial` and take their dominant spread
/// modes. This is the "error nowcast" bootstrap.
ErrorSubspace bootstrap_subspace(const ocean::OceanModel& model,
                                 const ocean::OceanState& initial,
                                 double t0_hours, double spinup_hours,
                                 std::size_t n_samples,
                                 double variance_fraction,
                                 std::size_t max_rank, std::uint64_t seed,
                                 std::size_t threads = 1);

}  // namespace essex::esse
