// ESSEX: the ESSE analysis (data assimilation) step.
//
// With the forecast uncertainty P ≈ E Λ Eᵀ confined to the error
// subspace, the minimum-variance update (paper Eq. B1c) reduces to small
// dense algebra: the k×k posterior core C = (Λ⁻¹ + (HE)ᵀR⁻¹HE)⁻¹ gives
// the posterior mean x_a = x_f + E·C·(HE)ᵀR⁻¹·d and the posterior modes
// from C's eigendecomposition. Costs O(m·k + p·k²): no full-space
// covariance is ever formed — the whole point of ESSE.
//
// One entry point serves every observation front end and both execution
// strategies: analyze(forecast, subspace, ObsSet, AnalysisOptions)
// dispatches to the historical global dense update (localization off —
// bitwise identical to the pre-redesign path) or to the tiled, localized
// engine of local_analysis.cpp (DESIGN.md §14): per-tile k×k solves with
// Gaspari–Cohn observation tapering, blended across halos with
// partition-of-unity weights. Gridded operators and generic linear
// stencils reach it through ObsSet::from_operator / ObsSet::from_linear.
#pragma once

#include <vector>

#include "esse/error_subspace.hpp"
#include "esse/obs_set.hpp"
#include "linalg/matrix.hpp"
#include "obs/observation.hpp"
#include "ocean/tiling.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::esse {

/// The analysis methods behind the unified analyze() entry point
/// (DESIGN.md §16). Both consume the same inputs — prior mean, error
/// subspace, ObsSet — and obey the same contract: the posterior
/// covariance never exceeds the prior (analysis never hurts), and
/// results are bitwise invariant to thread count. The values are stable
/// integers; 1 and 2 are retired and rejected like any unregistered
/// value.
enum class AnalysisMethod {
  /// The paper's information-form subspace Kalman update (Eq. B1c) —
  /// the default, bitwise identical to the pre-refactor path.
  kSubspaceKalman = 0,
  /// Multi-model combiner (mm-enkf): a deliberately-biased coarse
  /// surrogate forecast is assimilated as pseudo-observations appended
  /// after the real ones, then the subspace-Kalman core runs on the
  /// combined set.
  kMultiModel = 3,
};

/// Canonical lowercase name ("subspace_kalman", "multi_model").
const char* to_string(AnalysisMethod method);

/// Every method analyze() dispatches over, in canonical enum order —
/// the registry the testkit generators and cross-validation oracles
/// iterate.
const std::vector<AnalysisMethod>& analysis_method_registry();

/// True when `method` is one of the registered values (guards against
/// enum values cast from untrusted integers).
bool is_registered(AnalysisMethod method);

/// Output of one assimilation step.
struct AnalysisResult {
  la::Vector posterior_state;       ///< x_a
  ErrorSubspace posterior_subspace; ///< Ê Λ̂ Êᵀ ≈ P_a
  double prior_innovation_rms = 0;  ///< rms(yᵒ − H x_f)
  double posterior_innovation_rms = 0;  ///< rms(yᵒ − H x_a)
  double prior_trace = 0;   ///< tr(P_f)
  double posterior_trace = 0;  ///< tr(P_a) — must not exceed prior_trace
};

/// Distance-based observation localization. When enabled, an observation
/// influences a tile's solve with its noise variance inflated by
/// 1/GC(d) — the Gaspari–Cohn taper of the distance d from the
/// observation to the tile's owned rectangle — and drops out entirely
/// past the support 2·radius_km. Unpositioned observations (generic
/// linear stencils) reach every tile untapered.
struct LocalizationParams {
  bool enabled = false;
  double radius_km = 0.0;  ///< GC half-support c; influence dies at 2c
};

/// How one analyze() call executes. The default — localization off —
/// runs the global dense update exactly as before the redesign; enabling
/// localization selects the tiled engine, which needs the grid geometry
/// for tiling and distances.
struct AnalysisOptions {
  LocalizationParams localization;
  ocean::TilingParams tiling;  ///< tile decomposition of the tiled engine
  std::size_t threads = 1;     ///< worker threads (per-tile solves and
                               ///< the global HE build)
  const ocean::Grid3D* grid = nullptr;  ///< required when localized
  AnalysisMethod method = AnalysisMethod::kSubspaceKalman;
  /// The multi-model surrogate's packed fine-grid forecast, required
  /// when method == kMultiModel (see with_pseudo_observations()).
  const la::Vector* surrogate = nullptr;
  /// Optional telemetry (nullable, not owned): `analysis.*` counters —
  /// method name, observation counts, the thread count actually used.
  telemetry::Sink* sink = nullptr;
};

/// Method selection as carried by CycleParams and ForecastRequest
/// (workflow::validate() covers every constraint). The multi-model
/// surrogate's shape is fixed (run_surrogate_forecast()); only its bias
/// is a knob.
struct AnalysisParams {
  AnalysisMethod method = AnalysisMethod::kSubspaceKalman;
  double surrogate_bias = 0.0;  ///< additive bias on top of the coarse
                                ///< truncation error (tests/benches)
};

/// The Gaspari–Cohn 5th-order piecewise-rational correlation function:
/// 1 at distance 0, compactly supported on [0, 2·half_support). The
/// first-class localization taper.
double gaspari_cohn(double dist, double half_support);

/// Perform the ESSE analysis with options.method. Requires a registered
/// method, a non-empty subspace, at least one observation, and
/// forecast.size() == subspace.dim(); every observation needs a finite
/// value, finite stencil weights, a finite positive variance and, when
/// positioned, finite coordinates (PreconditionError otherwise, before
/// any path runs); when options.localization.enabled, also a grid whose
/// packed size matches the state; when method == kMultiModel, also a
/// surrogate forecast of the same dimension.
AnalysisResult analyze(const la::Vector& forecast,
                       const ErrorSubspace& subspace, const ObsSet& obs,
                       const AnalysisOptions& options = {});

/// The combined observation set the multi-model method assimilates: the
/// real observations followed by the surrogate's pseudo-observations in
/// canonical (ascending packed-index) order. The surrogate is sampled at
/// every 25th packed index; each sample becomes an identity-stencil
/// observation whose noise variance is the prior marginal variance there
/// inflated 4× — the mm-enkf discipline of weighting the second model by
/// the first's uncertainty — plus a 1e-6 floor so degenerate prior
/// directions stay assimilable. Exposed so tests can pin
/// the combiner to "kSubspaceKalman on this exact set", bitwise. When
/// options.grid is set the pseudo-observations carry grid positions and
/// participate in localization tapering.
ObsSet with_pseudo_observations(const ErrorSubspace& subspace,
                                const ObsSet& obs,
                                const AnalysisOptions& options);

namespace detail {

/// The shared k×k posterior core: C = B (I + Bᵀ G B)⁻¹ B with
/// B = diag(sigmas) and G = HEᵀ R⁻¹ HE, used by both the global update
/// and every tile's local solve.
la::Matrix posterior_core(const la::Vector& sigmas, const la::Matrix& g);

/// Shared truncation rule for posterior spectra: modes kept while the
/// eigenvalue clears 1e-14 of the leading one, never fewer than one.
std::size_t kept_rank(const la::Vector& eigenvalues);

}  // namespace detail

}  // namespace essex::esse
