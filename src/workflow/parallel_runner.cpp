#include "workflow/parallel_runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ocean/state.hpp"

// The Fig.-4 execution loop itself lives in src/service/runner_core.cpp
// and run_parallel_forecast() in src/service/forecast_service.cpp: every
// one-shot call now routes through the persistent ForecastService, so
// this translation unit keeps only the validation surface the service
// uses for structured request rejection.

namespace essex::workflow {

namespace {

void check(std::vector<ValidationIssue>& issues, bool ok,
           const std::string& field, const char* message) {
  if (!ok) issues.push_back({field, message});
}

}  // namespace

std::vector<ValidationIssue> validate(const ParallelRunnerConfig& config) {
  std::vector<ValidationIssue> issues;
  const esse::CycleParams& cp = config.cycle;
  check(issues, config.pool_headroom >= 1.0, "config.pool_headroom",
        "pool headroom must be >= 1");
  check(issues, config.svd_min_new_members >= 1,
        "config.svd_min_new_members", "svd stride must be >= 1");
  check(issues, cp.forecast_hours > 0.0 && std::isfinite(cp.forecast_hours),
        "config.cycle.forecast_hours",
        "forecast length must be positive and finite");
  check(issues, cp.variance_fraction > 0.0 && cp.variance_fraction <= 1.0,
        "config.cycle.variance_fraction",
        "variance fraction must lie in (0, 1]");
  check(issues,
        cp.convergence.similarity_threshold > 0.0 &&
            cp.convergence.similarity_threshold <= 1.0,
        "config.cycle.convergence.similarity_threshold",
        "similarity threshold must lie in (0, 1]");
  validate_ensemble(cp.ensemble, cp.multilevel,
                    {"config.cycle.ensemble.initial",
                     "config.cycle.ensemble.growth",
                     "config.cycle.ensemble.max_members",
                     "config.cycle.ensemble.min_members",
                     "config.cycle.multilevel"},
                    issues);
  check(issues,
        cp.perturbation.white_noise >= 0.0 &&
            std::isfinite(cp.perturbation.white_noise),
        "config.cycle.perturbation.white_noise",
        "white-noise stddev must be finite and >= 0");
  check(issues,
        config.inject_probability >= 0.0 && config.inject_probability <= 1.0,
        "config.inject_probability",
        "failure probability must lie in [0, 1]");
  check(issues, !cp.localization.enabled || cp.localization.radius_km > 0.0,
        "config.cycle.localization.radius_km",
        "localization radius must be positive when localization is on");
  check(issues, cp.tiling.tiles_x >= 1, "config.cycle.tiling.tiles_x",
        "tile count must be >= 1");
  check(issues, cp.tiling.tiles_y >= 1, "config.cycle.tiling.tiles_y",
        "tile count must be >= 1");
  if (cp.multilevel.enabled()) {
    check(issues, !cp.localization.enabled,
          "config.cycle.multilevel.levels",
          "multilevel ensembles do not compose with localized analysis "
          "yet — run one or the other");
  }
  // Analysis-method selection (DESIGN.md §16).
  check(issues, esse::is_registered(cp.analysis.method),
        "config.cycle.analysis.method",
        "analysis method is not registered");
  return issues;
}

void validate_ensemble(const esse::EnsembleSizeController::Params& ensemble,
                       const esse::MultilevelParams& ml,
                       const EnsembleFields& fields,
                       std::vector<ValidationIssue>& issues) {
  check(issues, ensemble.initial >= 2, fields.initial,
        "initial ensemble size must be >= 2");
  check(issues, ensemble.growth > 1.0 && std::isfinite(ensemble.growth),
        fields.growth, "growth factor must be finite and exceed 1");
  check(issues, ensemble.max_members >= ensemble.initial,
        fields.max_members, "Nmax must be >= the initial size");
  check(issues, ensemble.min_members <= ensemble.max_members,
        fields.min_members, "min_members floor must be <= Nmax");
  // Multilevel member-mix constraints (DESIGN.md §15); grid-dependent
  // coarsenability checks live on the request overload.
  const std::string prefix = std::string(fields.multilevel) + ".";
  const std::string levels = prefix + "levels";
  const std::string per_level = prefix + "members_per_level";
  check(issues, ml.levels >= 1, levels,
        "hierarchy needs at least the fine level");
  if (!ml.enabled()) return;
  check(issues, ml.coarsen >= 2, prefix + "coarsen",
        "coarsening factor must be >= 2");
  if (ml.members_per_level.size() != ml.levels) {
    issues.push_back({per_level, "must name a member count for every level"});
  } else {
    check(issues, ml.members_per_level[0] >= 2, per_level,
          "the fine level needs >= 2 members");
    bool level_sizes_ok = true;
    for (std::size_t n : ml.members_per_level)
      if (n == 1) level_sizes_ok = false;
    check(issues, level_sizes_ok, per_level,
          "a used level needs >= 2 members (weights divide by n_l - 1)");
  }
  if (!ml.level_weights.empty()) {
    const std::string weights = prefix + "level_weights";
    if (ml.level_weights.size() != ml.members_per_level.size()) {
      issues.push_back({weights, "must match members_per_level in size"});
    } else {
      bool finite_nonneg = true;
      double used_sum = 0.0;
      for (std::size_t l = 0; l < ml.level_weights.size(); ++l) {
        const double w = ml.level_weights[l];
        if (!(std::isfinite(w) && w >= 0.0)) finite_nonneg = false;
        if (ml.members_per_level[l] > 0) used_sum += w;
      }
      check(issues, finite_nonneg, weights,
            "pooling weights must be finite and >= 0");
      check(issues, used_sum > 0.0, weights,
            "weights over the used levels must not all vanish");
    }
  }
}

std::vector<ValidationIssue> validate(const ForecastRequest& request) {
  std::vector<ValidationIssue> issues = validate(request.config);
  check(issues, std::isfinite(request.t0_hours), "request.t0_hours",
        "forecast start time must be finite");
  if (request.subspace.empty()) {
    issues.push_back({"request.subspace",
                      "initial error subspace must not be empty"});
  } else if (ocean::OceanState::packed_size(request.model.grid()) !=
             request.subspace.dim()) {
    std::ostringstream os;
    os << "initial subspace dimension " << request.subspace.dim()
       << " does not match the model's packed state size "
       << ocean::OceanState::packed_size(request.model.grid());
    issues.push_back({"request.subspace", os.str()});
  }
  // Tiling geometry checks need the grid, so they live on the request.
  const esse::CycleParams& cp = request.config.cycle;
  const ocean::Grid3D& grid = request.model.grid();
  if (cp.multilevel.enabled()) {
    // Every coarsened level must keep the 3x3 Grid3D minimum.
    std::size_t nx = grid.nx(), ny = grid.ny();
    const std::size_t f = std::max<std::size_t>(cp.multilevel.coarsen, 2);
    for (std::size_t l = 1; l < cp.multilevel.levels; ++l) {
      nx = (nx + f - 1) / f;
      ny = (ny + f - 1) / f;
      if (nx < 3 || ny < 3) {
        std::ostringstream os;
        os << "level " << l << " coarsens the grid to " << nx << "x" << ny
           << ", below the 3x3 minimum";
        issues.push_back({"config.cycle.multilevel.levels", os.str()});
        break;
      }
    }
  }
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    // The surrogate's coarse grid obeys the same 3x3 floor.
    const std::size_t f = esse::kSurrogateCoarsen;
    const std::size_t nx = (grid.nx() + f - 1) / f;
    const std::size_t ny = (grid.ny() + f - 1) / f;
    if (nx < 3 || ny < 3) {
      std::ostringstream os;
      os << "the multi-model surrogate coarsens the grid to " << nx << "x"
         << ny << ", below the 3x3 minimum";
      issues.push_back({"config.cycle.analysis.method", os.str()});
    }
  }
  if (cp.localization.enabled && cp.tiling.tiles_x >= 1 &&
      cp.tiling.tiles_y >= 1) {
    if (cp.tiling.tiles_x > grid.nx()) {
      std::ostringstream os;
      os << "tiles_x " << cp.tiling.tiles_x << " exceeds the grid's nx "
         << grid.nx();
      issues.push_back({"config.cycle.tiling.tiles_x", os.str()});
    }
    if (cp.tiling.tiles_y > grid.ny()) {
      std::ostringstream os;
      os << "tiles_y " << cp.tiling.tiles_y << " exceeds the grid's ny "
         << grid.ny();
      issues.push_back({"config.cycle.tiling.tiles_y", os.str()});
    }
    if (cp.tiling.tiles_x <= grid.nx() && cp.tiling.tiles_y <= grid.ny()) {
      // The smallest owned extent of the balanced partition.
      const std::size_t min_ext = std::min(grid.nx() / cp.tiling.tiles_x,
                                           grid.ny() / cp.tiling.tiles_y);
      if (cp.tiling.halo_cells >= min_ext) {
        std::ostringstream os;
        os << "halo of " << cp.tiling.halo_cells
           << " cells reaches past the smallest tile extent (" << min_ext
           << " cells): blending would span non-neighbouring tiles";
        issues.push_back({"config.cycle.tiling.halo_cells", os.str()});
      }
    }
  }
  return issues;
}

double forecast_work_units(const ForecastRequest& request) {
  const double m = static_cast<double>(
      ocean::OceanState::packed_size(request.model.grid()));
  const double dt = request.model.max_stable_dt_hours();
  const double steps =
      std::max(1.0, std::ceil(request.config.cycle.forecast_hours / dt));
  const esse::CycleParams& cp = request.config.cycle;
  // The multi-model surrogate is one extra deterministic integration on
  // the grid coarsened by esse::kSurrogateCoarsen = 2: 1/8 of a member.
  constexpr double kSurrogateCost = 1.0 / 8.0;
  const double surrogate =
      cp.analysis.method == esse::AnalysisMethod::kMultiModel
          ? kSurrogateCost * steps * m
          : 0.0;
  const esse::MultilevelParams& ml = cp.multilevel;
  if (!ml.enabled()) {
    // Worst-case planned ensemble: admission should not bet on early
    // convergence (the estimator's EWMA absorbs the systematic ratio).
    const double n = static_cast<double>(cp.ensemble.max_members);
    return n * steps * m + surrogate;
  }
  // Fixed per-level member mix, coarse members discounted by the CFL
  // cost ratio (points × steps shrink together).
  return ml.total_cost_units() * steps * m + surrogate;
}

std::string describe(const std::vector<ValidationIssue>& issues) {
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i) os << "; ";
    os << issues[i].field << ": " << issues[i].message;
  }
  return os.str();
}

}  // namespace essex::workflow
