#include "service/determinism_probe.hpp"

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "esse/repro.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"

namespace essex::service {

namespace {

/// The canonical run's inputs: scenario, model and bootstrap subspace.
struct GoldenFixture {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model{sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial};
  esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 3.0, 8, 0.99, 6, /*seed=*/11);
};

/// The golden variants differ only in these switches.
enum class Variant { kGlobal, kTiled, kMultilevel };

esse::ForecastResult run_golden(const GoldenFixture& fx, Variant variant,
                                std::size_t threads,
                                std::function<void(std::size_t)> arrival_hook) {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = threads;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  if (variant == Variant::kTiled) {
    cfg.cycle.localization.enabled = true;
    cfg.cycle.localization.radius_km = 40.0;
    cfg.cycle.tiling.tiles_x = 3;
    cfg.cycle.tiling.tiles_y = 2;
    cfg.cycle.tiling.halo_cells = 1;
  }
  if (variant == Variant::kMultilevel) {
    cfg.cycle.multilevel.levels = 2;
    cfg.cycle.multilevel.coarsen = 2;
    cfg.cycle.multilevel.members_per_level = {8, 16};
  }
  cfg.svd_min_new_members = 4;
  cfg.arrival_hook = std::move(arrival_hook);
  return run_parallel_forecast(
      workflow::ForecastRequest{fx.model, fx.sc.initial, fx.subspace, 0.0,
                                cfg});
}

}  // namespace

esse::ForecastResult golden_forecast(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook) {
  return run_golden(GoldenFixture{}, Variant::kGlobal, threads,
                    std::move(arrival_hook));
}

std::string golden_digest(std::size_t threads,
                          std::function<void(std::size_t)> arrival_hook) {
  return esse::forecast_digest(
      golden_forecast(threads, std::move(arrival_hook)));
}

esse::ForecastResult golden_tiled_forecast(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook) {
  return run_golden(GoldenFixture{}, Variant::kTiled, threads,
                    std::move(arrival_hook));
}

std::string golden_tiled_digest(std::size_t threads,
                                std::function<void(std::size_t)> arrival_hook) {
  return esse::forecast_digest(
      golden_tiled_forecast(threads, std::move(arrival_hook)));
}

esse::ForecastResult golden_multilevel_forecast(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook) {
  return run_golden(GoldenFixture{}, Variant::kMultilevel, threads,
                    std::move(arrival_hook));
}

std::string golden_multilevel_digest(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook) {
  return esse::forecast_digest(
      golden_multilevel_forecast(threads, std::move(arrival_hook)));
}

std::map<esse::AnalysisMethod, std::string> golden_analysis_digests(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook,
    std::uint64_t obs_order_seed) {
  const GoldenFixture fx;
  const ocean::Scenario& sc = fx.sc;
  const esse::ForecastResult fc =
      run_golden(fx, Variant::kGlobal, threads, std::move(arrival_hook));

  // Fixed probe-then-perturb observation batch: a 4×3 spread of
  // temperature/salinity/SSH stations over the gyre, values sampled from
  // the golden forecast plus seeded noise — every run rebuilds the exact
  // same batch.
  obs::ObservationSet set;
  Rng value_rng(/*seed=*/11 ^ 0x0b5ULL);
  for (std::size_t i = 0; i < 12; ++i) {
    obs::Observation ob;
    switch (i % 3) {
      case 0: ob.kind = obs::VarKind::kTemperature; break;
      case 1: ob.kind = obs::VarKind::kSalinity; break;
      default: ob.kind = obs::VarKind::kSsh; break;
    }
    ob.x_km = sc.grid.dx_km() * static_cast<double>(3 * (i % 4));
    ob.y_km = sc.grid.dy_km() * static_cast<double>(3 * (i / 4));
    ob.depth_m = ob.kind == obs::VarKind::kSsh
                     ? 0.0
                     : 25.0 * static_cast<double>(i % 3);
    ob.noise_std = 0.1 + 0.02 * static_cast<double>(i);
    set.push_back(ob);
  }
  obs::ObsOperator probe(sc.grid, set);
  const la::Vector at_forecast = probe.apply(fc.central_forecast);
  for (std::size_t i = 0; i < set.size(); ++i)
    set[i].value = at_forecast[i] + value_rng.normal(0.0, set[i].noise_std);
  obs::ObsOperator h(sc.grid, std::move(set));
  esse::ObsSet obs = esse::ObsSet::from_operator(h);

  if (obs_order_seed != 0) {
    // Adversarial assembly order (Fisher–Yates on the entries): the §10
    // contract demands identical digests regardless.
    std::vector<esse::ObsEntry> entries = obs.entries();
    Rng shuffle_rng(obs_order_seed);
    for (std::size_t i = entries.size(); i > 1; --i)
      std::swap(entries[i - 1], entries[shuffle_rng.uniform_index(i)]);
    obs = esse::ObsSet(std::move(entries));
  }

  // The combiner's second opinion: the same coarse companion integration
  // the runner attaches for kMultiModel cycles.
  const la::Vector surrogate = esse::run_surrogate_forecast(
      fx.model, sc.initial, 0.0, 3.0, esse::AnalysisParams{});

  std::map<esse::AnalysisMethod, std::string> digests;
  for (const esse::AnalysisMethod method :
       esse::analysis_method_registry()) {
    esse::AnalysisOptions options;
    options.method = method;
    options.threads = threads;
    options.grid = &sc.grid;
    if (method == esse::AnalysisMethod::kMultiModel)
      options.multi_model.surrogate = &surrogate;
    digests[method] = esse::analysis_digest(esse::analyze(
        fc.central_forecast, fc.forecast_subspace, obs, options));
  }
  return digests;
}

}  // namespace essex::service
