#include "service/determinism_probe.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "esse/repro.hpp"
#include "obs/drifters.hpp"
#include "obs/observation.hpp"
#include "ocean/hierarchy.hpp"
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
    std::size_t threads, std::function<void(std::size_t)> arrival_hook) {
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
  const esse::ObsSet obs = esse::ObsSet::from_operator(h);

  // The combiner's second opinion: the same coarse companion integration
  // the runner attaches for kMultiModel cycles.
  const la::Vector surrogate = esse::run_surrogate_forecast(
      fx.model, sc.initial, 0.0, 3.0, /*bias=*/0.0);

  std::map<esse::AnalysisMethod, std::string> digests;
  for (const esse::AnalysisMethod method :
       esse::analysis_method_registry()) {
    esse::AnalysisOptions options;
    options.method = method;
    options.threads = threads;
    options.grid = &sc.grid;
    if (method == esse::AnalysisMethod::kMultiModel)
      options.surrogate = &surrogate;
    digests[method] = esse::analysis_digest(esse::analyze(
        fc.central_forecast, fc.forecast_subspace, obs, options));
  }
  return digests;
}

namespace {

// Little-endian, explicitly, as in esse/repro.cpp: the digest must not
// depend on how the host lays out integers.
void hash_u64(Sha256& h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  h.update(bytes, sizeof bytes);
}

void hash_doubles(Sha256& h, const std::vector<double>& v) {
  hash_u64(h, v.size());
  h.update(v.data(), v.size() * sizeof(double));
}

std::string state_digest(const ocean::OceanState& s, std::size_t steps) {
  Sha256 h;
  hash_u64(h, steps);
  for (const std::vector<double>* f :
       {&s.temperature, &s.salinity, &s.u, &s.v, &s.ssh})
    hash_doubles(h, *f);
  return h.hex();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> ocean_trajectory_digests() {
  std::vector<std::pair<std::string, std::string>> out;
  const ocean::Scenario mb = ocean::make_monterey_scenario(24, 20, 4);
  const ocean::OceanModel model(mb.grid, mb.params,
                                ocean::WindForcing(mb.wind), mb.initial);
  // Currents that match no diagnosis, land columns included: a run must
  // re-diagnose them before its first step and never touch them otherwise.
  ocean::OceanState stale = mb.initial;
  std::fill(stale.u.begin(), stale.u.end(), 0.3);
  std::fill(stale.v.begin(), stale.v.end(), -0.2);

  {  // Central run through an upwelling event that ends at 57.6 h.
    ocean::OceanState s = mb.initial;
    const std::size_t steps = model.run(s, 0.0, 100.0);
    out.emplace_back("ocean-monterey24x20x4-central-0-100h",
                     state_digest(s, steps));
  }
  {  // Stochastic member from stale currents, across the wind reversal.
    ocean::OceanState s = stale;
    Rng rng(/*seed=*/23, /*stream=*/5);
    const std::size_t steps = model.run(s, 48.0, 24.0, &rng);
    out.emplace_back("ocean-monterey24x20x4-stale-member-48-72h",
                     state_digest(s, steps));
  }
  {  // Zero length: the state comes back untouched, stale u/v included.
    ocean::OceanState s = stale;
    const std::size_t steps = model.run(s, 10.0, 0.0);
    out.emplace_back("ocean-monterey24x20x4-zero-length",
                     state_digest(s, steps));
  }
  {  // One coarse level, built the way MultilevelEnsemble builds it.
    const ocean::GridHierarchy hier(mb.grid, 2, 2);
    const ocean::Grid3D& g = hier.grid(1);
    ocean::OceanState clim(g);
    clim.unpack(hier.restrict_state(mb.initial.pack(), 1), g);
    const ocean::OceanModel coarse(g, mb.params, ocean::WindForcing(mb.wind),
                                   clim);
    ocean::OceanState s = clim;
    const std::size_t steps = coarse.run(s, 0.0, 72.0);
    out.emplace_back("ocean-monterey12x10x4-coarse-0-72h",
                     state_digest(s, steps));
  }
  {  // A surface drifter released mid-domain.
    Rng rng(/*seed=*/31);
    const std::vector<obs::DrifterFix> fixes = obs::advect_drifter(
        model, mb.initial, 0.0, 48.0, 40.0, 60.0, 3.0, 0.05, rng);
    Sha256 h;
    hash_u64(h, fixes.size());
    for (const obs::DrifterFix& f : fixes)
      hash_doubles(h, {f.t_hours, f.x_km, f.y_km, f.sst});
    out.emplace_back("ocean-monterey24x20x4-drifter-0-48h", h.hex());
  }
  {  // Stochastic double gyre: no land, the forecast goldens' physics.
    const ocean::Scenario dg = ocean::make_double_gyre_scenario(12, 10, 3);
    const ocean::OceanModel gyre(dg.grid, dg.params,
                                 ocean::WindForcing(dg.wind), dg.initial);
    ocean::OceanState s = dg.initial;
    Rng rng(/*seed=*/11, /*stream=*/3);
    const std::size_t steps = gyre.run(s, 0.0, 24.0, &rng);
    out.emplace_back("ocean-gyre12x10x3-member-0-24h",
                     state_digest(s, steps));
  }
  return out;
}

}  // namespace essex::service
