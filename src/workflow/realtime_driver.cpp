#include "workflow/realtime_driver.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "linalg/stats.hpp"
#include "obs/instruments.hpp"
#include "obs/observation.hpp"

namespace essex::workflow {

namespace {

/// Initial-uncertainty bootstrap: spin-up length, and the inflation of
/// its spread (realistic IC error ≫ model noise).
constexpr double kBootstrapSpinupH = 12.0;
constexpr double kBootstrapInflation = 5.0;
/// Multiplicative inflation of the posterior spread handed to the next
/// cycle — compensates error growth the subspace cannot represent
/// (unresolved model error).
constexpr double kCycleInflation = 1.3;
constexpr std::uint64_t kTruthSeed = 777;

}  // namespace

RealtimeReport run_realtime_experiment(const ocean::OceanModel& model,
                                       const ocean::OceanState& initial,
                                       const ForecastTimeline& timeline,
                                       const RealtimeConfig& config) {
  ESSEX_REQUIRE(!timeline.procedures().empty(),
                "timeline needs at least one forecast procedure");
  for (std::size_t k = 1; k < timeline.procedures().size(); ++k) {
    ESSEX_REQUIRE(timeline.procedures()[k].tau_start_h >=
                      timeline.procedures()[k - 1].tau_start_h,
                  "procedures must be ordered by forecaster start");
  }

  const ocean::Grid3D& grid = model.grid();
  const la::Vector climatology = initial.pack();

  // Initial error subspace (inflated spin-up spread, DESIGN.md §2).
  esse::ErrorSubspace raw = esse::bootstrap_subspace(
      model, initial, timeline.t0(), kBootstrapSpinupH,
      config.bootstrap_samples, 0.999, config.max_rank, kTruthSeed);
  la::Vector inflated = raw.sigmas();
  for (auto& s : inflated) s *= kBootstrapInflation;
  esse::ErrorSubspace subspace(raw.modes(), inflated);

  // Hidden twin truth: displaced initial state + its own model noise.
  ocean::OceanState truth(grid);
  {
    Rng draw(kTruthSeed, 3);
    la::Vector x = climatology;
    la::Vector d = subspace.sample(draw);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += d[i];
    truth.unpack(x, grid);
  }
  Rng truth_rng(kTruthSeed, 1);
  double truth_time = timeline.t0();

  auto truth_at = [&](double t_h) -> const ocean::OceanState& {
    ESSEX_REQUIRE(t_h >= truth_time - 1e-9,
                  "truth cannot be rewound — order procedures in time");
    if (t_h > truth_time) {
      model.run(truth, truth_time, t_h - truth_time, &truth_rng);
      truth_time = t_h;
    }
    return truth;
  };

  RealtimeReport report;
  ocean::OceanState analysis_state = initial;
  double analysis_time = timeline.t0();
  Rng obs_rng(kTruthSeed, 9);

  for (std::size_t k = 0; k < timeline.procedures().size(); ++k) {
    const double nowcast_h = timeline.nowcast_boundary(k);
    const double forecast_h = timeline.procedures()[k].sim_end_h;
    ESSEX_REQUIRE(nowcast_h >= analysis_time,
                  "nowcast boundary precedes the previous analysis");

    // Observations available to this procedure, sampled at the nowcast.
    const ocean::OceanState& truth_now = truth_at(nowcast_h);
    obs::ObservationSet campaign =
        obs::aosn_campaign(grid, truth_now, obs_rng);
    obs::ObsOperator h(grid, campaign);

    // Ensemble forecast from the last analysis to the nowcast, then the
    // ESSE update.
    esse::CycleParams cp = config.cycle;
    cp.forecast_hours = std::max(nowcast_h - analysis_time, 1e-3);
    esse::CycleResult cycle = esse::run_assimilation_cycle(
        model, analysis_state, subspace, analysis_time, h, cp);

    ProcedureReport pr;
    pr.procedure = k;
    pr.nowcast_h = nowcast_h;
    pr.forecast_h = forecast_h;
    pr.obs_assimilated = h.count();
    pr.members_run = cycle.forecast.members_run;
    pr.converged = cycle.forecast.converged;

    const la::Vector truth_vec = truth_now.pack();
    pr.nowcast_prior =
        esse::skill(cycle.forecast.central_forecast, truth_vec, climatology);
    pr.nowcast_posterior =
        esse::skill(cycle.analysis.posterior_state, truth_vec, climatology);
    pr.spread_skill = esse::spread_skill_ratio(
        cycle.forecast.forecast_subspace, cycle.forecast.central_forecast,
        truth_vec);
    report.persistence_rmse.push_back(
        la::rms_diff(climatology, truth_vec));

    // Forecast proper: deterministic run of the posterior to sim_end.
    ocean::OceanState posterior(grid);
    posterior.unpack(cycle.analysis.posterior_state, grid);
    if (forecast_h > nowcast_h) {
      ocean::OceanState fc = posterior;
      model.run(fc, nowcast_h, forecast_h - nowcast_h, nullptr);
      // Copy the truth so later procedures can still advance it lazily.
      ocean::OceanState truth_future = truth;
      Rng future_rng = truth_rng;  // same stream state going forward
      model.run(truth_future, truth_time, forecast_h - truth_time,
                &future_rng);
      pr.forecast_skill =
          esse::skill(fc.pack(), truth_future.pack(), climatology);
    } else {
      pr.forecast_skill = pr.nowcast_posterior;
    }

    report.procedures.push_back(pr);

    // Hand the analysis to the next cycle, inflating the spread to
    // account for error growth outside the subspace.
    analysis_state = posterior;
    analysis_time = nowcast_h;
    la::Vector next_sigmas = cycle.analysis.posterior_subspace.sigmas();
    for (auto& s : next_sigmas) s *= kCycleInflation;
    subspace = esse::ErrorSubspace(cycle.analysis.posterior_subspace.modes(),
                                   next_sigmas);
  }
  return report;
}

}  // namespace essex::workflow
