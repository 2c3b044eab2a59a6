// Filter-comparison bench (DESIGN.md §16): every registered
// AnalysisMethod against the same forecast, the same ensemble and the
// same observation batch — the equal-footing comparison behind the
// EXPERIMENTS.md filter table.
//
// Protocol. One double-gyre scenario; one converged error-subspace
// forecast; an identical-twin truth drawn from the forecast uncertainty
// (truth = central + an in-span sample, so the prior error statistics
// are exactly what every filter assumes); one noisy observation batch
// sampling the truth. Each method then assimilates the identical batch,
// recording posterior RMSE against the truth, the subspace similarity ρ
// to the subspace-Kalman reference posterior, and the analysis
// wall-clock (best of --reps repetitions; the forecast is shared, so
// only the update is timed). The multi-model combiner's surrogate is the
// coarse companion run with a deliberate bias — the wrong-but-useful
// second model.
//
// Writes results/bench_filter_compare.json; --quick shrinks the grid and
// ensemble for the CI smoke run.
//
// Usage: bench_filter_compare [--out FILE] [--quick] [--reps N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/error_subspace.hpp"
#include "esse/obs_set.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace {

using namespace essex;

double rmse(const la::Vector& a, const la::Vector& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string method;
  double rmse_posterior = 0.0;
  double rho_vs_kalman = 0.0;
  double wall_ms_best = 0.0;
  double posterior_trace = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_filter_compare.json";
  bool quick = false;
  std::size_t reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::strtoul(argv[++i], nullptr, 10);
    } else {
      std::cerr
          << "usage: bench_filter_compare [--out FILE] [--quick] [--reps N]\n";
      return 2;
    }
  }
  reps = std::max<std::size_t>(reps, 1);

  const std::size_t nx = quick ? 12 : 24, ny = quick ? 10 : 20;
  const std::size_t members = quick ? 8 : 16;
  const double forecast_hours = quick ? 3.0 : 12.0;
  ocean::Scenario sc = ocean::make_double_gyre_scenario(nx, ny, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace prior = esse::bootstrap_subspace(
      model, sc.initial, 0.0, forecast_hours, 8, 0.99, 6, /*seed=*/11);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = forecast_hours;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {members, 2.0, 3 * members};
  cfg.cycle.convergence = {0.90, members};
  cfg.cycle.max_rank = 8;
  const esse::ForecastResult fc = service::run_parallel_forecast(
      workflow::ForecastRequest{model, sc.initial, prior, 0.0, cfg});
  std::printf("forecast: %zu members, rank %zu\n", fc.members_run,
              fc.forecast_subspace.rank());

  // Identical twin: the truth is the central forecast plus one in-span
  // draw, so every filter faces exactly the error statistics it assumes.
  Rng twin_rng(/*seed=*/0xF117ULL);
  la::Vector truth = fc.central_forecast;
  {
    const la::Vector err = fc.forecast_subspace.sample(twin_rng);
    for (std::size_t i = 0; i < truth.size(); ++i) truth[i] += err[i];
  }

  // One shared observation batch sampling the truth: every 17th packed
  // element, noise_std matched to the prior marginal scale.
  const double noise_std = 0.05;
  std::vector<esse::ObsEntry> entries;
  for (std::size_t i = 0; i < truth.size(); i += 17) {
    esse::ObsEntry e;
    e.stencil = {{i, 1.0}};
    e.value = truth[i] + twin_rng.normal(0.0, noise_std);
    e.variance = noise_std * noise_std;
    entries.push_back(std::move(e));
  }
  const esse::ObsSet obs{std::move(entries)};
  const double rmse_prior = rmse(fc.central_forecast, truth);
  std::printf("twin: %zu observations, prior rmse %.5f\n", obs.size(),
              rmse_prior);

  // The combiner's second opinion: the coarse companion run with a
  // deliberate bias on top of its truncation error.
  esse::AnalysisParams surrogate_params;
  surrogate_params.surrogate_bias = 0.005;
  const la::Vector surrogate = esse::run_surrogate_forecast(
      model, sc.initial, 0.0, forecast_hours, surrogate_params);

  esse::AnalysisOptions ref_options;
  const esse::AnalysisResult reference = esse::analyze(
      fc.central_forecast, fc.forecast_subspace, obs, ref_options);

  std::vector<Row> rows;
  for (const esse::AnalysisMethod method : esse::analysis_method_registry()) {
    esse::AnalysisOptions options;
    options.method = method;
    if (method == esse::AnalysisMethod::kMultiModel)
      options.multi_model.surrogate = &surrogate;
    esse::AnalysisResult res;
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const double t0 = wall_ms();
      res = esse::analyze(fc.central_forecast, fc.forecast_subspace, obs,
                          options);
      const double dt = wall_ms() - t0;
      best = (r == 0) ? dt : std::min(best, dt);
    }
    Row row;
    row.method = esse::to_string(method);
    row.rmse_posterior = rmse(res.posterior_state, truth);
    row.rho_vs_kalman = esse::subspace_similarity(
        res.posterior_subspace, reference.posterior_subspace);
    row.wall_ms_best = best;
    row.posterior_trace = res.posterior_trace;
    rows.push_back(row);
    std::printf("%-16s rmse %.5f  rho %.4f  trace %.4f  %8.3f ms\n",
                row.method.c_str(), row.rmse_posterior, row.rho_vs_kalman,
                row.posterior_trace, row.wall_ms_best);
  }

  // Smoke invariants, so the CI --quick run fails loudly on regression.
  // The equivalent filters must improve on the prior AND sit on the
  // reference posterior (ρ ≈ 1); the combiner assimilates a *biased*
  // second model, so its truth-RMSE may legitimately trade against the
  // bias — its contract is trace contraction in its own error metric.
  bool ok = true;
  for (const Row& row : rows) {
    const bool equivalent = row.method != "multi_model";
    if (equivalent && row.rmse_posterior > rmse_prior) {
      std::printf("FAIL: %s posterior rmse exceeds the prior\n",
                  row.method.c_str());
      ok = false;
    }
    if (equivalent && row.rho_vs_kalman < 0.9999) {
      std::printf("FAIL: %s drifted off the Kalman reference posterior\n",
                  row.method.c_str());
      ok = false;
    }
    if (row.posterior_trace > reference.prior_trace * (1.0 + 1e-9)) {
      std::printf("FAIL: %s inflated the posterior trace\n",
                  row.method.c_str());
      ok = false;
    }
  }

  const auto dir = std::filesystem::path(out_path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"shape\": \"double-gyre " << nx << "x" << ny << "x3, "
      << forecast_hours << " h forecast, " << fc.members_run
      << " members, rank " << fc.forecast_subspace.rank() << ", "
      << obs.size() << " obs, noise " << noise_std
      << ", identical-twin truth\",\n"
      << "  \"rmse_prior\": " << rmse_prior << ",\n"
      << "  \"methods\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"method\": \"" << rows[i].method
        << "\", \"rmse_posterior\": " << rows[i].rmse_posterior
        << ", \"rho_vs_kalman\": " << rows[i].rho_vs_kalman
        << ", \"posterior_trace\": " << rows[i].posterior_trace
        << ", \"wall_ms\": " << rows[i].wall_ms_best << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
