// Fig.-2-style multilevel convergence bench (DESIGN.md §15): how many
// CPU-seconds does the error-subspace forecast need to reach a given
// accuracy, single-level vs multilevel?
//
// Protocol. One double-gyre scenario; a "truth" subspace from a large
// fine-grid ensemble drawn with an independent perturbation seed; then
//   * a fine-only member sweep N ∈ {8..48} (candidate seed), recording
//     ρ(N) = subspace_similarity(candidate, truth) and the measured
//     process CPU-seconds of each forecast;
//   * one multilevel run (a few fine members + many coarse ones on the
//     2×-coarsened grid, same candidate seed) recording ρ_ml and its
//     CPU-seconds.
// The equal-accuracy cost ratio is cpu(N_eq)/cpu_ml, where N_eq is the
// smallest fine-only N whose ρ matches the multilevel run's — the
// "members needed for equal accuracy" reading of the paper's Fig. 2.
// All ensembles are exhaustive (convergence thresholds set so no run
// cancels early), so the ratio measures the estimators, not the
// scheduler.
//
// The JSON written to results/bench_multilevel.json records the sweep
// plus the `multilevel_cpu_ratio` kernel that tools/check_perf.py
// ratchets (CPU-seconds are measured on both sides of the ratio, so the
// floor is machine-portable).
//
// Usage: bench_multilevel [--out FILE] [--quick]
//                         [--ml-fine N] [--ml-coarse N] [--hours H]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "esse/cycle.hpp"
#include "esse/error_subspace.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace {

using namespace essex;

struct RunPoint {
  std::size_t fine_members = 0;
  std::size_t coarse_members = 0;
  double rho = 0.0;    ///< similarity to the truth subspace
  double cpu_s = 0.0;  ///< process CPU-seconds of the forecast
};

double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_multilevel.json";
  bool quick = false;
  std::size_t ml_fine = 4;
  std::size_t ml_coarse = 48;
  double ml_wfine = 0.0;  ///< 0 = default (weights ∝ member counts)
  double hours_override = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--ml-fine" && i + 1 < argc) {
      ml_fine = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--ml-coarse" && i + 1 < argc) {
      ml_coarse = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--ml-wfine" && i + 1 < argc) {
      ml_wfine = std::strtod(argv[++i], nullptr);
    } else if (arg == "--hours" && i + 1 < argc) {
      hours_override = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: bench_multilevel [--out FILE] [--quick] "
                   "[--ml-fine N] [--ml-coarse N] [--hours H]\n";
      return 2;
    }
  }

  // 24×20×3 double gyre: coarsens to 12×10×3 — still enough points to
  // track the gyre (it is the golden-run resolution), while the CFL
  // makes a coarse member ~8× cheaper than a fine one.
  ocean::Scenario sc = ocean::make_double_gyre_scenario(24, 20, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  // Long enough that member integration dominates the per-member cost
  // (differ/SVD overhead is resolution-independent, so short forecasts
  // would understate the coarse members' 8× integration advantage) —
  // quick mode trims member counts, not the horizon, for that reason.
  double forecast_hours = 24.0;
  if (hours_override > 0.0) forecast_hours = hours_override;
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, forecast_hours, 8, 0.99, 6, /*seed=*/11);

  const std::size_t truth_members = quick ? 64 : 96;
  std::vector<std::size_t> fine_sweep = {8, 12, 16, 24, 32, 48, 64};
  if (quick) fine_sweep = {8, 16, 32, 48};

  // An exhaustive run: convergence can never fire, every planned member
  // lands, so CPU-seconds measure the estimator, not early exit.
  const auto base_config = [&](std::size_t members) {
    workflow::ParallelRunnerConfig cfg;
    cfg.cycle.forecast_hours = forecast_hours;
    cfg.cycle.threads = 1;  // CPU-seconds == one worker's member loop
    cfg.cycle.ensemble = {members, 2.0, members};
    cfg.cycle.convergence = {0.9999, members};
    cfg.cycle.max_rank = 8;
    // One SVD snapshot at the end of the run: the periodic cadence's
    // cost grows superlinearly with ensemble size, which would bill the
    // two estimators differently for the same accuracy. Convergence is
    // only tested at the final milestone anyway (min_members above).
    cfg.svd_min_new_members = members;
    return cfg;
  };

  const auto run_one = [&](workflow::ParallelRunnerConfig cfg,
                           std::uint64_t seed) {
    cfg.cycle.perturbation.seed = seed;
    const double t0 = cpu_seconds();
    esse::ForecastResult res = service::run_parallel_forecast(
        workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});
    const double t1 = cpu_seconds();
    return std::pair<esse::ForecastResult, double>{std::move(res), t1 - t0};
  };

  // Truth: an independent large fine ensemble (its own seed, so the
  // candidates are compared against a genuinely different sample, not
  // re-draws of their own members).
  std::printf("truth: %zu fine members...\n", truth_members);
  const auto [truth, truth_cpu] =
      run_one(base_config(truth_members), /*seed=*/0xF19ULL);
  std::printf("truth ran %zu members in %.2f cpu-s\n", truth.members_run,
              truth_cpu);

  std::vector<RunPoint> sweep;
  for (const std::size_t n : fine_sweep) {
    const auto [res, cpu] = run_one(base_config(n), /*seed=*/42);
    RunPoint p;
    p.fine_members = n;
    p.rho = esse::subspace_similarity(res.forecast_subspace,
                                      truth.forecast_subspace);
    p.cpu_s = cpu;
    sweep.push_back(p);
    std::printf("fine N=%2zu  rho %.4f  %7.2f cpu-s\n", n, p.rho, p.cpu_s);
  }

  workflow::ParallelRunnerConfig ml_cfg =
      base_config(ml_fine + ml_coarse);
  ml_cfg.cycle.multilevel.levels = 2;
  ml_cfg.cycle.multilevel.coarsen = 2;
  ml_cfg.cycle.multilevel.members_per_level = {ml_fine, ml_coarse};
  if (ml_wfine > 0.0)
    ml_cfg.cycle.multilevel.level_weights = {ml_wfine, 1.0 - ml_wfine};
  const auto [ml_res, ml_cpu] = run_one(ml_cfg, /*seed=*/42);
  RunPoint ml;
  ml.fine_members = ml_fine;
  ml.coarse_members = ml_coarse;
  ml.rho = esse::subspace_similarity(ml_res.forecast_subspace,
                                     truth.forecast_subspace);
  ml.cpu_s = ml_cpu;
  std::printf("multilevel %zu fine + %zu coarse  rho %.4f  %7.2f cpu-s\n",
              ml_fine, ml_coarse, ml.rho, ml.cpu_s);

  // Equal accuracy: the cheapest fine-only ensemble at least as close to
  // the truth as the multilevel one (the largest sweep point if none is).
  const RunPoint* equal = &sweep.back();
  for (const RunPoint& p : sweep) {
    if (p.rho >= ml.rho) {
      equal = &p;
      break;
    }
  }
  const double speedup = equal->cpu_s / std::max(ml.cpu_s, 1e-9);
  std::printf(
      "equal accuracy: fine N=%zu (rho %.4f) costs %.2f cpu-s vs "
      "multilevel %.2f cpu-s -> %.2fx\n",
      equal->fine_members, equal->rho, equal->cpu_s, ml.cpu_s, speedup);

  const auto dir = std::filesystem::path(out_path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"shape\": \"double-gyre 24x20x3, " << forecast_hours
      << " h forecast, truth " << truth_members
      << " fine members (independent seed), rank 8\",\n"
      << "  \"series\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << "    {\"fine_members\": " << sweep[i].fine_members
        << ", \"rho\": " << sweep[i].rho
        << ", \"cpu_s\": " << sweep[i].cpu_s << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"multilevel\": {\"fine_members\": " << ml.fine_members
      << ", \"coarse_members\": " << ml.coarse_members
      << ", \"rho\": " << ml.rho << ", \"cpu_s\": " << ml.cpu_s << "},\n"
      << "  \"equal_accuracy_fine_members\": " << equal->fine_members
      << ",\n"
      << "  \"kernels\": [\n"
      << "    {\"name\": \"multilevel_cpu_ratio\", \"scalar_ms\": "
      << equal->cpu_s * 1e3 << ", \"simd_ms\": " << ml.cpu_s * 1e3
      << ", \"speedup\": " << speedup << "}\n"
      << "  ],\n  \"skipped\": []\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
