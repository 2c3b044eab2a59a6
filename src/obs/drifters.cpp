#include "obs/drifters.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::obs {

namespace {

/// Bilinear sample of a surface-level 3-D field at (x_km, y_km).
double surface_sample(const ocean::Grid3D& grid,
                      const std::vector<double>& field, double x_km,
                      double y_km) {
  const double fx = std::clamp(x_km / grid.dx_km(), 0.0,
                               static_cast<double>(grid.nx() - 1));
  const double fy = std::clamp(y_km / grid.dy_km(), 0.0,
                               static_cast<double>(grid.ny() - 1));
  const auto ix0 = static_cast<std::size_t>(fx);
  const auto iy0 = static_cast<std::size_t>(fy);
  const std::size_t ix1 = std::min(ix0 + 1, grid.nx() - 1);
  const std::size_t iy1 = std::min(iy0 + 1, grid.ny() - 1);
  const double ax = fx - static_cast<double>(ix0);
  const double ay = fy - static_cast<double>(iy0);
  return field[grid.index(ix0, iy0, 0)] * (1 - ax) * (1 - ay) +
         field[grid.index(ix1, iy0, 0)] * ax * (1 - ay) +
         field[grid.index(ix0, iy1, 0)] * (1 - ax) * ay +
         field[grid.index(ix1, iy1, 0)] * ax * ay;
}

bool on_water(const ocean::Grid3D& grid, double x_km, double y_km) {
  // Written as "inside" so that a NaN position counts as outside.
  if (!(x_km >= 0 && y_km >= 0 &&
        x_km <= grid.dx_km() * static_cast<double>(grid.nx() - 1) &&
        y_km <= grid.dy_km() * static_cast<double>(grid.ny() - 1))) {
    return false;  // left the domain
  }
  const auto ix = static_cast<std::size_t>(
      std::lround(x_km / grid.dx_km()));
  const auto iy = static_cast<std::size_t>(
      std::lround(y_km / grid.dy_km()));
  return grid.is_water(std::min(ix, grid.nx() - 1),
                       std::min(iy, grid.ny() - 1));
}

}  // namespace

std::vector<DrifterFix> advect_drifter(const ocean::OceanModel& model,
                                       ocean::OceanState state,
                                       double t0_hours, double duration_h,
                                       double x0_km, double y0_km,
                                       double report_interval_h,
                                       double sst_noise, Rng& rng) {
  ESSEX_REQUIRE(std::isfinite(t0_hours), "drifter start time must be finite");
  ESSEX_REQUIRE(duration_h > 0 && std::isfinite(duration_h),
                "drifter duration must be positive and finite");
  ESSEX_REQUIRE(report_interval_h > 0, "report interval must be positive");
  const ocean::Grid3D& grid = model.grid();
  ESSEX_REQUIRE(on_water(grid, x0_km, y0_km),
                "drifter must be deployed on water");

  std::vector<DrifterFix> fixes;
  double x = x0_km, y = y0_km;
  double t = t0_hours;
  double next_report = t0_hours;
  const double t_end = t0_hours + duration_h;
  const double dt_max = model.max_stable_dt_hours();

  model.diagnose_currents(state, t);
  while (t < t_end - 1e-9) {
    if (t >= next_report - 1e-9) {
      DrifterFix fix;
      fix.t_hours = t;
      fix.x_km = x;
      fix.y_km = y;
      fix.sst = surface_sample(grid, state.temperature, x, y) +
                rng.normal(0.0, sst_noise);
      fixes.push_back(fix);
      next_report += report_interval_h;
    }
    const double dt = std::min(dt_max, t_end - t);
    // Advect with the local surface current (km/h = m/s * 3.6).
    const double u = surface_sample(grid, state.u, x, y);
    const double v = surface_sample(grid, state.v, x, y);
    const double x_next = x + u * 3.6 * dt;
    const double y_next = y + v * 3.6 * dt;
    if (!on_water(grid, x_next, y_next)) break;  // beached / exited
    x = x_next;
    y = y_next;
    model.step(state, t, dt, nullptr);
    t += dt;
  }
  return fixes;
}

}  // namespace essex::obs
