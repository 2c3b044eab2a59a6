#include "ocean/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace essex::ocean {

OceanModel::OceanModel(const Grid3D& grid, const ModelParams& params,
                       const WindForcing& forcing,
                       const OceanState& climatology)
    : grid_(grid), params_(params), forcing_(forcing),
      climatology_(climatology) {
  ESSEX_REQUIRE(climatology.temperature.size() == grid.points(),
                "climatology does not match grid");
  ESSEX_REQUIRE(params.coriolis_f > 0, "Coriolis parameter must be > 0");
  ESSEX_REQUIRE(params.mixed_layer_m > 0, "mixed layer depth must be > 0");

  const std::size_t nx = grid_.nx(), ny = grid_.ny();
  const double dx_m = grid_.dx_km() * 1000.0;
  const double dy_m = grid_.dy_km() * 1000.0;
  const std::size_t w = params_.boundary_width;
  const std::size_t far = nx + ny;  // "no open edge this way"
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!grid_.is_water(ix, iy)) continue;
      Column c;
      c.h = grid_.hindex(ix, iy);
      // A neighbour off the grid or on land stands in with the centre.
      auto neighbour = [&](bool on_grid, std::size_t jx, std::size_t jy) {
        return on_grid && grid_.is_water(jx, jy) ? grid_.hindex(jx, jy) : c.h;
      };
      c.w = neighbour(ix > 0, ix - 1, iy);
      c.e = neighbour(ix + 1 < nx, ix + 1, iy);
      c.s = neighbour(iy > 0, ix, iy - 1);
      c.n = neighbour(iy + 1 < ny, ix, iy + 1);
      // Centred differences fall back to one-sided at the grid edge only.
      const std::size_t xm = (ix > 0) ? ix - 1 : ix;
      const std::size_t xp = (ix + 1 < nx) ? ix + 1 : ix;
      const std::size_t ym = (iy > 0) ? iy - 1 : iy;
      const std::size_t yp = (iy + 1 < ny) ? iy + 1 : iy;
      c.span_x = static_cast<double>(xp - xm) * dx_m;
      c.span_y = static_cast<double>(yp - ym) * dy_m;
      c.upwelling_coast = (ix + 1 < nx && !grid_.is_water(ix + 1, iy)) ||
                          (ix + 2 < nx && !grid_.is_water(ix + 2, iy));
      c.setdown_coast = (ix + 1 < nx) ? !grid_.is_water(ix + 1, iy) : true;
      // Distance (in cells) to the nearest OPEN edge: an edge cell that
      // is itself water. A coastline edge (land, e.g. the Californian
      // coast on the east) is not an open boundary and gets no sponge.
      const std::size_t d_w = grid_.is_water(0, iy) ? ix : far;
      const std::size_t d_e = grid_.is_water(nx - 1, iy) ? nx - 1 - ix : far;
      const std::size_t d_s = grid_.is_water(ix, 0) ? iy : far;
      const std::size_t d_n = grid_.is_water(ix, ny - 1) ? ny - 1 - iy : far;
      const std::size_t d = std::min(std::min(d_w, d_e), std::min(d_s, d_n));
      c.sponge = d < w ? 1.0 - static_cast<double>(d) / static_cast<double>(w)
                       : 0.0;
      columns_.push_back(c);
    }
  }

  for (const double depth : grid_.depths()) {
    // Ekman flow decays over the mixed layer, geostrophic shear over a
    // 1.5-layer reduced-gravity depth scale.
    ek_decay_.push_back(std::exp(-depth / params_.mixed_layer_m));
    geo_decay_.push_back(std::exp(-depth / 150.0));
  }
  // Interior columns (all four neighbours water on the grid) form runs
  // of consecutive hindex; the others are edges.
  for (const Column& c : columns_) {
    const bool interior = c.w + 1 == c.h && c.e == c.h + 1 &&
                          c.s + nx == c.h && c.n == c.h + nx;
    if (!interior) {
      edges_.push_back(c);
    } else if (!runs_.empty() && runs_.back().h + runs_.back().n == c.h) {
      ++runs_.back().n;
    } else {
      runs_.push_back({c.h, 1});
    }
  }
}

double OceanModel::max_stable_dt_hours() const {
  const double dx_m = std::min(grid_.dx_km(), grid_.dy_km()) * 1000.0;
  // Advective CFL with the velocity cap, plus a diffusive limit.
  const double adv_dt = 0.4 * dx_m / std::max(params_.geostrophic_cap, 0.01);
  const double dif_dt = 0.2 * dx_m * dx_m / std::max(params_.kappa_h, 1e-6);
  return std::min(adv_dt, dif_dt) / 3600.0;
}

void OceanModel::diagnose_currents(OceanState& state, double t_hours) const {
  const std::size_t hp = grid_.horizontal_points();
  const double gf = params_.gravity / params_.coriolis_f;
  const WindStress tau = forcing_.at(t_hours);
  // Ekman surface velocity (rotated 90° right of the wind in the northern
  // hemisphere), decaying with depth over the mixed layer.
  const double ek_scale =
      1.0 / (params_.rho0 * params_.coriolis_f * params_.mixed_layer_m);
  const double ue = tau.tau_y * ek_scale;   // 90° to the right
  const double ve = -tau.tau_x * ek_scale;
  const double cap = params_.geostrophic_cap;

  // Land carries no current.
  std::fill(state.u.begin(), state.u.end(), 0.0);
  std::fill(state.v.begin(), state.v.end(), 0.0);
  for (const Column& c : columns_) {
    // Centred SSH gradients; a land neighbour reads the centre.
    const double detadx = (state.ssh[c.e] - state.ssh[c.w]) / c.span_x;
    const double detady = (state.ssh[c.n] - state.ssh[c.s]) / c.span_y;
    const double ug0 = -gf * detady;
    const double vg0 = gf * detadx;
    // Per level: geostrophic shear, then the Ekman flow, each decayed.
    for (std::size_t iz = 0, id = c.h; iz < grid_.nz(); ++iz, id += hp) {
      const double ug = ug0 * geo_decay_[iz] + ue * ek_decay_[iz];
      const double vg = vg0 * geo_decay_[iz] + ve * ek_decay_[iz];
      state.u[id] = std::clamp(ug, -cap, cap);
      state.v[id] = std::clamp(vg, -cap, cap);
    }
  }
}

void OceanModel::apply_stochastic_forcing(OceanState& state, double dt_hours,
                                          Rng& rng, Scratch& scratch) const {
  const std::size_t hp = grid_.horizontal_points();
  const double sqrt_dt = std::sqrt(dt_hours);

  // Spatially-correlated horizontal noise pattern shared by T and SSH,
  // produced by Jacobi-smoothing white noise over the water columns.
  // Smoothing shrinks the variance, so re-normalise to unit RMS afterwards.
  // The land entries keep their white noise through every pass (both
  // buffers start with the same values and passes write water only):
  // the RMS sums over all hp points.
  const auto row = static_cast<std::ptrdiff_t>(grid_.nx());
  std::vector<double>& pattern = scratch.pattern;
  std::vector<double>& smoothed = scratch.smoothed;
  pattern.resize(hp);
  for (auto& x : pattern) x = rng.normal();
  smoothed = pattern;
  for (std::size_t p = 0; p < params_.noise_smooth_passes; ++p) {
    for (const Run& r : runs_) {
      for (std::size_t h = r.h; h < r.h + r.n; ++h) {
        const double* q = pattern.data() + h;
        smoothed[h] = ((((q[0] + q[-1]) + q[1]) + q[-row]) + q[row]) / 5.0;
      }
    }
    for (const Column& c : edges_) {
      double sum = pattern[c.h];
      double w = 1.0;
      for (const std::size_t nb : {c.w, c.e, c.s, c.n}) {
        if (nb == c.h) continue;  // off the grid or land
        sum += pattern[nb];
        w += 1.0;
      }
      smoothed[c.h] = sum / w;
    }
    pattern.swap(smoothed);
  }
  double rms = 0.0;
  for (double x : pattern) rms += x * x;
  rms = std::sqrt(rms / static_cast<double>(pattern.size()));
  if (rms > 0) {
    for (auto& x : pattern) x /= rms;
  }

  for (std::size_t iz = 0; iz < grid_.nz(); ++iz) {
    const double depth = grid_.depths()[iz];
    const double decay = std::exp(-depth / 100.0);  // surface intensified
    const double amp = params_.noise_temp * sqrt_dt * decay;
    add_on_water(amp, pattern.data(), state.temperature.data() + iz * hp);
  }
  add_on_water(params_.noise_ssh * sqrt_dt, pattern.data(), state.ssh.data());
}

void OceanModel::add_on_water(double a, const double* x, double* y) const {
  const la::simd::KernelTable& kernels = la::simd::kernels();
  for (const Run& r : runs_) kernels.axpy(a, x + r.h, y + r.h, r.n);
  for (const Column& c : edges_) y[c.h] += a * x[c.h];
}

void OceanModel::relax_boundaries(OceanState& state, double dt_seconds) const {
  const std::size_t hp = grid_.horizontal_points();
  for (const Column& c : columns_) {
    if (c.sponge <= 0.0) continue;
    const double strength =
        params_.boundary_relax_rate * dt_seconds * c.sponge;
    const double a = std::clamp(strength, 0.0, 1.0);
    for (std::size_t id = c.h; id < grid_.points(); id += hp) {
      state.temperature[id] +=
          a * (climatology_.temperature[id] - state.temperature[id]);
      state.salinity[id] +=
          a * (climatology_.salinity[id] - state.salinity[id]);
    }
    state.ssh[c.h] += a * (climatology_.ssh[c.h] - state.ssh[c.h]);
  }
}

double OceanModel::transport(const double* f, const Column& c, double uu,
                             double vv) const {
  const double dx_m = grid_.dx_km() * 1000.0;
  const double dy_m = grid_.dy_km() * 1000.0;
  const double fc = f[c.h];
  // Upwind advection.
  double adv = 0.0;
  if (uu > 0) {
    adv += uu * (fc - f[c.w]) / dx_m;
  } else {
    adv += uu * (f[c.e] - fc) / dx_m;
  }
  if (vv > 0) {
    adv += vv * (fc - f[c.s]) / dy_m;
  } else {
    adv += vv * (f[c.n] - fc) / dy_m;
  }
  // Horizontal diffusion.
  const double lap = (f[c.e] - 2 * fc + f[c.w]) / (dx_m * dx_m) +
                     (f[c.n] - 2 * fc + f[c.s]) / (dy_m * dy_m);
  return -adv + params_.kappa_h * lap;
}

void OceanModel::step(OceanState& state, double t_hours, double dt_hours,
                      Rng* rng) const {
  ESSEX_REQUIRE(dt_hours > 0, "step requires a positive dt");
  ESSEX_REQUIRE(dt_hours <= max_stable_dt_hours() * (1.0 + 1e-9),
                "step dt exceeds the stable limit");
  ESSEX_REQUIRE(state.temperature.size() == grid_.points(),
                "state does not match the model grid");
  Scratch scratch{state.temperature, state.salinity, state.ssh, {}, {}};
  advance(state, t_hours, dt_hours, rng, scratch);
}

void OceanModel::advance(OceanState& state, double t_hours, double dt_hours,
                         Rng* rng, Scratch& scratch) const {
  const std::size_t nz = grid_.nz(), hp = grid_.horizontal_points();
  const std::vector<double>& depths = grid_.depths();
  const double dt = dt_hours * 3600.0;  // seconds
  const WindStress tau = forcing_.at(t_hours);
  std::vector<double>& newT = scratch.t;
  std::vector<double>& newS = scratch.s;

  // --- tracer advection-diffusion (upwind + Laplacian), level by level:
  // interior runs through the tracer_run kernel, the other columns
  // through transport(), with the same operations in the same order ---
  const la::simd::KernelTable& kernels = la::simd::kernels();
  la::simd::TracerLevel k{};
  k.row = static_cast<std::ptrdiff_t>(grid_.nx());
  k.vertical = nz > 1;
  k.dx = grid_.dx_km() * 1000.0;
  k.dy = grid_.dy_km() * 1000.0;
  k.dx2 = k.dx * k.dx;
  k.dy2 = k.dy * k.dy;
  k.kappa_h = params_.kappa_h;
  k.kappa_v = params_.kappa_v;
  k.dt = dt;
  const auto level = static_cast<std::ptrdiff_t>(hp);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const std::size_t off = iz * hp;
    const double dz_up = (iz > 0) ? depths[iz] - depths[iz - 1] : 1.0;
    const double dz_dn = (iz + 1 < nz) ? depths[iz + 1] - depths[iz] : 1.0;
    k.up = (iz > 0) ? -level : 0;
    k.dn = (iz + 1 < nz) ? level : 0;
    k.dz_up2 = dz_up * dz_up;
    k.dz_dn2 = dz_dn * dz_dn;
    for (const Run& r : runs_) {
      const std::size_t id = off + r.h;
      kernels.tracer_run(state.temperature.data() + id, state.u.data() + id,
                         state.v.data() + id, r.n, k, newT.data() + id);
      kernels.tracer_run(state.salinity.data() + id, state.u.data() + id,
                         state.v.data() + id, r.n, k, newS.data() + id);
    }
    for (const Column& c : edges_) {
      const std::size_t id = off + c.h;
      const double uu = state.u[id];
      const double vv = state.v[id];
      auto tracer_step = [&](const std::vector<double>& f,
                             std::vector<double>& out) {
        const double fc = f[id];
        // Vertical diffusion.
        double vdiff = 0.0;
        if (nz > 1) {
          const double fz_up = (iz > 0) ? f[id - hp] : fc;
          const double fz_dn = (iz + 1 < nz) ? f[id + hp] : fc;
          vdiff = params_.kappa_v * ((fz_dn - fc) / (dz_dn * dz_dn) -
                                     (fc - fz_up) / (dz_up * dz_up));
        }
        out[id] = fc + dt * (transport(f.data() + off, c, uu, vv) + vdiff);
      };
      tracer_step(state.temperature, newT);
      tracer_step(state.salinity, newS);
    }
  }

  // --- coastal upwelling: equatorward wind lifts deep water along the
  // eastern/land boundary (cold, salty water entrained upward) ---
  const double equatorward = std::max(-tau.tau_y, 0.0);
  if (equatorward > 0 && nz > 1) {
    const double w_up = params_.upwelling_efficiency * equatorward;  // m/s
    for (const Column& c : columns_) {
      if (!c.upwelling_coast) continue;
      for (std::size_t iz = 0; iz + 1 < nz; ++iz) {
        const std::size_t id = iz * hp + c.h;
        const std::size_t below = id + hp;
        const double dz = depths[iz + 1] - depths[iz];
        const double frac = std::clamp(w_up * dt / dz, 0.0, 0.5);
        newT[id] += frac * (state.temperature[below] - state.temperature[id]);
        newS[id] += frac * (state.salinity[below] - state.salinity[id]);
      }
    }
  }

  // --- SSH: advection by surface flow, wind-stress input, damping,
  // diffusion ---
  std::vector<double>& newSsh = scratch.ssh;
  for (const Column& c : columns_) {
    const double ec = state.ssh[c.h];
    // Coastal setup/setdown: equatorward wind lowers coastal SSH
    // (offshore Ekman transport). The full gravity-wave adjustment is
    // not resolved, so the response is modelled as a bounded
    // relaxation toward the post-adjustment setdown level.
    double wind_term = 0.0;
    if (c.setdown_coast) {
      const double target = params_.coastal_setdown_m * tau.tau_y;
      wind_term = params_.coastal_adjust_rate * (target - ec);
    }
    newSsh[c.h] = ec + dt * (transport(state.ssh.data(), c, state.u[c.h],
                                       state.v[c.h]) +
                             wind_term - params_.ssh_damping * ec);
  }

  state.temperature.swap(newT);
  state.salinity.swap(newS);
  state.ssh.swap(newSsh);

  relax_boundaries(state, dt);

  if (rng != nullptr) apply_stochastic_forcing(state, dt_hours, *rng, scratch);

  // Refresh diagnosed currents so the returned state is self-consistent
  // and the next step starts from currents at its own t.
  diagnose_currents(state, t_hours + dt_hours);
}

std::size_t OceanModel::run(OceanState& state, double t0_hours,
                            double duration_hours, Rng* rng) const {
  ESSEX_REQUIRE(std::isfinite(t0_hours), "run start time must be finite");
  ESSEX_REQUIRE(duration_hours >= 0 && std::isfinite(duration_hours),
                "run duration must be finite and non-negative");
  const double dt_max = max_stable_dt_hours();
  std::size_t steps = 0;
  double t = t0_hours;
  double remaining = duration_hours;
  if (remaining <= 1e-12) return 0;
  ESSEX_REQUIRE(state.temperature.size() == grid_.points(),
                "state does not match the model grid");
  Scratch scratch{state.temperature, state.salinity, state.ssh, {}, {}};
  diagnose_currents(state, t);
  while (remaining > 1e-12) {
    const double dt = std::min(dt_max, remaining);
    advance(state, t, dt, rng, scratch);
    t += dt;
    remaining -= dt;
    ++steps;
  }
  return steps;
}

}  // namespace essex::ocean
