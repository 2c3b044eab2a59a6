// ESSEX: primitive-equation surrogate ocean model.
//
// Stand-in for the HOPS PE model that ESSE wraps (DESIGN.md §2). ESSE
// only requires a nonlinear stochastic propagator dx = M(x,t)dt + dη
// (paper Eq. B1a); this surrogate supplies one with the mesoscale
// phenomenology that matters for Monterey Bay uncertainty maps:
//
//   * geostrophic currents diagnosed from SSH,
//   * wind-driven Ekman surface flow and coastal upwelling (equatorward
//     wind lifts cold water along the eastern/land boundary),
//   * upwind advection + Laplacian diffusion of T and S,
//   * SSH evolution with wind-stress curl input and damping,
//   * open-boundary relaxation toward climatology,
//   * spatially-correlated stochastic forcing (the Wiener increment dη),
//     surface-intensified for T and barotropic for SSH.
//
// A deterministic run (noise disabled) is the paper's "central forecast".
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ocean/forcing.hpp"
#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::ocean {

/// Tunable physics of the PE surrogate.
struct ModelParams {
  double coriolis_f = 8.7e-5;       ///< s⁻¹ (≈36.6°N)
  double gravity = 9.81;            ///< m/s²
  double rho0 = 1025.0;             ///< kg/m³ reference density
  double mixed_layer_m = 25.0;      ///< Ekman layer depth
  double kappa_h = 50.0;            ///< m²/s horizontal diffusivity
  double kappa_v = 1e-4;            ///< m²/s vertical diffusivity
  double ssh_damping = 2e-6;        ///< s⁻¹ linear SSH damping
  double coastal_setdown_m = 2.5;   ///< m of SSH setdown per N/m² stress
  double coastal_adjust_rate = 2e-5;  ///< s⁻¹ approach to the setdown
  double upwelling_efficiency = 1.5e-3;  ///< m/s upwelling per N/m² stress
  double boundary_relax_rate = 5e-5;     ///< s⁻¹ at the open boundary
  std::size_t boundary_width = 3;        ///< relaxation sponge width (cells)
  double geostrophic_cap = 0.8;     ///< m/s cap on diagnosed currents
  // Stochastic forcing (per sqrt(hour) amplitudes of dη).
  double noise_temp = 0.02;         ///< °C /√h, surface level
  double noise_ssh = 0.0008;        ///< m /√h
  std::size_t noise_smooth_passes = 4;  ///< spatial correlation passes
};

/// The surrogate model. Holds the grid, parameters, wind forcing and the
/// climatology used for open-boundary relaxation. Stateless across calls
/// except for those immutables, so one instance can be shared by
/// concurrent ensemble members (each supplies its own state and RNG).
class OceanModel {
 public:
  /// `climatology` is copied and used as the boundary-relaxation target.
  OceanModel(const Grid3D& grid, const ModelParams& params,
             const WindForcing& forcing, const OceanState& climatology);

  /// Advance `state` by `dt_hours` starting at simulation time `t_hours`.
  /// The state's u/v must already be diagnosed at `t_hours`
  /// (diagnose_currents); the step leaves them diagnosed at
  /// `t_hours + dt_hours`, so consecutive steps chain. If `rng` is
  /// provided, one Wiener increment of stochastic forcing is applied
  /// (scaled by sqrt(dt)); without it the step is deterministic. dt must
  /// not exceed max_stable_dt_hours(). Copies T, S and SSH into fresh
  /// scratch fields at every call; run() makes them once.
  void step(OceanState& state, double t_hours, double dt_hours,
            Rng* rng = nullptr) const;

  /// Integrate from a finite `t0_hours` for a finite, non-negative
  /// `duration_hours`, sub-stepping at (at most) max_stable_dt_hours().
  /// Diagnoses the currents at t0 before the first step; a run that takes
  /// no step leaves the state untouched. Returns the number of steps taken.
  /// The steps are step()'s, bit for bit, without its allocations.
  std::size_t run(OceanState& state, double t0_hours, double duration_hours,
                  Rng* rng = nullptr) const;

  /// Largest stable step for the advective CFL given the velocity cap.
  double max_stable_dt_hours() const;

  const Grid3D& grid() const { return grid_; }
  const ModelParams& params() const { return params_; }
  const WindForcing& forcing() const { return forcing_; }
  const OceanState& climatology() const { return climatology_; }

  /// Diagnose surface currents (geostrophic + Ekman) from a state at time
  /// t; exposed for tests and the acoustics slice extraction.
  void diagnose_currents(OceanState& state, double t_hours) const;

 private:
  /// Fields one integration owns beside the state: run() makes them
  /// once and every step swaps them with the state's, so a step
  /// allocates nothing. t/s/ssh start as copies of the state's fields,
  /// and since a step writes every water entry and no land entry, both
  /// sides of each swap keep the same land values. pattern/smoothed
  /// hold the stochastic forcing's horizontal noise.
  struct Scratch {
    std::vector<double> t, s, ssh, pattern, smoothed;
  };

  /// step() without the argument checks, writing through `scratch`.
  void advance(OceanState& state, double t_hours, double dt_hours, Rng* rng,
               Scratch& scratch) const;
  void apply_stochastic_forcing(OceanState& state, double dt_hours,
                                Rng& rng, Scratch& scratch) const;
  void relax_boundaries(OceanState& state, double dt_seconds) const;
  /// y[h] += a·x[h] at every water column h of one horizontal level.
  void add_on_water(double a, const double* x, double* y) const;

  /// One water column with its land and edge geometry resolved.
  struct Column {
    std::size_t h;           ///< hindex
    std::size_t w, e, s, n;  ///< neighbour hindex; h if off-grid or land
    double span_x, span_y;   ///< centred-difference widths (m)
    bool upwelling_coast;    ///< land within two cells to the east
    bool setdown_coast;      ///< land (or the grid edge) right to the east
    double sponge;           ///< 1 − d/w of the open-boundary sponge, else 0
  };

  /// A maximal run of consecutive interior columns h, h+1, …, h+n−1:
  /// water columns whose four neighbours are water on the grid, so W/E
  /// sit at ∓1 and S/N at ∓nx and every neighbour read is a contiguous
  /// load (la::simd tracer_run). Sponge columns may be interior; the
  /// sponge is applied separately by relax_boundaries.
  struct Run {
    std::size_t h, n;
  };

  /// −u·∇f + κ_h∇²f at `c` of one horizontal level `f`: upwind advection
  /// by (uu, vv) plus Laplacian diffusion.
  double transport(const double* f, const Column& c, double uu,
                   double vv) const;

  Grid3D grid_;
  ModelParams params_;
  WindForcing forcing_;
  OceanState climatology_;
  // Built once by the constructor. Every water column is in columns_,
  // and also either in one of runs_ or in edges_.
  std::vector<Column> columns_;    ///< water columns in (iy, ix) order
  std::vector<Run> runs_;          ///< interior columns, in (iy, ix) order
  std::vector<Column> edges_;      ///< the water columns in no run
  std::vector<double> ek_decay_;   ///< Ekman current decay per level
  std::vector<double> geo_decay_;  ///< geostrophic shear decay per level
};

}  // namespace essex::ocean
