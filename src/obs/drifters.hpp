// ESSEX: Lagrangian surface drifters.
//
// The AOSN-II fleet also tracked the flow itself; a drifter is advected
// by the model's surface currents and reports SST along its trajectory.
// Unlike the fixed-geometry platforms in instruments.hpp, its sampling
// locations *depend on the velocity field*, which makes drifter data an
// implicit constraint on u/v — and a good stress test for the
// advection scheme and the obs operator.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "obs/observation.hpp"
#include "ocean/model.hpp"

namespace essex::obs {

/// One recorded drifter fix.
struct DrifterFix {
  double t_hours = 0;
  double x_km = 0;
  double y_km = 0;
  double sst = 0;  ///< noisy surface temperature at the fix
};

/// Advect a surface drifter through the (already diagnosed) currents of
/// a sequence of model states, reporting fixes every `report_interval_h`.
///
/// `advect_drifter` integrates the position with forward Euler using the
/// surface currents interpolated from `state`; the state is advanced
/// alongside by the model (deterministic). The drifter stops when it
/// beaches (hits land) or leaves the domain.
std::vector<DrifterFix> advect_drifter(const ocean::OceanModel& model,
                                       ocean::OceanState state,
                                       double t0_hours, double duration_h,
                                       double x0_km, double y0_km,
                                       double report_interval_h,
                                       double sst_noise, Rng& rng);

}  // namespace essex::obs
