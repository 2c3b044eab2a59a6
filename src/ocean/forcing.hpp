// ESSEX: synthetic atmospheric forcing.
//
// Stand-in for the COAMPS wind-stress fields that forced the AOSN-II
// ensembles (paper §6). Monterey Bay dynamics in August are dominated by
// alternating upwelling-favourable (equatorward) winds and relaxation
// events; WindForcing produces that cycle deterministically with optional
// per-member perturbations so ensemble members see slightly different
// forcing (a model-error source, the dη of Eq. B1a).
#pragma once

#include <cstddef>

namespace essex::ocean {

/// Wind stress vector in N/m².
struct WindStress {
  double tau_x = 0.0;  ///< eastward component
  double tau_y = 0.0;  ///< northward component
};

/// Deterministic wind-event schedule with smooth transitions.
class WindForcing {
 public:
  struct Params {
    double upwelling_tau = 0.12;   ///< N/m² equatorward stress at peak
    double relaxation_tau = 0.02;  ///< N/m² during relaxation
    double event_period_h = 96.0;  ///< full upwelling/relaxation cycle
    double upwelling_fraction = 0.6;  ///< fraction of cycle spent upwelling
    double onshore_tau = 0.01;     ///< weak onshore component
  };

  explicit WindForcing(const Params& params);

  /// Wind stress at simulation time `t_hours`. Monterey's upwelling wind
  /// blows toward the south-east: tau_y < 0 during events.
  WindStress at(double t_hours) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace essex::ocean
