#include "ocean/forcing.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace essex::ocean {

WindForcing::WindForcing(const Params& params) : params_(params) {
  ESSEX_REQUIRE(params.event_period_h > 0, "wind event period must be > 0");
  ESSEX_REQUIRE(params.upwelling_fraction > 0 &&
                    params.upwelling_fraction < 1,
                "upwelling fraction must lie in (0,1)");
}

WindStress WindForcing::at(double t_hours) const {
  const double phase =
      std::fmod(std::fmod(t_hours, params_.event_period_h) +
                    params_.event_period_h,
                params_.event_period_h) /
      params_.event_period_h;
  // Smooth envelope: cosine ramp within each regime so stress is C¹.
  double envelope;
  if (phase < params_.upwelling_fraction) {
    const double s = phase / params_.upwelling_fraction;
    envelope = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * s));
    const double tau =
        params_.relaxation_tau +
        (params_.upwelling_tau - params_.relaxation_tau) * envelope;
    return {params_.onshore_tau, -tau};  // equatorward (southward)
  }
  const double s = (phase - params_.upwelling_fraction) /
                   (1.0 - params_.upwelling_fraction);
  envelope = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * s));
  // Relaxation: weak poleward reversal.
  const double tau = params_.relaxation_tau * (0.5 + 0.5 * envelope);
  return {0.5 * params_.onshore_tau, tau};
}

}  // namespace essex::ocean
