// ESSEX: observations and the measurement operator H (paper Eq. B1b).
//
// An observation is a point sample of one ocean variable with known noise
// standard deviation. ObsOperator evaluates H·x for packed state vectors
// via bilinear-horizontal / linear-vertical interpolation, which is how
// sparse in-situ data (CTD, gliders, AUVs) and SST swaths relate to the
// gridded state.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::obs {

/// Observed variable kind.
enum class VarKind {
  kTemperature,
  kSalinity,
  kSsh,
};

/// One scalar observation at a physical location.
struct Observation {
  VarKind kind = VarKind::kTemperature;
  double x_km = 0;     ///< eastward position
  double y_km = 0;     ///< northward position
  double depth_m = 0;  ///< ignored for SSH
  double value = 0;    ///< measured value
  double noise_std = 0.1;  ///< measurement error standard deviation
};

/// A batch of observations taken during one observation period Tk.
using ObservationSet = std::vector<Observation>;

/// Linearised measurement operator for a fixed grid and observation set.
class ObsOperator {
 public:
  ObsOperator(const ocean::Grid3D& grid, ObservationSet observations);

  std::size_t count() const { return obs_.size(); }
  const ObservationSet& observations() const { return obs_; }

  /// H·x for a packed state vector (length OceanState::packed_size).
  la::Vector apply(const la::Vector& packed_state) const;

  /// Convenience: H applied to an OceanState.
  la::Vector apply(const ocean::OceanState& state) const;

  /// Stencil of observation `i` as (packed index, weight) pairs, in the
  /// evaluation order apply() uses. Lets state-space callers
  /// (esse::ObsSet) reuse the interpolation without re-deriving it.
  std::vector<std::pair<std::size_t, double>> stencil_entries(
      std::size_t i) const;

 private:
  struct Stencil {
    // Up to 8 (point, weight) pairs into the packed state vector.
    std::size_t index[8];
    double weight[8];
    std::size_t n = 0;
  };

  Stencil build_stencil(const Observation& ob) const;

  const ocean::Grid3D& grid_;
  ObservationSet obs_;
  std::vector<Stencil> stencils_;
};

}  // namespace essex::obs
