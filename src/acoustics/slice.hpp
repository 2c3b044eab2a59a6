// ESSEX: vertical sections through the ocean state.
//
// "Sound-propagation studies often focus on vertical sections. ESSE ocean
// physics uncertainties are transferred to acoustical uncertainties along
// such a section." (paper §2.2). A SliceGeometry defines the section; a
// SoundSpeedSlice is the range×depth sound-speed field extracted from one
// ocean realisation on that geometry.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::acoustics {

/// A straight vertical section from (x0,y0) to (x1,y1), discretised into
/// `n_range` range points and `n_depth` depths down to `max_depth_m`.
struct SliceGeometry {
  double x0_km = 0, y0_km = 0;
  double x1_km = 0, y1_km = 0;
  std::size_t n_range = 64;
  std::size_t n_depth = 32;
  double max_depth_m = 200.0;

  double length_km() const;
  double range_step_m() const;
  double depth_step_m() const;
};

/// Range × depth sound-speed field (row-major: ir × iz, iz down).
struct SoundSpeedSlice {
  SliceGeometry geometry;
  std::vector<double> c;  ///< m/s, size n_range * n_depth
  std::vector<double> t;  ///< °C (kept for coupled covariances)

  double at(std::size_t ir, std::size_t iz) const;
};

/// Extract the sound-speed slice from an ocean state by bilinear
/// horizontal and linear vertical interpolation of T and S.
SoundSpeedSlice extract_slice(const ocean::Grid3D& grid,
                              const ocean::OceanState& state,
                              const SliceGeometry& geom);

}  // namespace essex::acoustics
