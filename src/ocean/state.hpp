// ESSEX: prognostic ocean state.
//
// The PE-surrogate carries temperature, salinity, horizontal velocity and
// sea-surface height. ESSE works on the packed state vector x (paper
// Eq. B1a): pack()/unpack() define the ordering used by every subspace
// operation, and that ordering is part of the public contract.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "ocean/grid.hpp"

namespace essex::ocean {

/// Prognostic fields on a Grid3D. 3-D fields are stored flat with the
/// grid's index(); SSH is a 2-D field with hindex().
struct OceanState {
  explicit OceanState(const Grid3D& grid);

  std::vector<double> temperature;  ///< °C, size grid.points()
  std::vector<double> salinity;     ///< PSU, size grid.points()
  std::vector<double> u;            ///< m/s eastward, size grid.points()
  std::vector<double> v;            ///< m/s northward, size grid.points()
  std::vector<double> ssh;          ///< m, size grid.horizontal_points()

  /// Length of the packed state vector:
  /// 4 * points() + horizontal_points().
  static std::size_t packed_size(const Grid3D& grid);

  /// Pack in the fixed order [T, S, u, v, ssh].
  la::Vector pack() const;

  /// Unpack from a vector produced by pack() on a same-shaped state.
  void unpack(const la::Vector& x, const Grid3D& grid);
};

/// Euclidean distance between two packed states (diagnostic).
double state_distance(const OceanState& a, const OceanState& b);

}  // namespace essex::ocean
