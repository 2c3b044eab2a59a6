// ESSEX: grid hierarchy for multilevel (multi-fidelity) ensembles.
//
// The SC09 real-time constraint makes fine-grid ensemble members the
// dominant cost, and the advective CFL ties the time step to the grid
// spacing (dt ∝ dx), so a grid coarsened 2× horizontally integrates one
// member ~8× cheaper (¼ the points × ½ the steps). GridHierarchy owns
// the ladder of coarsened Grid3Ds plus the transfer operators between
// them, acting directly on packed [T, S, u, v, ssh] state vectors:
//
//   * restriction (fine → coarse): conservative block averaging — every
//     fine cell belongs to exactly one coarse cell, so a constant field
//     restricts to itself (bitwise for power-of-two block sizes);
//   * prolongation (coarse → fine): per-z-level bilinear interpolation
//     between cell centres, clamped at the boundary, computed in lerp
//     form v = p + t·(q − p) so a constant field prolongates to itself
//     bitwise.
//
// Coarsening is horizontal only: all levels share the fine grid's
// z-levels (the surrogate's vertical resolution is already minimal), so
// "tri-linear" degenerates to bilinear per level, applied plane by plane.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "ocean/grid.hpp"

namespace essex::ocean {

/// A ladder of horizontally-coarsened grids. Level 0 is the fine grid;
/// level l has ceil(n/f^l) points per horizontal axis (f = `coarsen`)
/// and f^l times the spacing. Every level keeps the fine z-levels, and a
/// coarse cell is land only when every fine cell it covers is land.
class GridHierarchy {
 public:
  /// Build `levels` grids (including the fine one). Requires levels >= 1,
  /// coarsen >= 2, and every coarsened grid to keep at least 3x3
  /// horizontal points (the Grid3D minimum).
  GridHierarchy(const Grid3D& fine, std::size_t levels,
                std::size_t coarsen = 2);

  std::size_t levels() const { return grids_.size(); }
  std::size_t coarsen() const { return coarsen_; }
  const Grid3D& grid(std::size_t level) const;

  /// Packed-state size of `level` (4·points + horizontal_points).
  std::size_t packed_size(std::size_t level) const;

  /// Restrict a fine (level-0) packed state down to `level` by composing
  /// one-step conservative block averages. Level 0 returns a copy.
  la::Vector restrict_state(const la::Vector& fine, std::size_t level) const;

  /// Prolongate a level-`level` packed state up to the fine grid by
  /// composing one-step bilinear interpolations.
  la::Vector prolong_state(const la::Vector& coarse,
                           std::size_t level) const;

 private:
  // One-step operators between adjacent levels.
  la::Vector restrict_once(const la::Vector& x, std::size_t from) const;
  la::Vector prolong_once(const la::Vector& x, std::size_t from) const;

  std::size_t coarsen_;
  std::vector<Grid3D> grids_;
};

}  // namespace essex::ocean
