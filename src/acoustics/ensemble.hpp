// ESSEX: acoustic uncertainty from the ocean ensemble (paper §2.2).
//
// For each ocean realisation a TL field is computed on a fixed section;
// the coupled physical–acoustical covariance P of the section is then
// assembled from the joint (temperature, TL) anomalies, and its dominant
// eigenvectors are the coupled "uncertainty modes". The "acoustic
// climate" driver enumerates the full source/frequency/slice task grid
// that Sec. 5.2.1 runs 6000+ jobs of.
#pragma once

#include <cstddef>
#include <vector>

#include "acoustics/slice.hpp"
#include "acoustics/tl_solver.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/matrix.hpp"
#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::acoustics {

/// Statistics of an ensemble of TL fields on one section.
struct TLEnsembleStats {
  SliceGeometry geometry;
  std::vector<double> mean_tl;  ///< dB, slice-mesh layout
  std::vector<double> std_tl;   ///< dB
  std::size_t n_members = 0;
};

/// Coupled physical–acoustical covariance summary: dominant modes of the
/// non-dimensionalised joint (T, TL) anomaly ensemble.
struct CoupledCovariance {
  esse::ErrorSubspace modes;  ///< joint modes, length 2 * slice points
  double t_scale = 1.0;       ///< std used to non-dimensionalise T
  double tl_scale = 1.0;      ///< std used to non-dimensionalise TL
  std::size_t slice_points = 0;

  /// Correlation-like coupling strength: RMS of the off-diagonal block
  /// captured by the retained modes (0 = uncoupled).
  double coupling_strength() const;
};

/// Compute TL for every ocean realisation (packed states, e.g. ensemble
/// member forecasts) on the given section and reduce to mean/std.
TLEnsembleStats tl_ensemble_stats(const ocean::Grid3D& grid,
                                  const std::vector<la::Vector>& realizations,
                                  const SliceGeometry& geom,
                                  const TLParams& params);

/// Assemble the coupled (T, TL) covariance modes from the same inputs.
/// `max_rank` caps the retained modes (0 = keep all with variance).
CoupledCovariance coupled_covariance(const ocean::Grid3D& grid,
                                     const std::vector<la::Vector>& realizations,
                                     const SliceGeometry& geom,
                                     const TLParams& params,
                                     std::size_t max_rank = 10);

/// One acoustic-climate task: a (source position/depth, frequency, slice)
/// combination, as enumerated for the MTC fan-out of §5.2.1.
struct AcousticTask {
  SliceGeometry slice;
  double source_depth_m;
  double frequency_khz;
};

/// Enumerate the acoustic-climate task grid over a domain: `n_slices`
/// sections fanned across the region × source depths × frequencies.
std::vector<AcousticTask> acoustic_climate_tasks(
    const ocean::Grid3D& grid, std::size_t n_slices,
    const std::vector<double>& source_depths_m,
    const std::vector<double>& frequencies_khz);

}  // namespace essex::acoustics
