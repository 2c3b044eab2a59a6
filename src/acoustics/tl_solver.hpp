// ESSEX: transmission-loss solver (ray / Gaussian-beam).
//
// Stand-in for the parallel acoustic propagation code of paper §2.2/§3: a
// 2-D range-depth ray tracer with Gaussian-beam intensity deposition,
// surface/bottom reflections with bottom loss, Thorp volume absorption and
// incoherent broadband averaging. It reproduces the refractive phenomena
// (downward refraction under upwelled cold water, surface ducts, shadow
// zones) through which ocean uncertainty becomes TL uncertainty.
#pragma once

#include <cstddef>
#include <vector>

#include "acoustics/slice.hpp"
#include "common/field_io.hpp"

namespace essex::acoustics {

/// Source and solver configuration.
struct TLParams {
  double source_depth_m = 30.0;
  double frequency_khz = 1.0;
  std::size_t n_rays = 181;         ///< fan across ±20°
  double bottom_loss_db = 6.0;      ///< per bottom bounce
  double max_tl_db = 120.0;         ///< floor for unreachable cells
};

/// Transmission loss field on the slice mesh: tl[ir*n_depth+iz] in dB.
struct TLField {
  SliceGeometry geometry;
  std::vector<double> tl;

  double at(std::size_t ir, std::size_t iz) const;

  /// Convert to a plot-ready Field2D (x = range km, y = depth m, values
  /// in dB).
  Field2D to_field() const;
};

/// Compute single-frequency TL for a sound-speed slice.
TLField compute_tl(const SoundSpeedSlice& slice, const TLParams& params);

/// Incoherent broadband TL: average the *intensity* over the given
/// frequencies (kHz), then convert back to dB.
TLField compute_broadband_tl(const SoundSpeedSlice& slice,
                             const TLParams& params,
                             const std::vector<double>& frequencies_khz);

}  // namespace essex::acoustics
