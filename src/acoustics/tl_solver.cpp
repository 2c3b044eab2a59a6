#include "acoustics/tl_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "acoustics/sound_speed.hpp"
#include "common/error.hpp"

namespace essex::acoustics {

double TLField::at(std::size_t ir, std::size_t iz) const {
  ESSEX_ASSERT(ir < geometry.n_range && iz < geometry.n_depth,
               "TL index out of range");
  return tl[ir * geometry.n_depth + iz];
}

Field2D TLField::to_field() const {
  Field2D f;
  f.nx = geometry.n_range;
  f.ny = geometry.n_depth;
  f.values.resize(f.nx * f.ny);
  f.x0 = 0;
  f.x1 = geometry.length_km();
  f.y0 = 0;
  f.y1 = geometry.max_depth_m;
  // Field2D is (ix, iy)-indexed row-major with iy rows; transpose from
  // our (ir, iz) layout.
  for (std::size_t ir = 0; ir < f.nx; ++ir)
    for (std::size_t iz = 0; iz < f.ny; ++iz)
      f.values[iz * f.nx + ir] = tl[ir * geometry.n_depth + iz];
  return f;
}

namespace {

constexpr double kMaxAngleDeg = 20.0;   ///< half-width of the ray fan
constexpr double kSurfaceLossDb = 0.5;  ///< per surface bounce
constexpr double kBeamWidthM = 4.0;     ///< Gaussian deposition width

/// Sample the slice sound speed with bilinear interpolation at
/// (range_m, depth_m).
double c_at(const SoundSpeedSlice& s, double range_m, double depth_m) {
  const SliceGeometry& g = s.geometry;
  const double fr = std::clamp(range_m / g.range_step_m(), 0.0,
                               static_cast<double>(g.n_range - 1));
  const double fz = std::clamp(depth_m / g.depth_step_m(), 0.0,
                               static_cast<double>(g.n_depth - 1));
  const auto ir0 = static_cast<std::size_t>(fr);
  const auto iz0 = static_cast<std::size_t>(fz);
  const std::size_t ir1 = std::min(ir0 + 1, g.n_range - 1);
  const std::size_t iz1 = std::min(iz0 + 1, g.n_depth - 1);
  const double ar = fr - static_cast<double>(ir0);
  const double az = fz - static_cast<double>(iz0);
  return s.at(ir0, iz0) * (1 - ar) * (1 - az) +
         s.at(ir1, iz0) * ar * (1 - az) + s.at(ir0, iz1) * (1 - ar) * az +
         s.at(ir1, iz1) * ar * az;
}

double dcdz_at(const SoundSpeedSlice& s, double range_m, double depth_m) {
  const double dz = s.geometry.depth_step_m();
  const double zm = std::max(depth_m - 0.5 * dz, 0.0);
  const double zp = std::min(depth_m + 0.5 * dz, s.geometry.max_depth_m);
  if (zp <= zm) return 0.0;
  return (c_at(s, range_m, zp) - c_at(s, range_m, zm)) / (zp - zm);
}

}  // namespace

TLField compute_tl(const SoundSpeedSlice& slice, const TLParams& params) {
  const SliceGeometry& g = slice.geometry;
  ESSEX_REQUIRE(params.n_rays >= 3, "need at least 3 rays");
  ESSEX_REQUIRE(params.source_depth_m >= 0 &&
                    params.source_depth_m <= g.max_depth_m,
                "source depth outside the slice");
  ESSEX_REQUIRE(params.frequency_khz > 0, "frequency must be positive");

  const double dr = g.range_step_m();
  const double dz = g.depth_step_m();
  const double max_range = g.length_km() * 1000.0;
  const double alpha_db_per_m =
      thorp_attenuation_db_per_km(params.frequency_khz) / 1000.0;

  // Intensity accumulation grid (linear power units relative to 1 m).
  std::vector<double> intensity(g.n_range * g.n_depth, 0.0);

  const double a0 = kMaxAngleDeg * std::numbers::pi / 180.0;
  // Per-ray solid-angle weight: fan of n_rays over 2*a0.
  const double ray_weight = 2.0 * a0 / static_cast<double>(params.n_rays);

  const double march = 0.5 * std::min(dr, dz);  // ray marching step (m)

  for (std::size_t k = 0; k < params.n_rays; ++k) {
    double theta = -a0 + 2.0 * a0 * static_cast<double>(k) /
                             static_cast<double>(params.n_rays - 1);
    double r = 0.0;
    double z = params.source_depth_m;
    double loss_db = 0.0;  // accumulated boundary + absorption loss

    while (r < max_range && loss_db < params.max_tl_db) {
      // Snell ray marching: dθ/ds = -(cosθ/c)·∂c/∂z (downward z).
      const double c = c_at(slice, r, z);
      const double grad = dcdz_at(slice, r, z);
      theta += -(std::cos(theta) / c) * grad * march;
      // Keep the ray marching forward.
      theta = std::clamp(theta, -1.2, 1.2);
      r += std::cos(theta) * march;
      z += std::sin(theta) * march;

      // Boundary reflections.
      if (z < 0.0) {
        z = -z;
        theta = -theta;
        loss_db += kSurfaceLossDb;
      } else if (z > g.max_depth_m) {
        z = 2.0 * g.max_depth_m - z;
        theta = -theta;
        loss_db += params.bottom_loss_db;
      }
      loss_db += alpha_db_per_m * march;

      // Deposit intensity: cylindrical spreading 1/r with a Gaussian
      // vertical beam profile.
      if (r < march) continue;
      const auto ir = static_cast<std::size_t>(
          std::clamp(r / dr, 0.0, static_cast<double>(g.n_range - 1)));
      const double amp = std::pow(10.0, -loss_db / 10.0) / r * ray_weight;
      const double w2 = kBeamWidthM * kBeamWidthM;
      const long izc = std::lround(z / dz);
      const long spread = std::max(1L, std::lround(2.0 * kBeamWidthM / dz));
      for (long dzi = -spread; dzi <= spread; ++dzi) {
        const long izl = izc + dzi;
        if (izl < 0 || izl >= static_cast<long>(g.n_depth)) continue;
        const double zc = static_cast<double>(izl) * dz;
        const double dist = zc - z;
        const double wgt = std::exp(-dist * dist / (2.0 * w2));
        intensity[static_cast<std::size_t>(ir) * g.n_depth +
                  static_cast<std::size_t>(izl)] += amp * wgt;
      }
    }
  }

  // Normalise deposition so a cell crossed by the full fan at range r has
  // intensity ≈ 1/r: divide by the Gaussian mass per cell column.
  const double gauss_mass =
      kBeamWidthM * std::sqrt(2.0 * std::numbers::pi) / dz;

  TLField out;
  out.geometry = g;
  out.tl.resize(intensity.size());
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    const double inorm = intensity[i] / (gauss_mass * 2.0 * a0);
    out.tl[i] = (inorm > 0)
                    ? std::min(-10.0 * std::log10(inorm), params.max_tl_db)
                    : params.max_tl_db;
  }
  return out;
}

TLField compute_broadband_tl(const SoundSpeedSlice& slice,
                             const TLParams& params,
                             const std::vector<double>& frequencies_khz) {
  ESSEX_REQUIRE(!frequencies_khz.empty(),
                "broadband TL needs at least one frequency");
  std::vector<double> mean_intensity;
  TLField first;
  for (std::size_t f = 0; f < frequencies_khz.size(); ++f) {
    TLParams p = params;
    p.frequency_khz = frequencies_khz[f];
    TLField tl = compute_tl(slice, p);
    if (f == 0) {
      first = tl;
      mean_intensity.assign(tl.tl.size(), 0.0);
    }
    for (std::size_t i = 0; i < tl.tl.size(); ++i)
      mean_intensity[i] += std::pow(10.0, -tl.tl[i] / 10.0);
  }
  TLField out;
  out.geometry = first.geometry;
  out.tl.resize(mean_intensity.size());
  const double inv_n = 1.0 / static_cast<double>(frequencies_khz.size());
  for (std::size_t i = 0; i < mean_intensity.size(); ++i) {
    const double ii = mean_intensity[i] * inv_n;
    out.tl[i] = (ii > 0) ? std::min(-10.0 * std::log10(ii), params.max_tl_db)
                         : params.max_tl_db;
  }
  return out;
}

}  // namespace essex::acoustics
