#include "ocean/hierarchy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ocean/state.hpp"

namespace essex::ocean {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// lerp form p + t·(q − p): exact for p == q, so constants survive
/// prolongation bitwise (the explicit-weight form w1·p + w2·q rounds).
double lerp(double p, double q, double t) { return p + t * (q - p); }

/// Fine cell `i` of a plane coarsened by `f`, in coarse cell-centre
/// index space: both grids share the origin of cell 0's lower edge, so
/// fine centre (i + 0.5)·dx sits at coarse index (i + 0.5)/f − 0.5.
double coarse_coord(std::size_t i, std::size_t f) {
  return (static_cast<double>(i) + 0.5) / static_cast<double>(f) - 0.5;
}

struct Bilinear {
  std::size_t i0, i1;
  double w;  ///< weight of i1 (lerp parameter)
};

Bilinear axis_weights(std::size_t i, std::size_t f, std::size_t nc) {
  double g = coarse_coord(i, f);
  if (g < 0.0) g = 0.0;
  const double gmax = static_cast<double>(nc - 1);
  if (g > gmax) g = gmax;
  std::size_t i0 = static_cast<std::size_t>(g);
  if (i0 >= nc - 1 && nc >= 2) i0 = nc - 2;
  Bilinear b;
  b.i0 = i0;
  b.i1 = nc >= 2 ? i0 + 1 : i0;
  b.w = g - static_cast<double>(i0);
  if (b.w < 0.0) b.w = 0.0;
  if (b.w > 1.0) b.w = 1.0;
  return b;
}

/// Conservative block average of one nx×ny plane down to nxc×nyc
/// (partition by ceil-division: edge blocks may be narrower).
void restrict_plane(const double* src, std::size_t nx, std::size_t ny,
                    double* dst, std::size_t nxc, std::size_t nyc,
                    std::size_t f) {
  for (std::size_t jy = 0; jy < nyc; ++jy) {
    const std::size_t y0 = jy * f;
    const std::size_t y1 = std::min(y0 + f, ny);
    for (std::size_t jx = 0; jx < nxc; ++jx) {
      const std::size_t x0 = jx * f;
      const std::size_t x1 = std::min(x0 + f, nx);
      double sum = 0.0;
      for (std::size_t iy = y0; iy < y1; ++iy)
        for (std::size_t ix = x0; ix < x1; ++ix)
          sum += src[iy * nx + ix];
      dst[jy * nxc + jx] =
          sum / static_cast<double>((y1 - y0) * (x1 - x0));
    }
  }
}

/// Cell-centred bilinear interpolation of one nxc×nyc plane up to nx×ny.
void prolong_plane(const double* src, std::size_t nxc, std::size_t nyc,
                   double* dst, std::size_t nx, std::size_t ny,
                   std::size_t f) {
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const Bilinear by = axis_weights(iy, f, nyc);
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const Bilinear bx = axis_weights(ix, f, nxc);
      const double lo = lerp(src[by.i0 * nxc + bx.i0],
                             src[by.i0 * nxc + bx.i1], bx.w);
      const double hi = lerp(src[by.i1 * nxc + bx.i0],
                             src[by.i1 * nxc + bx.i1], bx.w);
      dst[iy * nx + ix] = lerp(lo, hi, by.w);
    }
  }
}

}  // namespace

GridHierarchy::GridHierarchy(const Grid3D& fine, std::size_t levels,
                             std::size_t coarsen)
    : coarsen_(coarsen) {
  ESSEX_REQUIRE(levels >= 1, "hierarchy needs at least the fine level");
  ESSEX_REQUIRE(coarsen >= 2, "coarsening factor must be >= 2");
  grids_.reserve(levels);
  grids_.push_back(fine);
  for (std::size_t l = 1; l < levels; ++l) {
    const Grid3D& prev = grids_.back();
    const std::size_t nxc = ceil_div(prev.nx(), coarsen);
    const std::size_t nyc = ceil_div(prev.ny(), coarsen);
    ESSEX_REQUIRE(nxc >= 3 && nyc >= 3,
                  "coarsened grid falls below the 3x3 Grid3D minimum");
    Grid3D g(nxc, nyc, prev.dx_km() * static_cast<double>(coarsen),
             prev.dy_km() * static_cast<double>(coarsen), prev.depths());
    // A coarse cell is land only when every covered fine cell is land:
    // any water keeps the averaged tracer values physically meaningful.
    for (std::size_t jy = 0; jy < nyc; ++jy) {
      for (std::size_t jx = 0; jx < nxc; ++jx) {
        bool water = false;
        const std::size_t y1 = std::min((jy + 1) * coarsen, prev.ny());
        const std::size_t x1 = std::min((jx + 1) * coarsen, prev.nx());
        for (std::size_t iy = jy * coarsen; iy < y1 && !water; ++iy)
          for (std::size_t ix = jx * coarsen; ix < x1; ++ix)
            if (prev.is_water(ix, iy)) {
              water = true;
              break;
            }
        if (!water) g.set_land(jx, jy);
      }
    }
    grids_.push_back(std::move(g));
  }
}

const Grid3D& GridHierarchy::grid(std::size_t level) const {
  ESSEX_REQUIRE(level < grids_.size(), "hierarchy has no such level");
  return grids_[level];
}

std::size_t GridHierarchy::packed_size(std::size_t level) const {
  return OceanState::packed_size(grid(level));
}

la::Vector GridHierarchy::restrict_once(const la::Vector& x,
                                        std::size_t from) const {
  const Grid3D& gf = grids_[from];
  const Grid3D& gc = grids_[from + 1];
  la::Vector out(OceanState::packed_size(gc));
  const std::size_t hp_f = gf.horizontal_points();
  const std::size_t hp_c = gc.horizontal_points();
  const std::size_t nz = gf.nz();
  // Packed layout [T, S, u, v, ssh]: four 3-D fields (nz planes each)
  // then the 2-D SSH plane; z-levels are shared across the hierarchy.
  for (std::size_t field = 0; field < 4; ++field) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      restrict_plane(x.data() + field * gf.points() + iz * hp_f, gf.nx(),
                     gf.ny(), out.data() + field * gc.points() + iz * hp_c,
                     gc.nx(), gc.ny(), coarsen_);
    }
  }
  restrict_plane(x.data() + 4 * gf.points(), gf.nx(), gf.ny(),
                 out.data() + 4 * gc.points(), gc.nx(), gc.ny(), coarsen_);
  return out;
}

la::Vector GridHierarchy::prolong_once(const la::Vector& x,
                                       std::size_t from) const {
  const Grid3D& gc = grids_[from];
  const Grid3D& gf = grids_[from - 1];
  la::Vector out(OceanState::packed_size(gf));
  const std::size_t hp_f = gf.horizontal_points();
  const std::size_t hp_c = gc.horizontal_points();
  const std::size_t nz = gf.nz();
  for (std::size_t field = 0; field < 4; ++field) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      prolong_plane(x.data() + field * gc.points() + iz * hp_c, gc.nx(),
                    gc.ny(), out.data() + field * gf.points() + iz * hp_f,
                    gf.nx(), gf.ny(), coarsen_);
    }
  }
  prolong_plane(x.data() + 4 * gc.points(), gc.nx(), gc.ny(),
                out.data() + 4 * gf.points(), gf.nx(), gf.ny(), coarsen_);
  return out;
}

la::Vector GridHierarchy::restrict_state(const la::Vector& fine,
                                         std::size_t level) const {
  ESSEX_REQUIRE(level < grids_.size(), "hierarchy has no such level");
  ESSEX_REQUIRE(fine.size() == packed_size(0),
                "restriction input is not a fine packed state");
  la::Vector x = fine;
  for (std::size_t l = 0; l < level; ++l) x = restrict_once(x, l);
  return x;
}

la::Vector GridHierarchy::prolong_state(const la::Vector& coarse,
                                        std::size_t level) const {
  ESSEX_REQUIRE(level < grids_.size(), "hierarchy has no such level");
  ESSEX_REQUIRE(coarse.size() == packed_size(level),
                "prolongation input does not match the level's state");
  la::Vector x = coarse;
  for (std::size_t l = level; l > 0; --l) x = prolong_once(x, l);
  return x;
}

}  // namespace essex::ocean
