#include "obs/observation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::obs {

namespace {

/// Offset of each variable block within the packed state vector.
struct PackOffsets {
  std::size_t temperature, salinity, ssh;
};

PackOffsets offsets(const ocean::Grid3D& grid) {
  const std::size_t p = grid.points();
  return {0, p, 4 * p};
}

}  // namespace

ObsOperator::ObsOperator(const ocean::Grid3D& grid,
                         ObservationSet observations)
    : grid_(grid), obs_(std::move(observations)) {
  stencils_.reserve(obs_.size());
  for (const auto& ob : obs_) stencils_.push_back(build_stencil(ob));
}

ObsOperator::Stencil ObsOperator::build_stencil(const Observation& ob) const {
  const double fx = std::clamp(ob.x_km / grid_.dx_km(), 0.0,
                               static_cast<double>(grid_.nx() - 1));
  const double fy = std::clamp(ob.y_km / grid_.dy_km(), 0.0,
                               static_cast<double>(grid_.ny() - 1));
  const auto ix0 = static_cast<std::size_t>(fx);
  const auto iy0 = static_cast<std::size_t>(fy);
  const std::size_t ix1 = std::min(ix0 + 1, grid_.nx() - 1);
  const std::size_t iy1 = std::min(iy0 + 1, grid_.ny() - 1);
  const double ax = fx - static_cast<double>(ix0);
  const double ay = fy - static_cast<double>(iy0);

  const PackOffsets off = offsets(grid_);

  Stencil st;
  auto push = [&st](std::size_t idx, double w) {
    if (w <= 0.0) return;
    st.index[st.n] = idx;
    st.weight[st.n] = w;
    ++st.n;
  };

  // Horizontal corner weights; land corners get zero weight and the
  // remainder is renormalised (observations never sample land).
  struct Corner {
    std::size_t ix, iy;
    double w;
  };
  Corner corners[4] = {
      {ix0, iy0, (1 - ax) * (1 - ay)},
      {ix1, iy0, ax * (1 - ay)},
      {ix0, iy1, (1 - ax) * ay},
      {ix1, iy1, ax * ay},
  };
  double wsum = 0.0;
  for (auto& c : corners) {
    if (!grid_.is_water(c.ix, c.iy)) c.w = 0.0;
    wsum += c.w;
  }
  ESSEX_REQUIRE(wsum > 0.0,
                "observation falls entirely on land — reject it upstream");
  for (auto& c : corners) c.w /= wsum;

  if (ob.kind == VarKind::kSsh) {
    for (const auto& c : corners)
      push(off.ssh + grid_.hindex(c.ix, c.iy), c.w);
    return st;
  }

  // Vertical interpolation between the bracketing z-levels.
  const auto& depths = grid_.depths();
  std::size_t iz0 = 0;
  while (iz0 + 1 < depths.size() && depths[iz0 + 1] <= ob.depth_m) ++iz0;
  const std::size_t iz1 = std::min(iz0 + 1, depths.size() - 1);
  double az = 0.0;
  if (iz1 > iz0) {
    az = std::clamp((ob.depth_m - depths[iz0]) / (depths[iz1] - depths[iz0]),
                    0.0, 1.0);
  }
  const std::size_t base =
      (ob.kind == VarKind::kTemperature) ? off.temperature : off.salinity;
  for (const auto& c : corners) {
    push(base + grid_.index(c.ix, c.iy, iz0), c.w * (1 - az));
    if (iz1 > iz0) push(base + grid_.index(c.ix, c.iy, iz1), c.w * az);
  }
  return st;
}

la::Vector ObsOperator::apply(const la::Vector& packed_state) const {
  ESSEX_REQUIRE(packed_state.size() == ocean::OceanState::packed_size(grid_),
                "ObsOperator::apply: state vector length mismatch");
  la::Vector y(obs_.size(), 0.0);
  for (std::size_t k = 0; k < obs_.size(); ++k) {
    const Stencil& st = stencils_[k];
    double s = 0.0;
    for (std::size_t i = 0; i < st.n; ++i)
      s += st.weight[i] * packed_state[st.index[i]];
    y[k] = s;
  }
  return y;
}

la::Vector ObsOperator::apply(const ocean::OceanState& state) const {
  return apply(state.pack());
}

std::vector<std::pair<std::size_t, double>> ObsOperator::stencil_entries(
    std::size_t i) const {
  ESSEX_REQUIRE(i < stencils_.size(), "stencil_entries: bad observation");
  const Stencil& st = stencils_[i];
  std::vector<std::pair<std::size_t, double>> out;
  out.reserve(st.n);
  for (std::size_t j = 0; j < st.n; ++j)
    out.emplace_back(st.index[j], st.weight[j]);
  return out;
}

}  // namespace essex::obs
