#include "ocean/state.hpp"

#include <cmath>

#include "common/error.hpp"

namespace essex::ocean {

OceanState::OceanState(const Grid3D& grid)
    : temperature(grid.points(), 0.0),
      salinity(grid.points(), 0.0),
      u(grid.points(), 0.0),
      v(grid.points(), 0.0),
      ssh(grid.horizontal_points(), 0.0) {}

std::size_t OceanState::packed_size(const Grid3D& grid) {
  return 4 * grid.points() + grid.horizontal_points();
}

la::Vector OceanState::pack() const {
  la::Vector x;
  x.reserve(4 * temperature.size() + ssh.size());
  x.insert(x.end(), temperature.begin(), temperature.end());
  x.insert(x.end(), salinity.begin(), salinity.end());
  x.insert(x.end(), u.begin(), u.end());
  x.insert(x.end(), v.begin(), v.end());
  x.insert(x.end(), ssh.begin(), ssh.end());
  return x;
}

void OceanState::unpack(const la::Vector& x, const Grid3D& grid) {
  ESSEX_REQUIRE(x.size() == packed_size(grid),
                "unpack: state vector length mismatch");
  const std::size_t p = grid.points();
  const std::size_t h = grid.horizontal_points();
  temperature.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(p));
  salinity.assign(x.begin() + static_cast<std::ptrdiff_t>(p),
                  x.begin() + static_cast<std::ptrdiff_t>(2 * p));
  u.assign(x.begin() + static_cast<std::ptrdiff_t>(2 * p),
           x.begin() + static_cast<std::ptrdiff_t>(3 * p));
  v.assign(x.begin() + static_cast<std::ptrdiff_t>(3 * p),
           x.begin() + static_cast<std::ptrdiff_t>(4 * p));
  ssh.assign(x.begin() + static_cast<std::ptrdiff_t>(4 * p),
             x.begin() + static_cast<std::ptrdiff_t>(4 * p + h));
}

double state_distance(const OceanState& a, const OceanState& b) {
  ESSEX_REQUIRE(a.temperature.size() == b.temperature.size() &&
                    a.ssh.size() == b.ssh.size(),
                "state_distance shape mismatch");
  double s = 0.0;
  auto acc = [&s](const std::vector<double>& x, const std::vector<double>& y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - y[i];
      s += d * d;
    }
  };
  acc(a.temperature, b.temperature);
  acc(a.salinity, b.salinity);
  acc(a.u, b.u);
  acc(a.v, b.v);
  acc(a.ssh, b.ssh);
  return std::sqrt(s);
}

}  // namespace essex::ocean
