#include "common/field_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace essex {

double Field2D::at(std::size_t ix, std::size_t iy) const {
  ESSEX_REQUIRE(ix < nx && iy < ny, "Field2D index out of range");
  return values[iy * nx + ix];
}

double Field2D::min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : values) m = std::min(m, v);
  return m;
}

double Field2D::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : values) m = std::max(m, v);
  return m;
}

void write_pgm(const Field2D& field, const std::string& path) {
  ESSEX_REQUIRE(field.values.size() == field.nx * field.ny,
                "field size mismatch");
  std::ofstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open PGM output: " + path);
  const double lo = field.min();
  const double hi = field.max();
  const double span = (hi > lo) ? (hi - lo) : 1.0;
  f << "P5\n" << field.nx << ' ' << field.ny << "\n255\n";
  // PGM rows run top-to-bottom; our iy runs south-to-north, so flip.
  for (std::size_t row = 0; row < field.ny; ++row) {
    const std::size_t iy = field.ny - 1 - row;
    for (std::size_t ix = 0; ix < field.nx; ++ix) {
      const double t = (field.at(ix, iy) - lo) / span;
      const auto px = static_cast<unsigned char>(
          std::clamp(std::lround(t * 255.0), 0L, 255L));
      f.put(static_cast<char>(px));
    }
  }
  if (!f) throw Error("failed writing PGM output: " + path);
}

void write_field_csv(const Field2D& field, const std::string& path) {
  ESSEX_REQUIRE(field.values.size() == field.nx * field.ny,
                "field size mismatch");
  std::ofstream f(path);
  if (!f) throw Error("cannot open CSV output: " + path);
  f << "y\\x";
  for (std::size_t ix = 0; ix < field.nx; ++ix) {
    const double x =
        field.x0 + (field.x1 - field.x0) * static_cast<double>(ix) /
                       std::max<std::size_t>(field.nx - 1, 1);
    f << ',' << x;
  }
  f << '\n';
  for (std::size_t iy = 0; iy < field.ny; ++iy) {
    const double y =
        field.y0 + (field.y1 - field.y0) * static_cast<double>(iy) /
                       std::max<std::size_t>(field.ny - 1, 1);
    f << y;
    for (std::size_t ix = 0; ix < field.nx; ++ix) f << ',' << field.at(ix, iy);
    f << '\n';
  }
  if (!f) throw Error("failed writing CSV output: " + path);
}

std::string ascii_map(const Field2D& field, std::size_t max_cols,
                      std::size_t max_rows) {
  ESSEX_REQUIRE(field.nx > 0 && field.ny > 0, "empty field");
  static const char kGlyphs[] = " .:-=+*#%@";
  const std::size_t n_glyphs = sizeof(kGlyphs) - 1;
  const std::size_t cols = std::min(field.nx, max_cols);
  const std::size_t rows = std::min(field.ny, max_rows);
  const double lo = field.min();
  const double hi = field.max();
  const double span = (hi > lo) ? (hi - lo) : 1.0;
  std::ostringstream os;
  for (std::size_t r = 0; r < rows; ++r) {
    // Top line of the map is the northernmost row.
    const std::size_t iy = (rows - 1 - r) * (field.ny - 1) /
                           std::max<std::size_t>(rows - 1, 1);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t ix =
          c * (field.nx - 1) / std::max<std::size_t>(cols - 1, 1);
      const double t = (field.at(ix, iy) - lo) / span;
      const auto g = static_cast<std::size_t>(
          std::clamp(t * static_cast<double>(n_glyphs - 1), 0.0,
                     static_cast<double>(n_glyphs - 1)));
      os << kGlyphs[g];
    }
    os << '\n';
  }
  os << "[min=" << lo << " max=" << hi << "]\n";
  return os.str();
}

}  // namespace essex
