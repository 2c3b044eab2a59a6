// ESSEX: 2-D scalar-field output (the repo's stand-in for the paper's
// colour maps, Figs. 5/6).
//
// Fields are written three ways: binary PGM images (viewable anywhere),
// CSV grids (for external plotting), and ASCII contour maps printed to
// the console so bench output is self-contained.
#pragma once

#include <string>
#include <vector>

namespace essex {

/// A dense row-major 2-D scalar field with a physical bounding box.
struct Field2D {
  std::size_t nx = 0;  ///< columns (east)
  std::size_t ny = 0;  ///< rows (north)
  std::vector<double> values;  ///< row-major, size nx*ny
  double x0 = 0, x1 = 1, y0 = 0, y1 = 1;  ///< physical extent (km or deg)

  double at(std::size_t ix, std::size_t iy) const;
  double min() const;
  double max() const;
};

/// Write a grey-scale PGM (min→black, max→white).
void write_pgm(const Field2D& field, const std::string& path);

/// Write the field as a CSV grid with x/y coordinate headers.
void write_field_csv(const Field2D& field, const std::string& path);

/// Render an ASCII-art contour map (darker glyph = larger value),
/// downsampled to at most `max_cols` columns. Returns the multi-line map.
std::string ascii_map(const Field2D& field, std::size_t max_cols = 72,
                      std::size_t max_rows = 28);

}  // namespace essex
