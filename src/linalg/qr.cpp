#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::la {

std::size_t orthonormalize_columns(Matrix& a, double drop_tol) {
  const std::size_t m = a.rows(), n = a.cols();
  if (n == 0) return 0;

  std::vector<Vector> kept;
  kept.reserve(n);
  double max_norm = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    max_norm = std::max(max_norm, norm2(a.col(j)));
  if (max_norm == 0.0) {
    a = Matrix(m, 0);
    return 0;
  }

  for (std::size_t j = 0; j < n; ++j) {
    Vector v = a.col(j);
    // Two MGS passes for numerical robustness.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : kept) axpy(-dot(q, v), q, v);
    }
    const double nv = norm2(v);
    if (nv > drop_tol * max_norm) {
      scale(v, 1.0 / nv);
      kept.push_back(std::move(v));
    }
  }
  a = Matrix::from_columns(kept);
  if (kept.empty()) a = Matrix(m, 0);
  return kept.size();
}

}  // namespace essex::la
