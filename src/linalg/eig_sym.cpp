#include "linalg/eig_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace essex::la {

EigSym eig_sym(const Matrix& a, int max_sweeps, double sym_tol) {
  ESSEX_REQUIRE(a.rows() == a.cols(), "eig_sym requires a square matrix");
  const std::size_t n = a.rows();
  if (n == 0) return {};

  // Symmetrise (and verify the caller gave something symmetric-ish).
  // The loops below index raw row-major storage: w(i, j) is wd[i·n + j].
  Matrix w(n, n);
  const double* ad = a.data().data();
  double* wd = w.data().data();
  const double scale = std::max(a.max_abs(), 1e-300);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double aij = ad[i * n + j], aji = ad[j * n + i];
      ESSEX_REQUIRE(std::fabs(aij - aji) <= sym_tol * scale,
                    "eig_sym input is not symmetric");
      wd[i * n + j] = 0.5 * (aij + aji);
    }
  }

  // Vᵀ, so that a rotation of V's columns p and q is one of two rows.
  Matrix vt = Matrix::identity(n);
  double* vtd = vt.data().data();
  const simd::KernelTable& kernels = simd::kernels();

  auto off_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        s += wd[i * n + j] * wd[i * n + j];
    return std::sqrt(2.0 * s);
  };

  const double tol = 1e-14 * std::max(w.frobenius_norm(), 1e-300);
  int sweep = 0;
  while (off_norm() > tol) {
    if (++sweep > max_sweeps) {
      throw ConvergenceError("Jacobi eigensolver failed to converge");
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = wd[p * n + q];
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = wd[p * n + p];
        const double aqq = wd[q * n + q];
        // Classic Jacobi rotation: zero out w(p,q).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Columns p and q of w, then rows p and q, then V's columns.
        for (std::size_t k = 0; k < n; ++k) {
          double* row = wd + k * n;
          const double wkp = row[p];
          const double wkq = row[q];
          row[p] = c * wkp - s * wkq;
          row[q] = s * wkp + c * wkq;
        }
        kernels.rotate(c, s, wd + p * n, wd + q * n, n);
        kernels.rotate(c, s, vtd + p * n, vtd + q * n, n);
      }
    }
  }

  // Sort descending; stable so degenerate eigenvalues keep a
  // deterministic order for identical inputs.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return wd[i * n + i] > wd[j * n + j];
                   });

  EigSym out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = wd[order[j] * n + order[j]];
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, j) = vtd[order[j] * n + i];
  }
  // A = VΛVᵀ is invariant under per-column sign flips; pin the free signs
  // so equal inputs always yield bitwise-equal eigenvectors.
  canonicalize_column_signs(out.eigenvectors);
  return out;
}

}  // namespace essex::la
