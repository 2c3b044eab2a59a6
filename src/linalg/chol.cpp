#include "linalg/chol.hpp"

#include <cmath>

#include "common/error.hpp"

namespace essex::la {

Matrix cholesky(const Matrix& a) {
  ESSEX_REQUIRE(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    ESSEX_REQUIRE(d > 0.0, "cholesky: matrix is not positive definite");
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Vector cholesky_solve_factored(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  ESSEX_REQUIRE(b.size() == n, "cholesky_solve length mismatch");
  // L y = b
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Lᵀ x = y
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Matrix cholesky_solve(const Matrix& a, const Matrix& b) {
  ESSEX_REQUIRE(a.rows() == b.rows(), "cholesky_solve shape mismatch");
  const Matrix l = cholesky(a);
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    x.set_col(j, cholesky_solve_factored(l, b.col(j)));
  }
  return x;
}

}  // namespace essex::la
