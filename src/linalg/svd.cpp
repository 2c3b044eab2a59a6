#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/simd.hpp"

namespace essex::la {

Matrix ThinSvd::reconstruct() const {
  Matrix us = u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s[j];
  return matmul_a_bt(us, v);
}

namespace {

// One-sided Jacobi on an m×n matrix with m >= n: rotate column pairs
// until all pairs are orthogonal; accumulate rotations into V. The
// rotations only ever touch whole columns, so both working copies are
// kept column-major — every inner loop is a unit-stride walk instead of
// an n-double stride through the row-major Matrix storage.
ThinSvd jacobi_svd_tall(const Matrix& a_in, int max_sweeps = 60) {
  const std::size_t m = a_in.rows(), n = a_in.cols();
  ESSEX_ASSERT(m >= n, "jacobi_svd_tall requires m >= n");

  // Column-major working copies: column j of A at a[j*m], of V at v[j*n].
  std::vector<double> a(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a[j * m + i] = a_in(i, j);
  std::vector<double> v(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) v[j * n + j] = 1.0;

  const double eps = 1e-15;
  const auto& kern = simd::kernels();
  bool converged = (n <= 1);
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* ap = a.data() + p * m;
        double* aq = a.data() + q * m;
        double alpha, beta, gamma;
        kern.pair_dots(ap, aq, m, &alpha, &beta, &gamma);
        if (std::fabs(gamma) <= eps * std::sqrt(alpha * beta)) continue;
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        kern.rotate(c, s, ap, aq, m);
        kern.rotate(c, s, v.data() + p * n, v.data() + q * n, n);
      }
    }
  }
  if (!converged) {
    throw ConvergenceError("one-sided Jacobi SVD failed to converge");
  }

  // Column norms of the rotated A are the singular values.
  Vector sv(n);
  for (std::size_t j = 0; j < n; ++j)
    sv[j] = std::sqrt(kern.sumsq(a.data() + j * m, m));

  // Sort descending; stable so repeated singular values keep a
  // deterministic order for identical inputs.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) { return sv[i] > sv[j]; });

  ThinSvd out;
  out.s.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t o = order[j];
    out.s[j] = sv[o];
    const double inv = (sv[o] > 0) ? 1.0 / sv[o] : 0.0;
    const double* ao = a.data() + o * m;
    const double* vo = v.data() + o * n;
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = ao[i] * inv;
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = vo[i];
  }
  // Pin the per-mode sign freedom by U's canonical convention; V flips
  // with U so A = U S Vᵀ still reconstructs.
  const std::vector<int> signs = canonicalize_column_signs(out.u);
  for (std::size_t j = 0; j < n; ++j) {
    if (signs[j] < 0) {
      for (std::size_t i = 0; i < n; ++i) out.v(i, j) = -out.v(i, j);
    }
  }
  return out;
}

// Method of snapshots: eig of AᵀA.
ThinSvd gram_svd_tall(const Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  ESSEX_ASSERT(m >= n, "gram_svd_tall requires m >= n");
  const Matrix gram = matmul_at_b(a, a);
  EigSym eig = eig_sym(gram);

  ThinSvd out;
  out.s.resize(n);
  out.v = eig.eigenvectors;
  out.u = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double lam = std::max(eig.eigenvalues[j], 0.0);
    out.s[j] = std::sqrt(lam);
  }
  // U = A V Σ⁻¹, with zero columns for null singular values.
  const Matrix av = matmul(a, out.v);
  for (std::size_t j = 0; j < n; ++j) {
    const double inv = (out.s[j] > 1e-300) ? 1.0 / out.s[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = av(i, j) * inv;
  }
  // Same sign convention as the Jacobi path: canonical U, V follows.
  const std::vector<int> signs = canonicalize_column_signs(out.u);
  for (std::size_t j = 0; j < n; ++j) {
    if (signs[j] < 0) {
      for (std::size_t i = 0; i < n; ++i) out.v(i, j) = -out.v(i, j);
    }
  }
  return out;
}

ThinSvd svd_tall(const Matrix& a, SvdMethod method) {
  switch (method) {
    case SvdMethod::kOneSidedJacobi:
      return jacobi_svd_tall(a);
    case SvdMethod::kGram:
      return gram_svd_tall(a);
  }
  throw InvariantError("unknown SVD method");
}

}  // namespace

ThinSvd svd_thin(const Matrix& a, SvdMethod method) {
  ESSEX_REQUIRE(!a.empty(), "svd_thin requires a non-empty matrix");
  if (a.rows() >= a.cols()) return svd_tall(a, method);
  // A = U S Vᵀ  ⇔  Aᵀ = V S Uᵀ.
  ThinSvd t = svd_tall(a.transposed(), method);
  ThinSvd out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

}  // namespace essex::la
