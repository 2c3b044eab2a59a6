// ESSEX: thin singular value decomposition.
//
// The heart of ESSE (paper §3, Fig. 2): the dominant error covariance is
// obtained from an SVD of the normalised ensemble anomaly matrix. Two
// algorithms are provided:
//
//  * kOneSidedJacobi — orthogonalises the columns of A directly; most
//    accurate, O(m n²) per sweep. The default.
//  * kGram — the "method of snapshots": eigendecompose AᵀA (n×n) and
//    recover U = A V Σ⁻¹. Half the flops for tall-skinny anomaly
//    matrices (m = state dim ≫ n = ensemble size), at the cost of
//    squaring the condition number — acceptable because ESSE truncates
//    tiny singular values anyway. This is what the paper's production
//    code (LAPACK on the master node) effectively computes.
#pragma once

#include "linalg/matrix.hpp"

namespace essex::la {

enum class SvdMethod {
  kOneSidedJacobi,
  kGram,
};

/// Thin SVD A = U diag(s) Vᵀ with singular values sorted descending.
/// U is m×r, V is n×r where r = min(m, n).
struct ThinSvd {
  Matrix u;
  Vector s;  ///< descending, non-negative
  Matrix v;

  /// Reconstruct U diag(s) Vᵀ (for testing).
  Matrix reconstruct() const;

};

/// Compute the thin SVD. Works for any m×n (internally transposes when
/// m < n). Throws ConvergenceError if the Jacobi sweeps fail to converge.
ThinSvd svd_thin(const Matrix& a, SvdMethod method = SvdMethod::kOneSidedJacobi);

}  // namespace essex::la
