// ESSEX: Cholesky factorisation and SPD solves.
//
// Used by the ESSE analysis step to invert the (small) innovation
// covariance HᵀPH + R projected into the error subspace.
#pragma once

#include "linalg/matrix.hpp"

namespace essex::la {

/// Lower-triangular Cholesky factor L with A = L Lᵀ.
/// Throws PreconditionError if A is not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Solve A X = B column-wise for SPD A.
Matrix cholesky_solve(const Matrix& a, const Matrix& b);

/// Forward/back substitution with an explicit factor L (A = L Lᵀ).
Vector cholesky_solve_factored(const Matrix& l, const Vector& b);

}  // namespace essex::la
