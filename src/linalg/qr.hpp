// ESSEX: column orthonormalisation.
//
// The testkit generators use it to turn random directions into
// orthonormal error-subspace bases.
#pragma once

#include "linalg/matrix.hpp"

namespace essex::la {

/// Orthonormalise the columns of `a` in place using modified Gram–Schmidt
/// with one re-orthogonalisation pass. Columns that become numerically
/// zero (norm below `drop_tol` × the largest original column norm) are
/// removed; returns the number of columns kept.
std::size_t orthonormalize_columns(Matrix& a, double drop_tol = 1e-12);

}  // namespace essex::la
