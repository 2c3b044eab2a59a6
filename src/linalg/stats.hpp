// ESSEX: ensemble statistics helpers.
//
// The differ stage of ESSE (paper Fig. 3/4) turns an ensemble of state
// vectors into an anomaly matrix around the central forecast; these
// helpers compute column means and anomalies, correlations and RMS
// differences.
#pragma once

#include "linalg/matrix.hpp"

namespace essex::la {

/// Mean of the columns of `a` (length = rows).
Vector column_mean(const Matrix& a);

/// Anomaly matrix: subtract `center` from every column.
Matrix anomalies_about(const Matrix& a, const Vector& center);

/// Pearson correlation between two equally-long samples.
double correlation(const Vector& x, const Vector& y);

/// Root-mean-square of a vector.
double rms(const Vector& v);

/// Root-mean-square difference between two equally-long vectors.
double rms_diff(const Vector& a, const Vector& b);

}  // namespace essex::la
