// ESSEX: dense double-precision linear algebra core.
//
// ESSE state vectors are O(1e4–1e7) and ensembles are O(1e2–1e3), so the
// workhorse shapes are tall-skinny anomaly matrices (states × members)
// and small square covariance factors (members × members). Matrix is a
// row-major owning container with the handful of BLAS-like kernels those
// shapes need; heavy decompositions live in qr.hpp / svd.hpp / eig_sym.hpp.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/aligned.hpp"

namespace essex::la {

using Vector = std::vector<double>;

/// Matrix backing store: 64-byte-aligned so the runtime-dispatched SIMD
/// kernels (simd.hpp) start every row-major payload on a cache line.
using AlignedBuffer = std::vector<double, AlignedAllocator<double, 64>>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows × cols, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initialiser list (rows of equal width).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  /// Column-stacked construction: each entry of `cols` becomes a column.
  /// All columns must share the same length.
  static Matrix from_columns(const std::vector<Vector>& cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j);
  double operator()(std::size_t i, std::size_t j) const;

  /// Raw row-major storage (size rows*cols, 64-byte-aligned base).
  const AlignedBuffer& data() const { return data_; }
  AlignedBuffer& data() { return data_; }

  Vector col(std::size_t j) const;
  void set_col(std::size_t j, const Vector& v);

  /// Keep only the first k columns (k <= cols()).
  Matrix first_cols(std::size_t k) const;

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij|.
  double max_abs() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  AlignedBuffer data_;
};

// ---- BLAS-like kernels -----------------------------------------------

/// Fix the sign freedom of spectral factor columns in place: each column
/// is flipped, if needed, so that its entry of largest magnitude (the
/// first such entry on ties) is strictly positive. Eigensolvers and SVDs
/// are free to return either sign for a mode; this canonical convention
/// makes mode matrices — and anything derived from them, like serialized
/// error subspaces — bit-stable across equivalent decompositions.
/// Returns the column signs applied (+1/-1), so paired factors (U with V)
/// can be flipped consistently.
std::vector<int> canonicalize_column_signs(Matrix& m);

/// C = A * B (cache-blocked).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = Aᵀ * B without forming Aᵀ (the differ's Gram-matrix kernel).
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * Bᵀ without forming Bᵀ.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// y = A * x.
Vector matvec(const Matrix& a, const Vector& x);

/// y = Aᵀ * x.
Vector matvec_t(const Matrix& a, const Vector& x);

// ---- vector kernels ---------------------------------------------------

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);

/// y += alpha * x.
void axpy(double alpha, const Vector& x, Vector& y);

void scale(Vector& v, double s);

Vector sub(const Vector& a, const Vector& b);

}  // namespace essex::la
