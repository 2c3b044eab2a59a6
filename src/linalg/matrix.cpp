#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace essex::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    ESSEX_REQUIRE(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_columns(const std::vector<Vector>& cols) {
  if (cols.empty()) return {};
  const std::size_t m = cols.front().size();
  Matrix out(m, cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    ESSEX_REQUIRE(cols[j].size() == m, "columns must share the same length");
    for (std::size_t i = 0; i < m; ++i) out(i, j) = cols[j][i];
  }
  return out;
}

double& Matrix::operator()(std::size_t i, std::size_t j) {
  ESSEX_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
  return data_[i * cols_ + j];
}

double Matrix::operator()(std::size_t i, std::size_t j) const {
  ESSEX_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
  return data_[i * cols_ + j];
}

Vector Matrix::col(std::size_t j) const {
  ESSEX_REQUIRE(j < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = data_[i * cols_ + j];
  return v;
}

void Matrix::set_col(std::size_t j, const Vector& v) {
  ESSEX_REQUIRE(j < cols_ && v.size() == rows_, "set_col shape mismatch");
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = v[i];
}

Matrix Matrix::first_cols(std::size_t k) const {
  ESSEX_REQUIRE(k <= cols_, "first_cols: k exceeds column count");
  Matrix out(rows_, k);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < k; ++j) out(i, j) = (*this)(i, j);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  ESSEX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                "matrix addition shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  ESSEX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                "matrix subtraction shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  simd::kernels().scale(data_.data(), s, data_.size());
  return *this;
}

double Matrix::frobenius_norm() const {
  return std::sqrt(simd::kernels().sumsq(data_.data(), data_.size()));
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

// ---- kernels -----------------------------------------------------------

namespace {
constexpr std::size_t kBlock = 64;
}

std::vector<int> canonicalize_column_signs(Matrix& m) {
  const std::size_t rows = m.rows(), cols = m.cols();
  double* d = m.data().data();
  // One row-major scan keeps every column's first entry of largest
  // magnitude; strict > keeps the lowest row on ties.
  std::vector<double> peak(cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = d + i * cols;
    for (std::size_t j = 0; j < cols; ++j)
      if (std::fabs(row[j]) > std::fabs(peak[j])) peak[j] = row[j];
  }
  std::vector<int> signs(cols, 1);
  bool any = false;
  for (std::size_t j = 0; j < cols; ++j) {
    if (peak[j] < 0.0) {
      signs[j] = -1;
      any = true;
    }
  }
  if (!any) return signs;
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = d + i * cols;
    for (std::size_t j = 0; j < cols; ++j)
      if (signs[j] < 0) row[j] = -row[j];
  }
  return signs;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  ESSEX_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  const double* A = a.data().data();
  const double* B = b.data().data();
  double* C = c.data().data();
  const auto& kern = simd::kernels();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
      const std::size_t p1 = std::min(p0 + kBlock, k);
      for (std::size_t i = i0; i < i1; ++i)
        kern.ab_row(A + i * k + p0, B + p0 * n, C + i * n, p1 - p0, n);
    }
  }
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  ESSEX_REQUIRE(a.rows() == b.rows(), "matmul_at_b row mismatch");
  const std::size_t m = a.rows(), p = a.cols(), n = b.cols();
  Matrix c(p, n);
  const double* A = a.data().data();
  const double* B = b.data().data();
  double* C = c.data().data();
  // Row-panel accumulation over A/B: cache friendly for tall-skinny
  // inputs, register-tiled inside the dispatch kernel.
  simd::kernels().atb_update(A, B, C, m, p, n);
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  ESSEX_REQUIRE(a.cols() == b.cols(), "matmul_a_bt column mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  const auto& kern = simd::kernels();
  for (std::size_t i = 0; i < m; ++i) {
    const double* Arow = a.data().data() + i * k;
    for (std::size_t j = 0; j < n; ++j)
      c(i, j) = kern.dot(Arow, b.data().data() + j * k, k);
  }
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  ESSEX_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  Vector y(a.rows(), 0.0);
  const auto& kern = simd::kernels();
  for (std::size_t i = 0; i < a.rows(); ++i)
    y[i] = kern.dot(a.data().data() + i * a.cols(), x.data(), a.cols());
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  ESSEX_REQUIRE(a.rows() == x.size(), "matvec_t shape mismatch");
  Vector y(a.cols(), 0.0);
  const auto& kern = simd::kernels();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    kern.axpy(xi, a.data().data() + i * a.cols(), y.data(), a.cols());
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  ESSEX_REQUIRE(a.size() == b.size(), "dot length mismatch");
  return simd::kernels().dot(a.data(), b.data(), a.size());
}

double norm2(const Vector& a) {
  return std::sqrt(simd::kernels().sumsq(a.data(), a.size()));
}

void axpy(double alpha, const Vector& x, Vector& y) {
  ESSEX_REQUIRE(x.size() == y.size(), "axpy length mismatch");
  simd::kernels().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(Vector& v, double s) {
  simd::kernels().scale(v.data(), s, v.size());
}

Vector sub(const Vector& a, const Vector& b) {
  ESSEX_REQUIRE(a.size() == b.size(), "sub length mismatch");
  Vector c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

}  // namespace essex::la
