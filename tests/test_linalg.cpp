// Unit + property tests: dense linear algebra (matrix kernels, QR,
// symmetric eigensolver, SVD variants, Cholesky, statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/chol.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"

namespace essex::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (auto& x : a.data()) x = rng.normal();
  return a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  Matrix d = a;
  d -= b;
  return d.max_abs();
}

// ---- Matrix basics --------------------------------------------------------

TEST(Matrix, InitializerListAndIndexing) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), PreconditionError);
}

TEST(Matrix, IdentityAndTranspose) {
  Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 2), 0.0);
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 2), 5);
}

TEST(Matrix, FromColumnsRoundTrip) {
  Vector c0{1, 2, 3}, c1{4, 5, 6};
  Matrix m = Matrix::from_columns({c0, c1});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.col(1), c1);
  EXPECT_THROW(Matrix::from_columns({c0, {1.0}}), PreconditionError);
}

TEST(Matrix, RowColSettersValidateShapes) {
  Matrix m(2, 3);
  m.set_col(2, {9, 8});
  EXPECT_DOUBLE_EQ(m(0, 2), 9);
  EXPECT_DOUBLE_EQ(m(1, 2), 8);
  EXPECT_THROW(m.set_col(2, {1, 2, 3}), PreconditionError);
  EXPECT_THROW(m.set_col(3, {1, 2}), PreconditionError);
}

TEST(Matrix, ArithmeticAndNorms) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(1, 1), 5);
  c = c - b;
  EXPECT_DOUBLE_EQ(max_abs_diff(c, a), 0.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(0, 1), 4);
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(30.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4);
}

TEST(Matrix, FirstColsTruncates) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix f = a.first_cols(2);
  EXPECT_EQ(f.cols(), 2u);
  EXPECT_DOUBLE_EQ(f(1, 1), 5);
  EXPECT_THROW(a.first_cols(4), PreconditionError);
}

// ---- kernels ---------------------------------------------------------------

TEST(Kernels, MatmulMatchesHandComputed) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
  EXPECT_THROW(matmul(a, Matrix(3, 2)), PreconditionError);
}

TEST(Kernels, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Matrix a = random_matrix(13, 5, rng);
  Matrix b = random_matrix(13, 7, rng);
  EXPECT_LT(max_abs_diff(matmul_at_b(a, b), matmul(a.transposed(), b)),
            1e-12);
  Matrix c = random_matrix(9, 6, rng);
  Matrix d = random_matrix(11, 6, rng);
  EXPECT_LT(max_abs_diff(matmul_a_bt(c, d), matmul(c, d.transposed())),
            1e-12);
}

TEST(Kernels, MatvecAndTranspose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Vector x{1, 1, 1};
  Vector y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  Vector z = matvec_t(a, {1, 1});
  EXPECT_DOUBLE_EQ(z[2], 9);
}

TEST(Kernels, VectorOps) {
  Vector a{3, 4};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  Vector y{1, 1};
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 7);
  scale(y, 0.5);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_EQ(sub(a, Vector{6, 8}), (Vector{-3, -4}));
}

TEST(Orthonormalize, DropsDependentColumns) {
  Matrix a(5, 3);
  Rng rng(3);
  Vector v = rng.normals(5);
  a.set_col(0, v);
  Vector w = v;
  scale(w, 2.0);
  a.set_col(1, w);  // dependent
  a.set_col(2, rng.normals(5));
  const std::size_t kept = orthonormalize_columns(a);
  EXPECT_EQ(kept, 2u);
  Matrix qtq = matmul_at_b(a, a);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(2)), 1e-10);
}

TEST(Orthonormalize, ZeroMatrixKeepsNothing) {
  Matrix a(4, 2);
  EXPECT_EQ(orthonormalize_columns(a), 0u);
  EXPECT_EQ(a.cols(), 0u);
}

// ---- symmetric eigensolver ---------------------------------------------------

TEST(EigSym, DiagonalizesKnownMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a{{2, 1}, {1, 2}};
  EigSym e = eig_sym(a);
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-12);
}

class EigSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigSizes, ReconstructsAndOrthogonal) {
  const int n = GetParam();
  Rng rng(17);
  Matrix b = random_matrix(n, n, rng);
  Matrix a = matmul_a_bt(b, b);  // symmetric PSD
  EigSym e = eig_sym(a);
  // Descending eigenvalues, non-negative for PSD input.
  for (int i = 1; i < n; ++i)
    EXPECT_GE(e.eigenvalues[i - 1], e.eigenvalues[i] - 1e-10);
  EXPECT_GE(e.eigenvalues[n - 1], -1e-8);
  // V diag(w) Vᵀ = A.
  Matrix vd = e.eigenvectors;
  for (std::size_t i = 0; i < vd.rows(); ++i)
    for (std::size_t j = 0; j < vd.cols(); ++j)
      vd(i, j) *= e.eigenvalues[j];
  EXPECT_LT(max_abs_diff(matmul_a_bt(vd, e.eigenvectors), a),
            1e-9 * std::max(a.max_abs(), 1.0));
  // Orthogonality.
  EXPECT_LT(max_abs_diff(matmul_at_b(e.eigenvectors, e.eigenvectors),
                         Matrix::identity(n)),
            1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizes, ::testing::Values(1, 2, 5, 20, 40));

TEST(EigSym, RejectsAsymmetricInput) {
  Matrix a{{1, 2}, {0, 1}};
  EXPECT_THROW(eig_sym(a), PreconditionError);
}

// ---- SVD -----------------------------------------------------------------------

struct SvdCase {
  int m, n;
  SvdMethod method;
};

class SvdShapes : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdShapes, ReconstructsWithOrthonormalFactors) {
  const auto& c = GetParam();
  Rng rng(7);
  Matrix a = random_matrix(c.m, c.n, rng);
  ThinSvd svd = svd_thin(a, c.method);
  const std::size_t r = std::min(c.m, c.n);
  ASSERT_EQ(svd.s.size(), r);
  // Descending non-negative singular values.
  for (std::size_t i = 1; i < r; ++i)
    EXPECT_GE(svd.s[i - 1], svd.s[i] - 1e-12);
  EXPECT_GE(svd.s[r - 1], 0.0);
  // Reconstruction.
  const double tol = (c.method == SvdMethod::kGram) ? 1e-6 : 1e-9;
  EXPECT_LT(max_abs_diff(svd.reconstruct(), a), tol * 10);
  // Orthonormal factors.
  EXPECT_LT(max_abs_diff(matmul_at_b(svd.u, svd.u),
                         Matrix::identity(r)),
            tol);
  EXPECT_LT(max_abs_diff(matmul_at_b(svd.v, svd.v),
                         Matrix::identity(r)),
            tol);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndMethods, SvdShapes,
    ::testing::Values(SvdCase{6, 6, SvdMethod::kOneSidedJacobi},
                      SvdCase{30, 8, SvdMethod::kOneSidedJacobi},
                      SvdCase{8, 30, SvdMethod::kOneSidedJacobi},
                      SvdCase{100, 12, SvdMethod::kOneSidedJacobi},
                      SvdCase{6, 6, SvdMethod::kGram},
                      SvdCase{30, 8, SvdMethod::kGram},
                      SvdCase{8, 30, SvdMethod::kGram},
                      SvdCase{100, 12, SvdMethod::kGram}));

TEST(Svd, MethodsAgreeOnSingularValues) {
  Rng rng(8);
  Matrix a = random_matrix(40, 10, rng);
  ThinSvd j = svd_thin(a, SvdMethod::kOneSidedJacobi);
  ThinSvd g = svd_thin(a, SvdMethod::kGram);
  for (std::size_t i = 0; i < j.s.size(); ++i)
    EXPECT_NEAR(j.s[i], g.s[i], 1e-8 * j.s[0]);
}

TEST(Svd, RankDetectsLowRankMatrix) {
  Rng rng(9);
  Matrix u = random_matrix(20, 3, rng);
  Matrix v = random_matrix(8, 3, rng);
  Matrix a = matmul_a_bt(u, v);  // rank <= 3
  ThinSvd svd = svd_thin(a);
  const double cut = 1e-10 * svd.s.front();
  EXPECT_EQ(std::count_if(svd.s.begin(), svd.s.end(),
                          [cut](double s) { return s > cut; }),
            3);
}

TEST(Svd, SingularValuesOfKnownMatrix) {
  // diag(3, 2) embedded in a rectangle.
  Matrix a(4, 2);
  a(0, 0) = 3;
  a(1, 1) = 2;
  ThinSvd svd = svd_thin(a);
  EXPECT_NEAR(svd.s[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.s[1], 2.0, 1e-12);
}

TEST(Svd, EmptyMatrixRejected) {
  EXPECT_THROW(svd_thin(Matrix()), PreconditionError);
}

// ---- Cholesky --------------------------------------------------------------------

TEST(Cholesky, FactorizesAndSolves) {
  Matrix a{{4, 2}, {2, 3}};
  Matrix l = cholesky(a);
  EXPECT_LT(max_abs_diff(matmul_a_bt(l, l), a), 1e-12);
  Vector x = cholesky_solve_factored(l, Vector{2, 3});
  // Verify A x = b.
  Vector b = matvec(a, x);
  EXPECT_NEAR(b[0], 2, 1e-12);
  EXPECT_NEAR(b[1], 3, 1e-12);
}

TEST(Cholesky, MatrixRhsSolvesColumnwise) {
  Rng rng(21);
  Matrix b = random_matrix(6, 6, rng);
  Matrix a = matmul_a_bt(b, b);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 1.0;  // well conditioned
  Matrix rhs = random_matrix(6, 3, rng);
  Matrix x = cholesky_solve(a, rhs);
  EXPECT_LT(max_abs_diff(matmul(a, x), rhs), 1e-9);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), PreconditionError);
}

// ---- statistics -------------------------------------------------------------------

TEST(Stats, ColumnMeanAndStddev) {
  Matrix a{{1, 3}, {2, 6}};
  Vector mean = column_mean(a);
  EXPECT_DOUBLE_EQ(mean[0], 2);
  EXPECT_DOUBLE_EQ(mean[1], 4);
}

TEST(Stats, CorrelationOfPerfectlyLinearSamples) {
  Vector x{1, 2, 3, 4};
  Vector y{2, 4, 6, 8};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  Vector z{8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
  Vector c{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(x, c), 0.0);
}

TEST(Stats, RmsHelpers) {
  EXPECT_DOUBLE_EQ(rms({3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(rms_diff({1, 2}, {1, 2}), 0.0);
  EXPECT_THROW(rms_diff({1}, {1, 2}), PreconditionError);
}

}  // namespace
}  // namespace essex::la
