// Canonical scalar reference tier (simd.hpp). Reductions follow the
// canonical 4-lane shape with std::fma — C99 requires fma to be
// correctly rounded (one rounding per operation), which is exactly what
// the AVX2 vfmadd lanes compute, so the reference is bit-identical to
// the vector tiers on any conforming libm. Elementwise kernels are the
// plain multiply+add loops the codebase always had.
//
// Compiled WITHOUT extra ISA flags and with -ffp-contract=off: the
// multiply+adds here must stay two rounded operations.
#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/simd_impl.hpp"

namespace essex::la::simd::detail {

double scalar_dot(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    a0 = std::fma(x[i], y[i], a0);
    a1 = std::fma(x[i + 1], y[i + 1], a1);
    a2 = std::fma(x[i + 2], y[i + 2], a2);
    a3 = std::fma(x[i + 3], y[i + 3], a3);
  }
  double s = (a0 + a2) + (a1 + a3);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

double scalar_sumsq(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    a0 = std::fma(x[i], x[i], a0);
    a1 = std::fma(x[i + 1], x[i + 1], a1);
    a2 = std::fma(x[i + 2], x[i + 2], a2);
    a3 = std::fma(x[i + 3], x[i + 3], a3);
  }
  double s = (a0 + a2) + (a1 + a3);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], x[i], s);
  return s;
}

void scalar_dot_block(const double* const* cols, std::size_t ncols,
                      const double* x, std::size_t n, double* out) {
  // One streaming pass over x in the reference too, so cache behaviour
  // (not just bit patterns) matches the vector tiers. Each column keeps
  // its own canonical 4-lane accumulator set.
  double acc[kDotBlockCols][4] = {};
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    for (std::size_t w = 0; w < ncols; ++w) {
      const double* c = cols[w];
      acc[w][0] = std::fma(c[i], x[i], acc[w][0]);
      acc[w][1] = std::fma(c[i + 1], x[i + 1], acc[w][1]);
      acc[w][2] = std::fma(c[i + 2], x[i + 2], acc[w][2]);
      acc[w][3] = std::fma(c[i + 3], x[i + 3], acc[w][3]);
    }
  }
  for (std::size_t w = 0; w < ncols; ++w) {
    double s = (acc[w][0] + acc[w][2]) + (acc[w][1] + acc[w][3]);
    for (std::size_t i = nv; i < n; ++i) s = std::fma(cols[w][i], x[i], s);
    out[w] = s;
  }
}

void scalar_pair_dots(const double* x, const double* y, std::size_t n,
                      double* alpha, double* beta, double* gamma) {
  double a[4] = {}, b[4] = {}, g[4] = {};
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double xi = x[i + l], yi = y[i + l];
      a[l] = std::fma(xi, xi, a[l]);
      b[l] = std::fma(yi, yi, b[l]);
      g[l] = std::fma(xi, yi, g[l]);
    }
  }
  double sa = (a[0] + a[2]) + (a[1] + a[3]);
  double sb = (b[0] + b[2]) + (b[1] + b[3]);
  double sg = (g[0] + g[2]) + (g[1] + g[3]);
  for (std::size_t i = nv; i < n; ++i) {
    sa = std::fma(x[i], x[i], sa);
    sb = std::fma(y[i], y[i], sb);
    sg = std::fma(x[i], y[i], sg);
  }
  *alpha = sa;
  *beta = sb;
  *gamma = sg;
}

void scalar_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scalar_scale(double* x, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void scalar_rotate(double c, double s, double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void scalar_atb_update(const double* a, const double* b, double* c,
                       std::size_t rows, std::size_t p, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * p;
    const double* brow = b + r * n;
    for (std::size_t i = 0; i < p; ++i) {
      const double ari = arow[i];
      if (ari == 0.0) continue;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ari * brow[j];
    }
  }
}

void scalar_ab_row(const double* arow, const double* b, double* crow,
                   std::size_t k, std::size_t n) {
  for (std::size_t q = 0; q < k; ++q) {
    const double aq = arow[q];
    if (aq == 0.0) continue;
    const double* brow = b + q * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] += aq * brow[j];
  }
}

void scalar_columns_tile(const double* a, std::size_t rows, std::size_t n,
                         const double* v, std::size_t ldv, std::size_t r,
                         double* out) {
  // Blocks of up to kBlock outputs accumulate in locals across all n
  // terms; each output row is written once.
  constexpr std::size_t kBlock = 8;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * n;
    double* orow = out + i * r;
    for (std::size_t j0 = 0; j0 < r; j0 += kBlock) {
      const std::size_t w = std::min(kBlock, r - j0);
      double acc[kBlock] = {};
      for (std::size_t c = 0; c < n; ++c) {
        const double* vrow = v + c * ldv + j0;
        for (std::size_t k = 0; k < w; ++k) acc[k] += arow[c] * vrow[k];
      }
      for (std::size_t k = 0; k < w; ++k) orow[j0 + k] = acc[k];
    }
  }
}

void scalar_tracer_run(const double* f, const double* u, const double* v,
                       std::size_t n, const TracerLevel& k, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tracer_point(f, u, v, i, k);
}

const KernelTable& scalar_table() {
  static const KernelTable table = {
      scalar_dot,     scalar_sumsq,  scalar_dot_block,
      scalar_pair_dots, scalar_axpy, scalar_scale,
      scalar_rotate,  scalar_atb_update, scalar_ab_row,
      scalar_columns_tile, scalar_tracer_run,
  };
  return table;
}

}  // namespace essex::la::simd::detail
