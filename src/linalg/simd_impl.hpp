// Internal glue between the SIMD dispatch layer and its per-tier
// translation units. Each tier TU is compiled with exactly the ISA
// flags of its tier (see src/linalg/CMakeLists.txt) plus
// -ffp-contract=off, so the compiler can neither fuse the elementwise
// multiply+adds nor un-fuse the explicit fmas — the bitwise contract in
// simd.hpp survives any optimisation level.
//
// Not installed; include only from src/linalg/simd*.cpp and tests that
// need a specific tier's raw table.
#pragma once

#include "linalg/simd.hpp"

namespace essex::la::simd::detail {

/// Canonical reference table (simd.hpp rules 1+2, std::fma reductions).
const KernelTable& scalar_table();

/// AVX2+FMA everywhere. Falls back to scalar_table() when the
/// toolchain could not target AVX2.
const KernelTable& avx2_table();

// Scalar reference kernels, exposed so the property tests can pin any
// tier against the reference directly.
double scalar_dot(const double* x, const double* y, std::size_t n);
double scalar_sumsq(const double* x, std::size_t n);
void scalar_dot_block(const double* const* cols, std::size_t ncols,
                      const double* x, std::size_t n, double* out);
void scalar_pair_dots(const double* x, const double* y, std::size_t n,
                      double* alpha, double* beta, double* gamma);
void scalar_axpy(double a, const double* x, double* y, std::size_t n);
void scalar_scale(double* x, double s, std::size_t n);
void scalar_rotate(double c, double s, double* x, double* y, std::size_t n);
void scalar_atb_update(const double* a, const double* b, double* c,
                       std::size_t rows, std::size_t p, std::size_t n);
void scalar_ab_row(const double* arow, const double* b, double* crow,
                   std::size_t k, std::size_t n);
void scalar_columns_tile(const double* a, std::size_t rows, std::size_t n,
                         const double* v, std::size_t ldv, std::size_t r,
                         double* out);
void scalar_tracer_run(const double* f, const double* u, const double* v,
                       std::size_t n, const TracerLevel& k, double* out);

/// Point i of tracer_run, written out once for the scalar tier and the
/// vector tiers' tails.
inline double tracer_point(const double* f, const double* u, const double* v,
                           std::size_t i, const TracerLevel& k) {
  const double* p = f + i;
  const double fc = p[0], fw = p[-1], fe = p[1];
  const double fs = p[-k.row], fn = p[k.row];
  const double ax = u[i] > 0 ? u[i] * (fc - fw) : u[i] * (fe - fc);
  const double ay = v[i] > 0 ? v[i] * (fc - fs) : v[i] * (fn - fc);
  const double adv = (0.0 + ax / k.dx) + ay / k.dy;
  const double lap = (fe - 2 * fc + fw) / k.dx2 + (fn - 2 * fc + fs) / k.dy2;
  const double vd = k.vertical ? k.kappa_v * ((p[k.dn] - fc) / k.dz_dn2 -
                                              (fc - p[k.up]) / k.dz_up2)
                               : 0.0;
  return fc + k.dt * ((-adv + k.kappa_h * lap) + vd);
}

}  // namespace essex::la::simd::detail
