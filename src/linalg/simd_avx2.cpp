// AVX2+FMA tier (simd.hpp). Reductions keep one ymm accumulator whose
// four lanes ARE the canonical 4-lane shape: vfmadd on lane l advances
// acc_l with a single rounding, and the horizontal combine
// (lo+hi then lane0+lane1) is exactly (a0+a2)+(a1+a3). Elementwise
// kernels use vmul+vadd — never vfmadd — so each element's rounding
// chain matches the scalar multiply+add loops.
//
// Compiled with -mavx2 -mfma -ffp-contract=off on x86; elsewhere the
// table collapses to the scalar reference.
#include <cmath>
#include <cstddef>

#include "linalg/simd_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace essex::la::simd::detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// (a0+a2)+(a1+a3) for acc = [a0, a1, a2, a3].
inline double hsum_canonical(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // [a0+a2, a1+a3]
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double avx2_dot(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4)
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc);
  double s = hsum_canonical(acc);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

double avx2_sumsq(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    acc = _mm256_fmadd_pd(xi, xi, acc);
  }
  double s = hsum_canonical(acc);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], x[i], s);
  return s;
}

void avx2_dot_block(const double* const* cols, std::size_t ncols,
                    const double* x, std::size_t n, double* out) {
  // One accumulator register per column; x is streamed exactly once.
  __m256d acc[kDotBlockCols];
  for (std::size_t w = 0; w < ncols; ++w) acc[w] = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    for (std::size_t w = 0; w < ncols; ++w)
      acc[w] = _mm256_fmadd_pd(_mm256_loadu_pd(cols[w] + i), xv, acc[w]);
  }
  for (std::size_t w = 0; w < ncols; ++w) {
    double s = hsum_canonical(acc[w]);
    for (std::size_t i = nv; i < n; ++i) s = std::fma(cols[w][i], x[i], s);
    out[w] = s;
  }
}

void avx2_pair_dots(const double* x, const double* y, std::size_t n,
                    double* alpha, double* beta, double* gamma) {
  __m256d aa = _mm256_setzero_pd(), bb = _mm256_setzero_pd(),
          gg = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    aa = _mm256_fmadd_pd(xi, xi, aa);
    bb = _mm256_fmadd_pd(yi, yi, bb);
    gg = _mm256_fmadd_pd(xi, yi, gg);
  }
  double sa = hsum_canonical(aa);
  double sb = hsum_canonical(bb);
  double sg = hsum_canonical(gg);
  for (std::size_t i = nv; i < n; ++i) {
    sa = std::fma(x[i], x[i], sa);
    sb = std::fma(y[i], y[i], sb);
    sg = std::fma(x[i], y[i], sg);
  }
  *alpha = sa;
  *beta = sb;
  *gamma = sg;
}

void avx2_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (std::size_t i = nv; i < n; ++i) y[i] += a * x[i];
}

void avx2_scale(double* x, double s, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  for (std::size_t i = nv; i < n; ++i) x[i] *= s;
}

void avx2_rotate(double c, double s, double* x, double* y, std::size_t n) {
  const __m256d cv = _mm256_set1_pd(c), sv = _mm256_set1_pd(s);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(cv, xi), _mm256_mul_pd(sv, yi)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(sv, xi), _mm256_mul_pd(cv, yi)));
  }
  for (std::size_t i = nv; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// 8-row panels, 16-column j-tiles: the four ymm C accumulators for a
// tile stay in registers across the whole panel, so each C element is
// loaded/stored once per panel instead of once per row. The n % 16 tail
// runs 4-wide with one accumulator, and only the n % 4 tail is scalar.
// Row order per element stays ascending, contributions stay vmul+vadd
// with the a[r,i]==0 skip — bitwise identical to scalar_atb_update.
void avx2_atb_update(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t p, std::size_t n) {
  constexpr std::size_t kRowPanel = 8;
  const std::size_t n16 = n - n % 16;
  const std::size_t n4 = n - n % 4;
  for (std::size_t lo = 0; lo < rows; lo += kRowPanel) {
    const std::size_t panel = (lo + kRowPanel <= rows) ? kRowPanel : rows - lo;
    for (std::size_t i = 0; i < p; ++i) {
      double ai[kRowPanel];
      for (std::size_t r = 0; r < panel; ++r) ai[r] = a[(lo + r) * p + i];
      double* crow = c + i * n;
      std::size_t j = 0;
      for (; j < n16; j += 16) {
        __m256d c0 = _mm256_loadu_pd(crow + j);
        __m256d c1 = _mm256_loadu_pd(crow + j + 4);
        __m256d c2 = _mm256_loadu_pd(crow + j + 8);
        __m256d c3 = _mm256_loadu_pd(crow + j + 12);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m256d av = _mm256_set1_pd(ai[r]);
          const double* brow = b + (lo + r) * n + j;
          c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
          c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
          c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 8)));
          c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 12)));
        }
        _mm256_storeu_pd(crow + j, c0);
        _mm256_storeu_pd(crow + j + 4, c1);
        _mm256_storeu_pd(crow + j + 8, c2);
        _mm256_storeu_pd(crow + j + 12, c3);
      }
      for (; j < n4; j += 4) {
        __m256d c0 = _mm256_loadu_pd(crow + j);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m256d av = _mm256_set1_pd(ai[r]);
          c0 = _mm256_add_pd(
              c0, _mm256_mul_pd(av, _mm256_loadu_pd(b + (lo + r) * n + j)));
        }
        _mm256_storeu_pd(crow + j, c0);
      }
      for (; j < n; ++j) {
        double acc = crow[j];
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          acc += ai[r] * b[(lo + r) * n + j];
        }
        crow[j] = acc;
      }
    }
  }
}

void avx2_ab_row(const double* arow, const double* b, double* crow,
                 std::size_t k, std::size_t n) {
  // 16-wide j-tiles with the output held in registers across all k
  // stored rows (q ascending per element, vmul+vadd, zero rows skipped).
  const std::size_t n16 = n - n % 16;
  std::size_t j = 0;
  for (; j < n16; j += 16) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    __m256d c2 = _mm256_loadu_pd(crow + j + 8);
    __m256d c3 = _mm256_loadu_pd(crow + j + 12);
    for (std::size_t q = 0; q < k; ++q) {
      const double aq = arow[q];
      if (aq == 0.0) continue;
      const __m256d av = _mm256_set1_pd(aq);
      const double* brow = b + q * n + j;
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 8)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 12)));
    }
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
    _mm256_storeu_pd(crow + j + 8, c2);
    _mm256_storeu_pd(crow + j + 12, c3);
  }
  for (; j < n; ++j) {
    double acc = crow[j];
    for (std::size_t q = 0; q < k; ++q) {
      const double aq = arow[q];
      if (aq == 0.0) continue;
      acc += aq * b[q * n + j];
    }
    crow[j] = acc;
  }
}

// Columns [0, 4W) of one output row of a columns_tile: W ymm
// accumulators held in registers across all n terms (c ascending from
// +0.0, vmul+vadd), then one store. `v` and `orow` are already offset to
// the block's first column.
template <std::size_t W>
void columns_tile_block(const double* arow, std::size_t n, const double* v,
                        std::size_t ldv, double* orow) {
  // Fully unrolled w loops keep acc[] out of memory.
  __m256d acc[W];
#pragma GCC unroll 8
  for (std::size_t w = 0; w < W; ++w) acc[w] = _mm256_setzero_pd();
  for (std::size_t c = 0; c < n; ++c) {
    const __m256d av = _mm256_broadcast_sd(arow + c);
    const double* vrow = v + c * ldv;
#pragma GCC unroll 8
    for (std::size_t w = 0; w < W; ++w)
      acc[w] = _mm256_add_pd(
          acc[w], _mm256_mul_pd(av, _mm256_loadu_pd(vrow + 4 * w)));
  }
#pragma GCC unroll 8
  for (std::size_t w = 0; w < W; ++w) _mm256_storeu_pd(orow + 4 * w, acc[w]);
}

void avx2_columns_tile(const double* a, std::size_t rows, std::size_t n,
                       const double* v, std::size_t ldv, std::size_t r,
                       double* out) {
  // Blocks of up to eight ymm accumulators (32 columns of U), so a row
  // of width r <= 32 — the usual retained rank — reads its n
  // coefficients once; the r % 4 tail runs the same chain in scalar.
  constexpr std::size_t kMaxBlock = 8;
  using Block = void (*)(const double*, std::size_t, const double*,
                         std::size_t, double*);
  static constexpr Block kRemainder[kMaxBlock] = {
      nullptr,
      columns_tile_block<1>,
      columns_tile_block<2>,
      columns_tile_block<3>,
      columns_tile_block<4>,
      columns_tile_block<5>,
      columns_tile_block<6>,
      columns_tile_block<7>,
  };
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * n;
    double* orow = out + i * r;
    std::size_t j = 0;
    for (; j + 4 * kMaxBlock <= r; j += 4 * kMaxBlock)
      columns_tile_block<kMaxBlock>(arow, n, v + j, ldv, orow + j);
    const std::size_t w = (r - j) / 4;
    if (w > 0) kRemainder[w](arow, n, v + j, ldv, orow + j);
    for (j += 4 * w; j < r; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < n; ++c) acc += arow[c] * v[c * ldv + j];
      orow[j] = acc;
    }
  }
}

// Four points per iteration, each lane the exact chain of tracer_point.
// The upwind side is a select between the two products (an ordered
// greater-than, so 0, -0 and NaN velocities take the second product, as
// the scalar branch does), divided once after the select. The 0.0 +
// turns a -0 term into +0, as in the scalar code. -adv + κh·lap is
// κh·lap - adv: the same value, and the same NaN sign as the compiled
// scalar code (which emits the subtraction too).
void avx2_tracer_run(const double* f, const double* u, const double* v,
                     std::size_t n, const TracerLevel& k, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d dx = _mm256_set1_pd(k.dx), dy = _mm256_set1_pd(k.dy);
  const __m256d dx2 = _mm256_set1_pd(k.dx2), dy2 = _mm256_set1_pd(k.dy2);
  const __m256d kh = _mm256_set1_pd(k.kappa_h);
  const __m256d kv = _mm256_set1_pd(k.kappa_v);
  const __m256d dzu2 = _mm256_set1_pd(k.dz_up2);
  const __m256d dzd2 = _mm256_set1_pd(k.dz_dn2);
  const __m256d dt = _mm256_set1_pd(k.dt);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const double* p = f + i;
    const __m256d fc = _mm256_loadu_pd(p);
    const __m256d fw = _mm256_loadu_pd(p - 1);
    const __m256d fe = _mm256_loadu_pd(p + 1);
    const __m256d fs = _mm256_loadu_pd(p - k.row);
    const __m256d fn = _mm256_loadu_pd(p + k.row);
    const __m256d uu = _mm256_loadu_pd(u + i);
    const __m256d vv = _mm256_loadu_pd(v + i);
    const __m256d ax = _mm256_blendv_pd(
        _mm256_mul_pd(uu, _mm256_sub_pd(fe, fc)),
        _mm256_mul_pd(uu, _mm256_sub_pd(fc, fw)),
        _mm256_cmp_pd(uu, zero, _CMP_GT_OQ));
    const __m256d ay = _mm256_blendv_pd(
        _mm256_mul_pd(vv, _mm256_sub_pd(fn, fc)),
        _mm256_mul_pd(vv, _mm256_sub_pd(fc, fs)),
        _mm256_cmp_pd(vv, zero, _CMP_GT_OQ));
    const __m256d adv = _mm256_add_pd(
        _mm256_add_pd(zero, _mm256_div_pd(ax, dx)), _mm256_div_pd(ay, dy));
    const __m256d fc2 = _mm256_mul_pd(two, fc);
    const __m256d lap = _mm256_add_pd(
        _mm256_div_pd(_mm256_add_pd(_mm256_sub_pd(fe, fc2), fw), dx2),
        _mm256_div_pd(_mm256_add_pd(_mm256_sub_pd(fn, fc2), fs), dy2));
    const __m256d tr = _mm256_sub_pd(_mm256_mul_pd(kh, lap), adv);
    __m256d vd = zero;
    if (k.vertical) {
      const __m256d fu = _mm256_loadu_pd(p + k.up);
      const __m256d fd = _mm256_loadu_pd(p + k.dn);
      vd = _mm256_mul_pd(
          kv, _mm256_sub_pd(_mm256_div_pd(_mm256_sub_pd(fd, fc), dzd2),
                            _mm256_div_pd(_mm256_sub_pd(fc, fu), dzu2)));
    }
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(fc, _mm256_mul_pd(dt, _mm256_add_pd(tr, vd))));
  }
  for (std::size_t i = nv; i < n; ++i) out[i] = tracer_point(f, u, v, i, k);
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = {
      avx2_dot,    avx2_sumsq,      avx2_dot_block, avx2_pair_dots,
      avx2_axpy,   avx2_scale,      avx2_rotate,    avx2_atb_update,
      avx2_ab_row, avx2_columns_tile, avx2_tracer_run,
  };
  return table;
}

#else  // !(__AVX2__ && __FMA__)

const KernelTable& avx2_table() { return scalar_table(); }

#endif

}  // namespace essex::la::simd::detail
