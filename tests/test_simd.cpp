// The SIMD determinism contract, enforced bit by bit (DESIGN.md §13).
//
// Every kernel in the dispatch table must be BITWISE identical to the
// canonical scalar reference on every tier the hardware can run —
// approximate agreement is a failure. The properties quantify over
// essex::testkit generators (tall-skinny shapes, zero-heavy panels,
// rank-deficient and tied-spectrum ensembles) and odd lengths so the
// vector tails, the 8-row panels and the 16-wide register tiles all get
// exercised. Tier forcing uses simd::ScopedLevel, the in-process face
// of the ESSEX_SIMD_LEVEL override; CI additionally replays the
// determinism label under each ESSEX_SIMD_LEVEL value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "esse/differ.hpp"
#include "linalg/arena.hpp"
#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/simd_impl.hpp"
#include "linalg/svd.hpp"
#include "testkit/generators.hpp"

namespace essex::la {
namespace {

namespace tk = essex::testkit;

std::vector<simd::Level> all_levels() {
  return {simd::Level::kScalar, simd::Level::kAvx2};
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- dispatch surface --------------------------------------------------

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const simd::Level level : all_levels()) {
    const auto parsed = simd::parse_level(simd::level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  EXPECT_FALSE(simd::parse_level("AVX2").has_value());
}

TEST(SimdDispatch, ActiveLevelNeverExceedsHardware) {
  EXPECT_LE(simd::active_level(), simd::max_supported_level());
  for (const simd::Level level : all_levels()) {
    simd::ScopedLevel force(level);
    EXPECT_LE(simd::active_level(), simd::max_supported_level());
    EXPECT_LE(simd::active_level(), level);
  }
}

TEST(SimdDispatch, ScopedLevelForcesAndRestores) {
  const simd::Level before = simd::active_level();
  {
    simd::ScopedLevel outer(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    {
      simd::ScopedLevel inner(simd::Level::kAvx2);
      EXPECT_EQ(simd::active_level(),
                std::min(simd::Level::kAvx2, simd::max_supported_level()));
    }
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), before);
}

// ---- reduction kernels: canonical shape on every tier ------------------

TEST(SimdExactness, ReductionKernelsMatchScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd reductions == scalar reference";
  cfg.cases = 60;
  // Odd row counts stress the %4 tails; 2..10 columns stress dot_block's
  // partial fan-in.
  const auto gen = tk::gen_matrix(1, 301, 2, 10);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t m = mat.rows(), nc = mat.cols();
    std::vector<Vector> cols(nc);
    for (std::size_t j = 0; j < nc; ++j) cols[j] = mat.col(j);
    const double* x = cols[0].data();
    const double* y = cols[1].data();

    const double ref_dot = simd::detail::scalar_dot(x, y, m);
    const double ref_ss = simd::detail::scalar_sumsq(x, m);
    double ra, rb, rg;
    simd::detail::scalar_pair_dots(x, y, m, &ra, &rb, &rg);
    // pair_dots must equal its three stand-alone reductions.
    if (!bits_equal(ra, ref_ss) || !bits_equal(rg, ref_dot)) return false;

    for (const simd::Level level : all_levels()) {
      const auto& k = simd::kernels_for(level);
      if (!bits_equal(k.dot(x, y, m), ref_dot)) return false;
      if (!bits_equal(k.sumsq(x, m), ref_ss)) return false;
      double a, b, g;
      k.pair_dots(x, y, m, &a, &b, &g);
      if (!bits_equal(a, ra) || !bits_equal(b, rb) || !bits_equal(g, rg))
        return false;

      // dot_block: every fused lane equals the stand-alone dot.
      const double* ptrs[simd::kDotBlockCols] = {};
      const std::size_t width = std::min(nc, simd::kDotBlockCols);
      for (std::size_t w = 0; w < width; ++w) ptrs[w] = cols[w].data();
      double out[simd::kDotBlockCols];
      k.dot_block(ptrs, width, x, m, out);
      for (std::size_t w = 0; w < width; ++w) {
        if (!bits_equal(out[w], simd::detail::scalar_dot(ptrs[w], x, m)))
          return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- elementwise kernels: per-element mul+add on every tier ------------

TEST(SimdExactness, ElementwiseKernelsMatchScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd elementwise == scalar reference";
  cfg.cases = 60;
  const auto gen = tk::gen_matrix(1, 257, 2, 2);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t m = mat.rows();
    const Vector x = mat.col(0), y = mat.col(1);
    const double alpha = x[0] * 0.37 - y[m - 1];
    const double c = 0.6, s = 0.8;

    Vector ref_y = y, ref_x = x;
    simd::detail::scalar_axpy(alpha, x.data(), ref_y.data(), m);
    simd::detail::scalar_scale(ref_x.data(), alpha, m);
    Vector ref_rx = x, ref_ry = y;
    simd::detail::scalar_rotate(c, s, ref_rx.data(), ref_ry.data(), m);

    for (const simd::Level level : all_levels()) {
      const auto& k = simd::kernels_for(level);
      Vector ty = y;
      k.axpy(alpha, x.data(), ty.data(), m);
      if (!bits_equal(ty, ref_y)) return false;
      Vector tx = x;
      k.scale(tx.data(), alpha, m);
      if (!bits_equal(tx, ref_x)) return false;
      Vector rx = x, ry = y;
      k.rotate(c, s, rx.data(), ry.data(), m);
      if (!bits_equal(rx, ref_rx) || !bits_equal(ry, ref_ry)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- panel kernels: register tiling must not change a single bit -------

struct PanelCase {
  std::size_t rows = 1, p = 1, n = 1;
  std::vector<double> a, b, c;  // rows×p, rows×n, p×n (initial C)
};

tk::Gen<PanelCase> gen_panel() {
  tk::Gen<PanelCase> g;
  g.create = [](Rng& rng) {
    PanelCase pc;
    // Crosses the 8-row panel and 16-wide j-tile boundaries, with tails.
    pc.rows = 1 + rng.uniform_index(41);
    pc.p = 1 + rng.uniform_index(10);
    pc.n = 1 + rng.uniform_index(37);
    pc.a.resize(pc.rows * pc.p);
    pc.b.resize(pc.rows * pc.n);
    pc.c.resize(pc.p * pc.n);
    // ~1/5 exact zeros in A so the zero-skip path is exercised.
    for (auto& v : pc.a) v = rng.uniform_index(5) == 0 ? 0.0 : rng.normal();
    for (auto& v : pc.b) v = rng.normal();
    for (auto& v : pc.c) v = rng.normal();
    return pc;
  };
  return g;
}

TEST(SimdExactness, AtbUpdateMatchesScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd atb_update == scalar triple loop";
  cfg.cases = 80;
  const auto r = tk::check(cfg, gen_panel(), [&](const PanelCase& pc) {
    std::vector<double> ref = pc.c;
    simd::detail::scalar_atb_update(pc.a.data(), pc.b.data(), ref.data(),
                                    pc.rows, pc.p, pc.n);
    for (const simd::Level level : all_levels()) {
      std::vector<double> out = pc.c;
      simd::kernels_for(level).atb_update(pc.a.data(), pc.b.data(),
                                          out.data(), pc.rows, pc.p, pc.n);
      if (!bits_equal(out, ref)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, AbRowMatchesScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd ab_row == scalar loop";
  cfg.cases = 80;
  const auto r = tk::check(cfg, gen_panel(), [&](const PanelCase& pc) {
    // ab_row: one output row of C = A·B, arow = first row of a (length p
    // plays the k role), b reinterpreted as p×n via its leading rows.
    const std::size_t k = pc.p, n = pc.n;
    std::vector<double> brows(k * n);
    for (std::size_t i = 0; i < brows.size(); ++i)
      brows[i] = pc.b[i % pc.b.size()];
    std::vector<double> ref_row(pc.c.begin(),
                                pc.c.begin() + static_cast<long>(n));
    simd::detail::scalar_ab_row(pc.a.data(), brows.data(), ref_row.data(), k,
                                n);
    for (const simd::Level level : all_levels()) {
      std::vector<double> row(pc.c.begin(),
                              pc.c.begin() + static_cast<long>(n));
      simd::kernels_for(level).ab_row(pc.a.data(), brows.data(), row.data(),
                                      k, n);
      if (!bits_equal(row, ref_row)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- U = A·V row tiles: register blocking must not change a bit --------

struct TileCase {
  std::size_t rows = 1, n = 1, r = 1, ldv = 1;
  std::vector<double> a;  // rows×n coefficients
  std::vector<double> v;  // n×ldv
};

tk::Gen<TileCase> gen_tile() {
  tk::Gen<TileCase> g;
  g.create = [](Rng& rng) {
    TileCase tc;
    // n = 1 included; r across the r % 16, r % 4 and 32-wide block
    // tails; row counts that are not tile multiples.
    tc.rows = 1 + rng.uniform_index(300);
    tc.n = 1 + rng.uniform_index(12);
    tc.r = 1 + rng.uniform_index(41);
    tc.ldv = tc.r + rng.uniform_index(3);
    tc.a.resize(tc.rows * tc.n);
    for (auto& x : tc.a) x = rng.uniform_index(6) == 0 ? 0.0 : rng.normal();
    tc.v.resize(tc.n * tc.ldv);
    for (auto& x : tc.v) x = rng.normal();
    return tc;
  };
  return g;
}

TEST(SimdExactness, ColumnsTileMatchesReferenceLoopBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd columns_tile == reference row-tile loop";
  cfg.cases = 120;
  const auto r = tk::check(cfg, gen_tile(), [&](const TileCase& tc) {
    // Per element: c ascending from 0.0, multiply then add.
    std::vector<double> ref(tc.rows * tc.r);
    for (std::size_t i = 0; i < tc.rows; ++i) {
      for (std::size_t j = 0; j < tc.r; ++j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < tc.n; ++c)
          acc += tc.a[i * tc.n + c] * tc.v[c * tc.ldv + j];
        ref[i * tc.r + j] = acc;
      }
    }
    for (const simd::Level level : all_levels()) {
      std::vector<double> out(tc.rows * tc.r, -1.0);
      simd::kernels_for(level).columns_tile(tc.a.data(), tc.rows, tc.n,
                                            tc.v.data(), tc.ldv, tc.r,
                                            out.data());
      if (!bits_equal(out, ref)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- ocean tracer stencil ---------------------------------------------

// One run of a tracer level: a (3 levels × 3 rows × width) block whose
// middle row holds the run, so every neighbour read stays in bounds.
struct TracerCase {
  std::size_t n = 1;      // run length
  std::size_t width = 3;  // n + 2
  std::size_t nz = 3;     // 1 for the one-level mode
  std::size_t iz = 0;     // level of the run (0 = top, nz − 1 = bottom)
  std::vector<double> f, u, v;
  simd::TracerLevel k{};
  std::size_t first() const { return iz * 3 * width + width + 1; }
};

// A velocity that is 0, −0, NaN or tiny a third of the time: the upwind
// select must send each to the same side as the scalar branch.
double draw_velocity(Rng& rng) {
  switch (rng.uniform_index(9)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::nan("");
    case 3: return rng.uniform_index(2) == 0 ? 4.9e-324 : -4.9e-324;
    default: return 0.5 * rng.normal();
  }
}

tk::Gen<TracerCase> gen_tracer() {
  tk::Gen<TracerCase> g;
  g.create = [](Rng& rng) {
    TracerCase tc;
    tc.n = 1 + rng.uniform_index(21);  // 1, 4k±1, 4k, across the tails
    tc.width = tc.n + 2;
    tc.nz = rng.uniform_index(4) == 0 ? 1 : 3;
    tc.iz = tc.nz == 1 ? 0 : rng.uniform_index(3);
    const std::size_t points = 3 * 3 * tc.width;
    // A field of signed zeros makes every difference ±0, so the 0.0 +
    // term and the signs of zero products decide the bits.
    const bool zero_field = rng.uniform_index(4) == 0;
    for (std::size_t i = 0; i < points; ++i) {
      const double zero = rng.uniform_index(2) == 0 ? 0.0 : -0.0;
      tc.f.push_back(zero_field ? zero : 12.0 + 3.0 * rng.normal());
      tc.u.push_back(draw_velocity(rng));
      tc.v.push_back(draw_velocity(rng));
    }
    const auto level = static_cast<std::ptrdiff_t>(3 * tc.width);
    simd::TracerLevel& k = tc.k;
    k.row = static_cast<std::ptrdiff_t>(tc.width);
    k.vertical = tc.nz > 1;
    k.up = tc.nz > 1 && tc.iz > 0 ? -level : 0;
    k.dn = tc.nz > 1 && tc.iz + 1 < tc.nz ? level : 0;
    k.dx = 2500.0 + 100.0 * static_cast<double>(rng.uniform_index(10));
    k.dy = 3000.0;
    k.dx2 = k.dx * k.dx;
    k.dy2 = k.dy * k.dy;
    k.kappa_h = 50.0;
    k.kappa_v = 1e-4;
    k.dz_up2 = k.up != 0 ? 40.0 * 40.0 : 1.0;
    k.dz_dn2 = k.dn != 0 ? 60.0 * 60.0 : 1.0;
    k.dt = 1234.5;
    return tc;
  };
  return g;
}

TEST(SimdExactness, TracerRunMatchesScalarBitwise) {
  // The model-level check against the historical transport() path is
  // Determinism.TracerStepMatchesTheScalarTransportPath; here every tier
  // must match the scalar tier point for point, NaNs included.
  tk::PropConfig cfg;
  cfg.name = "simd tracer_run == scalar reference";
  cfg.cases = 300;
  const auto r = tk::check(cfg, gen_tracer(), [&](const TracerCase& tc) {
    const std::size_t i0 = tc.first();
    std::vector<double> ref(tc.n, -1.0);
    simd::detail::scalar_tracer_run(tc.f.data() + i0, tc.u.data() + i0,
                                    tc.v.data() + i0, tc.n, tc.k,
                                    ref.data());
    for (std::size_t i = 0; i < tc.n; ++i) {
      // The scalar tier is the per-point formula, point by point.
      const double p = simd::detail::tracer_point(
          tc.f.data() + i0, tc.u.data() + i0, tc.v.data() + i0, i, tc.k);
      if (!bits_equal(p, ref[i])) return false;
    }
    for (const simd::Level level : all_levels()) {
      std::vector<double> out(tc.n, -1.0);
      simd::kernels_for(level).tracer_run(tc.f.data() + i0, tc.u.data() + i0,
                                          tc.v.data() + i0, tc.n, tc.k,
                                          out.data());
      if (!bits_equal(out, ref)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, TracerRunUpwindTakesTheScalarBranchSide) {
  // The first point of a run gets an infinite west and south neighbour,
  // so the upwind product on that side is 0·∞ = NaN for a zero velocity.
  // The scalar branch sends u = +0, −0 (and NaN) to the other side: the
  // advection term stays finite and the Laplacian's +∞ is the result.
  // u = ±1 give +∞ too; only a NaN velocity gives NaN. The first point
  // is a vector lane in a 4-point run and the scalar tail in a 1-point
  // run.
  const std::size_t width = 6;
  simd::TracerLevel k{};
  k.row = width;
  k.dx = k.dy = k.dx2 = k.dy2 = k.dz_up2 = k.dz_dn2 = 1.0;
  k.kappa_h = 1.0;
  k.dt = 1.0;
  const std::size_t i0 = width + 1;  // row 1, column 1
  const double inf = std::numeric_limits<double>::infinity();
  for (const double vel : {1.0, -1.0, 0.0, -0.0, std::nan("")}) {
    std::vector<double> f(3 * width, 1.0), u(f.size(), 0.5),
        v(f.size(), 0.5);
    f[i0 - 1] = f[i0 - width] = inf;
    u[i0] = v[i0] = vel;
    for (const std::size_t n : {std::size_t{4}, std::size_t{1}}) {
      for (const simd::Level level : all_levels()) {
        double out[4];
        simd::kernels_for(level).tracer_run(f.data() + i0, u.data() + i0,
                                            v.data() + i0, n, k, out);
        if (std::isnan(vel)) {
          EXPECT_TRUE(std::isnan(out[0])) << simd::level_name(level);
        } else {
          EXPECT_EQ(out[0], inf) << "velocity " << vel << ", run of " << n
                                 << ", " << simd::level_name(level);
        }
        for (std::size_t i = 1; i < n; ++i)
          EXPECT_TRUE(std::isfinite(out[i])) << simd::level_name(level);
      }
    }
  }
}

TEST(SimdExactness, ColumnsMatmulIdenticalForAnyPoolSplit) {
  // m straddles the 128-row tile and the per-thread split boundaries of
  // pools of 2, 3 and 4 workers; the bytes must not depend on either.
  Rng rng(2024);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t t : {2, 3, 4})
    pools.push_back(std::make_unique<ThreadPool>(t));
  for (const std::size_t m : {1, 2, 7, 127, 128, 129, 255, 257, 384, 385,
                              513, 1031}) {
    for (const std::size_t n : {1, 6}) {
      std::vector<std::vector<double>> store(n, std::vector<double>(m));
      for (auto& col : store)
        for (auto& x : col) x = rng.normal();
      Matrix v(n, 26);
      for (auto& x : v.data()) x = rng.normal();
      const std::vector<ColSpan> cols(store.begin(), store.end());
      for (const std::size_t r : {1, 7, 24}) {
        // The historical U = scale·A·V loop: per element, c ascending
        // from 0.0, the scaled coefficient rounded once, then multiply
        // and add.
        std::vector<double> ref(m * r);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < r; ++j) {
            double acc = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
              const double a = store[c][i] * 0.3;
              acc += a * v(c, j);
            }
            ref[i * r + j] = acc;
          }
        }
        for (const simd::Level level : all_levels()) {
          simd::ScopedLevel force(level);
          const Matrix serial = columns_matmul(cols, v, r, 0.3);
          ASSERT_TRUE(bits_equal(serial.data(), ref))
              << "m=" << m << " n=" << n << " r=" << r;
          for (const auto& pool : pools) {
            const Matrix split = columns_matmul(cols, v, r, 0.3, pool.get());
            ASSERT_TRUE(bits_equal(split.data(), ref))
                << "m=" << m << " n=" << n << " r=" << r
                << " threads=" << pool->thread_count();
          }
        }
      }
    }
  }
}

// ---- canonical column signs: one row-major scan ------------------------

/// The column-by-column sign convention canonicalize_column_signs must
/// reproduce: flip a column when its first entry of largest magnitude is
/// negative.
std::vector<int> reference_column_signs(Matrix& m) {
  std::vector<int> signs(m.cols(), 1);
  for (std::size_t j = 0; j < m.cols(); ++j) {
    double best = 0.0;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (std::fabs(m(i, j)) > best) {
        best = std::fabs(m(i, j));
        best_i = i;
      }
    }
    if (best > 0.0 && m(best_i, j) < 0.0) {
      signs[j] = -1;
      for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) = -m(i, j);
    }
  }
  return signs;
}

TEST(SimdExactness, CanonicalSignsMatchColumnScanBitwise) {
  tk::PropConfig cfg;
  cfg.name = "canonicalize_column_signs == column-by-column scan";
  cfg.cases = 80;
  const auto gen = tk::gen_matrix(1, 60, 1, 30);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    // Quantise so magnitude ties between rows are common, and sprinkle
    // exact zeros of both signs.
    Matrix a = mat;
    for (std::size_t k = 0; k < a.data().size(); ++k) {
      double& x = a.data()[k];
      x = std::round(x * 2.0) / 2.0;
      if (x == 0.0) x = k % 3 == 0 ? -0.0 : 0.0;
    }
    Matrix ref = a;
    const std::vector<int> ref_signs = reference_column_signs(ref);
    const std::vector<int> signs = canonicalize_column_signs(a);
    return signs == ref_signs && bits_equal(a.data(), ref.data());
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, CanonicalSignsEdgeCases) {
  // Ties: the first (lowest-row) entry of largest magnitude decides.
  Matrix ties{{-2.0, 2.0}, {2.0, -2.0}, {1.0, 1.0}};
  EXPECT_EQ(canonicalize_column_signs(ties), (std::vector<int>{-1, 1}));
  EXPECT_TRUE(bits_equal(ties.data(),
                         Matrix{{2.0, 2.0}, {-2.0, -2.0}, {-1.0, 1.0}}.data()));

  // An all-zero column keeps its sign and its bytes, -0.0 included; a
  // flipped column turns -0.0 into +0.0 and back.
  Matrix zeros{{-0.0, -0.0}, {0.0, -3.0}, {-0.0, 1.0}};
  EXPECT_EQ(canonicalize_column_signs(zeros), (std::vector<int>{1, -1}));
  EXPECT_TRUE(
      bits_equal(zeros.data(),
                 Matrix{{-0.0, 0.0}, {0.0, 3.0}, {-0.0, -1.0}}.data()));

  // One row: each column's only entry decides its sign.
  Matrix one{{-1.5, 0.0, 4.0, -0.0}};
  EXPECT_EQ(canonicalize_column_signs(one),
            (std::vector<int>{-1, 1, 1, 1}));
  EXPECT_TRUE(bits_equal(one.data(), Matrix{{1.5, 0.0, 4.0, -0.0}}.data()));
}

// ---- whole-kernel cross-tier identity ----------------------------------

TEST(SimdExactness, MatmulFamilyIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "matmul / matmul_at_b / matvec identical across tiers";
  cfg.cases = 25;
  const auto gen = tk::gen_matrix(1, 150, 1, 12);
  const auto r = tk::check(cfg, gen, [&](const Matrix& a) {
    const Matrix b = a;  // AᵀA and A·(AᵀA) exercise both products
    Matrix ref_atb, ref_ab;
    Vector ref_mv;
    {
      simd::ScopedLevel force(simd::Level::kScalar);
      ref_atb = matmul_at_b(a, b);
      ref_ab = matmul(a, ref_atb);
      ref_mv = matvec(a, Vector(a.cols(), 0.5));
    }
    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      if (!bits_equal(matmul_at_b(a, b).data(), ref_atb.data())) return false;
      if (!bits_equal(matmul(a, ref_atb).data(), ref_ab.data())) return false;
      if (!bits_equal(matvec(a, Vector(a.cols(), 0.5)), ref_mv)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, JacobiSvdIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "one-sided Jacobi SVD identical across tiers";
  cfg.cases = 15;
  // Rank-deficient and tied-spectrum factors are where rotation order
  // sensitivity would surface first.
  tk::SubspaceOpts opts;
  opts.dim_lo = 6;
  opts.dim_hi = 48;
  opts.rank_lo = 2;
  opts.rank_hi = 6;
  opts.allow_rank_deficient = true;
  opts.allow_degenerate = true;
  const auto gen = tk::gen_subspace(opts);
  const auto r = tk::check(cfg, gen, [&](const esse::ErrorSubspace& sub) {
    Matrix a = sub.modes();
    for (std::size_t j = 0; j < a.cols(); ++j)
      for (std::size_t i = 0; i < a.rows(); ++i)
        a(i, j) *= sub.sigmas()[j];
    ThinSvd ref;
    {
      simd::ScopedLevel force(simd::Level::kScalar);
      ref = svd_thin(a, SvdMethod::kOneSidedJacobi);
    }
    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      const ThinSvd got = svd_thin(a, SvdMethod::kOneSidedJacobi);
      if (!bits_equal(got.s, ref.s)) return false;
      if (!bits_equal(got.u.data(), ref.u.data())) return false;
      if (!bits_equal(got.v.data(), ref.v.data())) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, GramBorderRowsMatchPerColumnAppends) {
  tk::PropConfig cfg;
  cfg.name = "gram_append border rows == la::dot";
  cfg.cases = 30;
  const auto gen = tk::gen_matrix(3, 120, 2, 20);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t n = mat.cols();
    std::vector<Vector> store(n);
    for (std::size_t j = 0; j < n; ++j) store[j] = mat.col(j);
    store[n - 1] = store[0];  // exact duplicate: rank-deficient edge
    std::vector<ColSpan> cols(store.begin(), store.end());

    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      for (std::size_t j = 0; j < n; ++j) {
        // Border row j, blocked over kDotBlockCols-wide column groups,
        // entry by entry against the public dot (canonical on every tier).
        Vector row(j);
        gram_append(std::span(cols).first(j), cols[j], row.data());
        for (std::size_t i = 0; i < j; ++i)
          if (!bits_equal(row[i], dot(store[i], store[j]))) return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, DifferSubspaceIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "differ subspace identical across tiers";
  cfg.cases = 10;
  const auto gen = tk::gen_ensemble(8, 64, 4, 12);
  const auto r = tk::check(cfg, gen, [&](const tk::EnsembleCase& ec) {
    auto run = [&](simd::Level level) {
      simd::ScopedLevel force(level);
      esse::Differ differ(ec.central);
      for (std::size_t j = 0; j < ec.members.size(); ++j)
        differ.add_member(j, ec.members[j]);
      return differ.subspace(0.99, 0);
    };
    const esse::ErrorSubspace ref = run(simd::Level::kScalar);
    for (const simd::Level level : all_levels()) {
      const esse::ErrorSubspace got = run(level);
      if (!bits_equal(got.sigmas(), ref.sigmas())) return false;
      if (!bits_equal(got.modes().data(), ref.modes().data())) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- aligned storage ----------------------------------------------------

TEST(ColumnArena, AllocationsAre64ByteAlignedAndZeroed) {
  ColumnArena arena(128);  // tiny slabs force growth
  std::size_t total = 0;
  std::vector<std::span<double>> spans;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u, 1u}) {
    const std::span<double> s = arena.allocate(n);
    ASSERT_EQ(s.size(), n);
    EXPECT_TRUE(is_aligned(s.data(), 64));
    for (const double v : s) EXPECT_EQ(v, 0.0);
    total += n;
    spans.push_back(s);
  }
  EXPECT_EQ(arena.allocated_doubles(), total);
  EXPECT_GT(arena.slab_count(), 1u);  // growth happened
  // Spans survive slab growth: write through old spans, re-read.
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (double& v : spans[i]) v = static_cast<double>(i + 1);
  arena.allocate(4096);  // oversized request → dedicated slab
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (const double v : spans[i]) ASSERT_EQ(v, static_cast<double>(i + 1));
  EXPECT_EQ(arena.allocate(0).size(), 0u);
}

TEST(AlignedStorage, MatrixAndDifferColumnsSitOnCacheLines) {
  const Matrix m(13, 7);
  EXPECT_TRUE(is_aligned(m.data().data(), 64));

  esse::Differ differ(Vector(33, 0.25));
  for (std::size_t j = 0; j < 5; ++j)
    differ.add_member(j, Vector(33, static_cast<double>(j)));
  const esse::AnomalyView v = differ.view();
  ASSERT_TRUE(v.storage != nullptr);
  for (const esse::AnomalyColumn& c : v.columns) {
    EXPECT_EQ(c.anomaly.size(), 33u);
    EXPECT_TRUE(is_aligned(c.anomaly.data(), 64));
  }
}

}  // namespace
}  // namespace essex::la
