// Unit + property tests: acoustics substrate (sound speed, slices, TL
// solver, ensemble statistics, coupled covariance, climate task grid).
#include <gtest/gtest.h>

#include <cmath>

#include "acoustics/ensemble.hpp"
#include "acoustics/slice.hpp"
#include "acoustics/sound_speed.hpp"
#include "acoustics/tl_solver.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "ocean/monterey.hpp"

namespace essex::acoustics {
namespace {

// ---- sound speed ------------------------------------------------------------

TEST(SoundSpeed, ReferenceValueAtStandardConditions) {
  // Hand-summed Mackenzie (1981) terms at T=10°C, S=35, D=1000 m:
  // 1448.96 + 45.91 − 5.304 + 0.2374 + 0 + 16.30 + 0.1675 − 0 − 0.00714
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 1000.0), 1506.264, 0.01);
  // Surface value at the same T/S: ≈ 1489.8 m/s (standard check).
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 0.0), 1489.8, 0.1);
}

TEST(SoundSpeed, IncreasesWithTemperatureSalinityDepth) {
  const double base = mackenzie_sound_speed(10, 34, 50);
  EXPECT_GT(mackenzie_sound_speed(14, 34, 50), base);
  EXPECT_GT(mackenzie_sound_speed(10, 36, 50), base);
  EXPECT_GT(mackenzie_sound_speed(10, 34, 500), base);
}

TEST(SoundSpeed, ClampsOutOfRangeInputs) {
  // Must not produce wild values for unphysical inputs.
  const double c = mackenzie_sound_speed(-40, 5, -100);
  EXPECT_GT(c, 1400);
  EXPECT_LT(c, 1600);
}

TEST(SoundSpeed, PlausibleRangeOverOceanConditions) {
  for (double t = 0; t <= 25; t += 5)
    for (double s = 30; s <= 36; s += 2)
      for (double d = 0; d <= 4000; d += 1000) {
        const double c = mackenzie_sound_speed(t, s, d);
        EXPECT_GT(c, 1400);
        EXPECT_LT(c, 1620);
      }
}

TEST(Thorp, AttenuationGrowsWithFrequency) {
  const double a1 = thorp_attenuation_db_per_km(1.0);
  const double a10 = thorp_attenuation_db_per_km(10.0);
  EXPECT_GT(a10, a1);
  // ~1 kHz attenuation is well below 0.2 dB/km.
  EXPECT_LT(a1, 0.2);
  EXPECT_GT(a1, 0.0);
}

// ---- slices ------------------------------------------------------------------

ocean::Scenario scenario() { return ocean::make_monterey_scenario(24, 20, 5); }

SliceGeometry cross_shore_slice(const ocean::Grid3D& grid) {
  SliceGeometry g;
  g.x0_km = 2.0;
  g.y0_km = grid.dy_km() * grid.ny() / 2.0;
  g.x1_km = grid.dx_km() * grid.nx() * 0.7;
  g.y1_km = g.y0_km;
  g.n_range = 40;
  g.n_depth = 24;
  g.max_depth_m = 180.0;
  return g;
}

TEST(Slice, GeometryHelpers) {
  SliceGeometry g;
  g.x0_km = 0;
  g.y0_km = 0;
  g.x1_km = 3;
  g.y1_km = 4;
  g.n_range = 11;
  g.n_depth = 5;
  g.max_depth_m = 100;
  EXPECT_DOUBLE_EQ(g.length_km(), 5.0);
  EXPECT_DOUBLE_EQ(g.range_step_m(), 500.0);
  EXPECT_DOUBLE_EQ(g.depth_step_m(), 25.0);
}

TEST(Slice, ExtractionProducesPhysicalSoundSpeeds) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  for (double c : s.c) {
    EXPECT_GT(c, 1430);
    EXPECT_LT(c, 1560);
  }
}

TEST(Slice, WarmSurfaceGivesFasterSoundThanThermocline) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  // In the offshore warm pool the surface is faster than mid-depth.
  EXPECT_GT(s.at(2, 0), s.at(2, s.geometry.n_depth / 2));
}

TEST(Slice, TemperatureCarriedAlongside) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  // Row-major range × depth: range 0 spans t[0 .. n_depth-1].
  EXPECT_GT(s.t.front(), s.t[s.geometry.n_depth - 1]);
}

TEST(Slice, ValidatesGeometry) {
  auto sc = scenario();
  SliceGeometry bad = cross_shore_slice(sc.grid);
  bad.x1_km = bad.x0_km;
  bad.y1_km = bad.y0_km;
  EXPECT_THROW(extract_slice(sc.grid, sc.initial, bad), PreconditionError);
  SliceGeometry tiny = cross_shore_slice(sc.grid);
  tiny.n_range = 1;
  EXPECT_THROW(extract_slice(sc.grid, sc.initial, tiny), PreconditionError);
}

// ---- TL solver ------------------------------------------------------------------

TEST(TlSolver, LossIncreasesWithRangeOnAverage) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.source_depth_m = 40;
  TLField tl = compute_tl(s, p);
  auto column_mean = [&](std::size_t ir) {
    double sum = 0;
    for (std::size_t iz = 0; iz < tl.geometry.n_depth; ++iz)
      sum += tl.at(ir, iz);
    return sum / static_cast<double>(tl.geometry.n_depth);
  };
  const double near = column_mean(3);
  const double far = column_mean(tl.geometry.n_range - 2);
  EXPECT_GT(far, near + 3.0);
}

TEST(TlSolver, HigherBottomLossRaisesTl) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams lossy;
  lossy.bottom_loss_db = 12.0;
  TLParams soft;
  soft.bottom_loss_db = 1.0;
  TLField tl_lossy = compute_tl(s, lossy);
  TLField tl_soft = compute_tl(s, soft);
  double mean_lossy = 0, mean_soft = 0;
  for (std::size_t i = 0; i < tl_lossy.tl.size(); ++i) {
    mean_lossy += tl_lossy.tl[i];
    mean_soft += tl_soft.tl[i];
  }
  EXPECT_GT(mean_lossy, mean_soft);
}

TEST(TlSolver, TlBoundedByConfiguredMax) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.max_tl_db = 100.0;
  TLField tl = compute_tl(s, p);
  for (double v : tl.tl) {
    EXPECT_LE(v, 100.0 + 1e-9);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TlSolver, ValidatesParams) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.n_rays = 2;
  EXPECT_THROW(compute_tl(s, p), PreconditionError);
  p = {};
  p.source_depth_m = 1e9;
  EXPECT_THROW(compute_tl(s, p), PreconditionError);
}

TEST(TlSolver, BroadbandAveragesIntensity) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  TLField bb = compute_broadband_tl(s, p, {0.5, 1.0, 2.0});
  TLField f1 = compute_tl(s, [&] {
    TLParams q = p;
    q.frequency_khz = 0.5;
    return q;
  }());
  // Broadband is a smooth average: bounded by the per-frequency extremes
  // wherever the field is insonified.
  EXPECT_EQ(bb.tl.size(), f1.tl.size());
  EXPECT_THROW(compute_broadband_tl(s, p, {}), PreconditionError);
}

TEST(TlSolver, FieldConversionTransposesToRangeDepth) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLField tl = compute_tl(s, {});
  Field2D f = tl.to_field();
  EXPECT_EQ(f.nx, tl.geometry.n_range);
  EXPECT_EQ(f.ny, tl.geometry.n_depth);
  EXPECT_DOUBLE_EQ(f.at(5, 3), tl.at(5, 3));
}

// ---- ensembles ----------------------------------------------------------------------

std::vector<la::Vector> perturbed_realizations(const ocean::Scenario& sc,
                                               std::size_t n) {
  Rng rng(42);
  std::vector<la::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    ocean::OceanState s = sc.initial;
    // Perturb the thermocline strength: realistic T uncertainty.
    const double amp = 0.5 * rng.normal();
    for (std::size_t iz = 0; iz < sc.grid.nz(); ++iz) {
      const double w = std::exp(-sc.grid.depths()[iz] / 60.0);
      for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
        for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
          s.temperature[sc.grid.index(ix, iy, iz)] += amp * w;
    }
    out.push_back(s.pack());
  }
  return out;
}

TEST(TlEnsemble, StatsHaveCorrectShapeAndNonNegativeStd) {
  auto sc = scenario();
  auto reals = perturbed_realizations(sc, 8);
  SliceGeometry geom = cross_shore_slice(sc.grid);
  TLParams p;
  TLEnsembleStats stats = tl_ensemble_stats(sc.grid, reals, geom, p);
  EXPECT_EQ(stats.n_members, 8u);
  EXPECT_EQ(stats.mean_tl.size(), geom.n_range * geom.n_depth);
  for (double sd : stats.std_tl) EXPECT_GE(sd, 0.0);
  // Ocean uncertainty must induce *some* acoustic uncertainty.
  double max_sd = 0;
  for (double sd : stats.std_tl) max_sd = std::max(max_sd, sd);
  EXPECT_GT(max_sd, 0.01);
}

TEST(TlEnsemble, IdenticalMembersGiveZeroStd) {
  auto sc = scenario();
  std::vector<la::Vector> reals(4, sc.initial.pack());
  TLEnsembleStats stats = tl_ensemble_stats(
      sc.grid, reals, cross_shore_slice(sc.grid), {});
  for (double sd : stats.std_tl) EXPECT_NEAR(sd, 0.0, 1e-9);
}

TEST(TlEnsemble, RequiresTwoMembers) {
  auto sc = scenario();
  std::vector<la::Vector> one(1, sc.initial.pack());
  EXPECT_THROW(
      tl_ensemble_stats(sc.grid, one, cross_shore_slice(sc.grid), {}),
      PreconditionError);
}

TEST(CoupledCovariance, CapturesPhysicalAcousticalCoupling) {
  auto sc = scenario();
  auto reals = perturbed_realizations(sc, 10);
  SliceGeometry geom = cross_shore_slice(sc.grid);
  CoupledCovariance cov = coupled_covariance(sc.grid, reals, geom, {}, 6);
  EXPECT_GT(cov.modes.rank(), 0u);
  EXPECT_LE(cov.modes.rank(), 6u);
  EXPECT_EQ(cov.modes.dim(), 2 * geom.n_range * geom.n_depth);
  EXPECT_GT(cov.t_scale, 0.0);
  EXPECT_GT(cov.tl_scale, 0.0);
  // Temperature shifts move TL → off-diagonal coupling is nonzero.
  EXPECT_GT(cov.coupling_strength(), 1e-4);
}

TEST(CoupledCovariance, UncoupledForIdenticalAcoustics) {
  // If TL never varies (identical members), coupling must vanish.
  auto sc = scenario();
  std::vector<la::Vector> reals(3, sc.initial.pack());
  // Identical members leave only float dust (the non-dimensionalisation
  // divides by a near-zero spread); coupling must be negligible compared
  // with the >1e-2 strengths of genuinely coupled ensembles.
  CoupledCovariance cov = coupled_covariance(
      sc.grid, reals, cross_shore_slice(sc.grid), {}, 4);
  EXPECT_NEAR(cov.coupling_strength(), 0.0, 1e-3);
}

TEST(AcousticClimate, TaskGridEnumeratesFullCross) {
  auto sc = scenario();
  auto tasks = acoustic_climate_tasks(sc.grid, 5, {10.0, 40.0},
                                      {0.5, 1.0, 2.0});
  EXPECT_EQ(tasks.size(), 5u * 2u * 3u);
  // Slices stacked at distinct latitudes.
  EXPECT_NE(tasks.front().slice.y0_km, tasks.back().slice.y0_km);
  EXPECT_THROW(acoustic_climate_tasks(sc.grid, 0, {10.0}, {1.0}),
               PreconditionError);
}

TEST(AcousticClimate, TasksAreComputable) {
  auto sc = scenario();
  auto tasks = acoustic_climate_tasks(sc.grid, 1, {30.0}, {1.0});
  ASSERT_EQ(tasks.size(), 1u);
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial, tasks[0].slice);
  TLParams p;
  p.source_depth_m = tasks[0].source_depth_m;
  p.frequency_khz = tasks[0].frequency_khz;
  EXPECT_NO_THROW(compute_tl(s, p));
}

}  // namespace
}  // namespace essex::acoustics
