// Unit tests: observation operator and synthetic instrument campaigns.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/obs_set.hpp"
#include "obs/instruments.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"

namespace essex::obs {
namespace {

ocean::Scenario scenario() { return ocean::make_monterey_scenario(24, 20, 4); }

// ---- measurement operator ---------------------------------------------------

TEST(ObsOperator, ExactAtGridPoints) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  const std::size_t ix = 4, iy = 5;
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = ix * sc.grid.dx_km();
  ob.y_km = iy * sc.grid.dy_km();
  ob.depth_m = sc.grid.depths()[0];
  ObsOperator h(sc.grid, {ob});
  la::Vector y = h.apply(s);
  EXPECT_NEAR(y[0], s.temperature[sc.grid.index(ix, iy, 0)], 1e-12);
}

TEST(ObsOperator, InterpolatesBetweenGridPoints) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  // Half-way between two horizontal neighbours at the surface.
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = 4.5 * sc.grid.dx_km();
  ob.y_km = 5.0 * sc.grid.dy_km();
  ob.depth_m = 0.0;
  ObsOperator h(sc.grid, {ob});
  const double expected =
      0.5 * (s.temperature[sc.grid.index(4, 5, 0)] +
             s.temperature[sc.grid.index(5, 5, 0)]);
  EXPECT_NEAR(h.apply(s)[0], expected, 1e-12);
}

TEST(ObsOperator, VerticalInterpolation) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  const auto& depths = sc.grid.depths();
  const double mid = 0.5 * (depths[1] + depths[2]);
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = 4 * sc.grid.dx_km();
  ob.y_km = 5 * sc.grid.dy_km();
  ob.depth_m = mid;
  ObsOperator h(sc.grid, {ob});
  const double expected =
      0.5 * (s.temperature[sc.grid.index(4, 5, 1)] +
             s.temperature[sc.grid.index(4, 5, 2)]);
  EXPECT_NEAR(h.apply(s)[0], expected, 1e-9);
}

TEST(ObsOperator, SshObservationsIgnoreDepth) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  Observation ob;
  ob.kind = VarKind::kSsh;
  ob.x_km = 3 * sc.grid.dx_km();
  ob.y_km = 2 * sc.grid.dy_km();
  ob.depth_m = 9999.0;
  ObsOperator h(sc.grid, {ob});
  EXPECT_NEAR(h.apply(s)[0], s.ssh[sc.grid.hindex(3, 2)], 1e-12);
}

TEST(ObsOperator, SalinityRouting) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  Observation ob;
  ob.kind = VarKind::kSalinity;
  ob.x_km = 6 * sc.grid.dx_km();
  ob.y_km = 6 * sc.grid.dy_km();
  ob.depth_m = 0;
  ObsOperator h(sc.grid, {ob});
  EXPECT_NEAR(h.apply(s)[0], s.salinity[sc.grid.index(6, 6, 0)], 1e-12);
}

TEST(ObsOperator, LandCornersRenormalised) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  // Find a water column adjacent to land to the east.
  std::size_t wx = 0, wy = 0;
  bool found = false;
  for (std::size_t iy = 0; iy < sc.grid.ny() && !found; ++iy)
    for (std::size_t ix = 0; ix + 1 < sc.grid.nx() && !found; ++ix)
      if (sc.grid.is_water(ix, iy) && !sc.grid.is_water(ix + 1, iy)) {
        wx = ix;
        wy = iy;
        found = true;
      }
  ASSERT_TRUE(found);
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = (wx + 0.4) * sc.grid.dx_km();  // between water and land
  ob.y_km = wy * sc.grid.dy_km();
  ob.depth_m = 0;
  ObsOperator h(sc.grid, {ob});
  // Weight collapses onto the water column(s): finite, close to water T.
  const double v = h.apply(s)[0];
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, s.temperature[sc.grid.index(wx, wy, 0)], 1.0);
}

TEST(ObsOperator, InnovationIsObservedMinusPredicted) {
  auto sc = scenario();
  ocean::OceanState s = sc.initial;
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = 4 * sc.grid.dx_km();
  ob.y_km = 4 * sc.grid.dy_km();
  ob.value = 99.0;
  ObsOperator h(sc.grid, {ob});
  const double predicted = h.apply(s)[0];
  EXPECT_NEAR(esse::ObsSet::from_operator(h).innovations(s.pack())[0],
              99.0 - predicted, 1e-12);
}

TEST(ObsOperator, NoiseVariancesSquareTheStd) {
  auto sc = scenario();
  Observation ob;
  ob.noise_std = 0.3;
  ob.x_km = 4;
  ob.y_km = 4;
  ObsOperator h(sc.grid, {ob});
  EXPECT_NEAR(esse::ObsSet::from_operator(h).entry(0).variance, 0.09, 1e-12);
}

TEST(ObsOperator, ApplyModeMatchesApplyOnColumn) {
  auto sc = scenario();
  Rng rng(3);
  const std::size_t dim = ocean::OceanState::packed_size(sc.grid);
  la::Matrix modes(dim, 2);
  for (auto& x : modes.data()) x = rng.normal();
  Observation ob;
  ob.kind = VarKind::kTemperature;
  ob.x_km = 4.7 * sc.grid.dx_km();
  ob.y_km = 3.2 * sc.grid.dy_km();
  ob.depth_m = 15.0;
  ObsOperator h(sc.grid, {ob});
  const esse::ObsSet set = esse::ObsSet::from_operator(h);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(set.apply_mode(0, modes, c), h.apply(modes.col(c))[0], 1e-12);
  }
}

TEST(ObsOperator, RejectsWrongStateLength) {
  auto sc = scenario();
  Observation ob;
  ob.x_km = 4;
  ob.y_km = 4;
  ObsOperator h(sc.grid, {ob});
  EXPECT_THROW(h.apply(la::Vector(7)), PreconditionError);
}

// ---- instruments -------------------------------------------------------------

TEST(Instruments, CtdCastSamplesEveryLevelTwice) {
  auto sc = scenario();
  Rng rng(5);
  auto set = ctd_cast(sc.grid, sc.initial, 10.0, 20.0, 0.05, 0.02, rng);
  EXPECT_EQ(set.size(), 2 * sc.grid.nz());
  // Noise-free check: values near the truth.
  for (const auto& ob : set) {
    if (ob.kind == VarKind::kTemperature) {
      EXPECT_GT(ob.value, 0.0);
      EXPECT_LT(ob.value, 25.0);
    } else {
      EXPECT_GT(ob.value, 30.0);
      EXPECT_LT(ob.value, 36.0);
    }
  }
}

TEST(Instruments, CtdOnLandReturnsEmpty) {
  auto sc = scenario();
  Rng rng(5);
  const double lx = sc.grid.dx_km() * (sc.grid.nx() - 1);
  auto set =
      ctd_cast(sc.grid, sc.initial, lx, 5.0, 0.05, 0.02, rng);  // east edge
  EXPECT_TRUE(set.empty());
}

TEST(Instruments, GliderSawtoothStaysWithinDepthRange) {
  auto sc = scenario();
  Rng rng(6);
  auto set = glider_transect(sc.grid, sc.initial, 5, 10, 60, 30, 150.0, 40,
                             0.08, rng);
  ASSERT_GT(set.size(), 10u);
  double min_d = 1e9, max_d = -1e9;
  for (const auto& ob : set) {
    min_d = std::min(min_d, ob.depth_m);
    max_d = std::max(max_d, ob.depth_m);
  }
  EXPECT_GE(min_d, 0.0);
  EXPECT_LE(max_d, 150.0);
  EXPECT_GT(max_d - min_d, 50.0);  // actually dives
}

TEST(Instruments, AuvLawnmowerCoversExtent) {
  auto sc = scenario();
  Rng rng(7);
  auto set = auv_survey(sc.grid, sc.initial, 40, 40, 30.0, 20.0, 4, 6, 0.05,
                        rng);
  ASSERT_GT(set.size(), 10u);
  double min_x = 1e9, max_x = -1e9;
  for (const auto& ob : set) {
    min_x = std::min(min_x, ob.x_km);
    max_x = std::max(max_x, ob.x_km);
    EXPECT_DOUBLE_EQ(ob.depth_m, 30.0);
  }
  EXPECT_NEAR(max_x - min_x, 20.0, 1e-9);
}

TEST(Instruments, SstSwathSkipsLandAndClouds) {
  auto sc = scenario();
  Rng rng(8);
  auto clear = sst_swath(sc.grid, sc.initial, 2, 0.0, 0.4, rng);
  auto cloudy = sst_swath(sc.grid, sc.initial, 2, 0.5, 0.4, rng);
  EXPECT_GT(clear.size(), cloudy.size());
  for (const auto& ob : clear) {
    EXPECT_DOUBLE_EQ(ob.depth_m, 0.0);
    EXPECT_EQ(ob.kind, VarKind::kTemperature);
  }
}

TEST(Instruments, NoiseScalesWithRequestedStd) {
  auto sc = scenario();
  // With a large noise level, repeated samplings should show spread ~std.
  Rng rng(9);
  double sum2 = 0;
  const int reps = 200;
  ObsOperator truth_op(
      sc.grid, {{VarKind::kTemperature, 10.0, 20.0, 0.0, 0.0, 0.0}});
  const double truth = truth_op.apply(sc.initial)[0];
  for (int r = 0; r < reps; ++r) {
    auto set = sst_swath(sc.grid, sc.initial, 100, 0.0, 1.0, rng);
    ASSERT_FALSE(set.empty());
    // First point is (0,0); compare against its own truth instead.
    ObsOperator op(sc.grid, {{VarKind::kTemperature, set[0].x_km,
                              set[0].y_km, 0.0, 0.0, 0.0}});
    const double t0 = op.apply(sc.initial)[0];
    sum2 += (set[0].value - t0) * (set[0].value - t0);
  }
  EXPECT_NEAR(std::sqrt(sum2 / reps), 1.0, 0.25);
  (void)truth;
}

TEST(Instruments, AosnCampaignIsRichAndAllWet) {
  auto sc = scenario();
  Rng rng(10);
  auto set = aosn_campaign(sc.grid, sc.initial, rng);
  EXPECT_GT(set.size(), 60u);
  // Every observation must be usable by the operator (not all-land).
  EXPECT_NO_THROW(ObsOperator(sc.grid, set));
}

}  // namespace
}  // namespace essex::obs
