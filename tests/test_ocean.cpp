// Unit + property tests: ocean substrate (grid, state packing, forcing,
// PE-surrogate dynamics, scenario factories).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/stats.hpp"
#include "ocean/forcing.hpp"
#include "ocean/grid.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"

namespace essex::ocean {
namespace {

Grid3D small_grid() { return Grid3D(8, 6, 2.0, 2.0, {0.0, 20.0, 100.0}); }

// ---- grid -------------------------------------------------------------------

TEST(Grid3D, DimensionsAndIndexing) {
  Grid3D g = small_grid();
  EXPECT_EQ(g.points(), 8u * 6u * 3u);
  EXPECT_EQ(g.horizontal_points(), 48u);
  EXPECT_EQ(g.index(0, 0, 0), 0u);
  EXPECT_EQ(g.index(1, 0, 0), 1u);
  EXPECT_EQ(g.index(0, 1, 0), 8u);
  EXPECT_EQ(g.index(0, 0, 1), 48u);
}

TEST(Grid3D, ValidatesConstruction) {
  EXPECT_THROW(Grid3D(2, 6, 1, 1, {0.0}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 0, 1, {0.0}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 1, 1, {}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 1, 1, {10.0, 5.0}), PreconditionError);
}

TEST(Grid3D, LandMask) {
  Grid3D g = small_grid();
  EXPECT_TRUE(g.is_water(3, 3));
  g.set_land(3, 3);
  EXPECT_FALSE(g.is_water(3, 3));
  EXPECT_EQ(g.water_columns(), 47u);
}

TEST(Grid3D, LevelNearDepthPicksClosest) {
  Grid3D g = small_grid();
  EXPECT_EQ(g.level_near_depth(0.0), 0u);
  EXPECT_EQ(g.level_near_depth(25.0), 1u);
  EXPECT_EQ(g.level_near_depth(1000.0), 2u);
}

// ---- state packing -----------------------------------------------------------

TEST(OceanState, PackUnpackRoundTrip) {
  Grid3D g = small_grid();
  OceanState s(g);
  Rng rng(2);
  for (auto& v : s.temperature) v = rng.normal(12, 2);
  for (auto& v : s.salinity) v = rng.normal(33, 0.5);
  for (auto& v : s.ssh) v = rng.normal(0, 0.05);
  la::Vector x = s.pack();
  EXPECT_EQ(x.size(), OceanState::packed_size(g));
  OceanState t(g);
  t.unpack(x, g);
  EXPECT_DOUBLE_EQ(state_distance(s, t), 0.0);
}

TEST(OceanState, UnpackRejectsWrongLength) {
  Grid3D g = small_grid();
  OceanState s(g);
  EXPECT_THROW(s.unpack(la::Vector(5), g), PreconditionError);
}

// ---- wind forcing --------------------------------------------------------------

TEST(WindForcing, UpwellingPhaseHasEquatorwardStress) {
  const WindForcing wind{WindForcing::Params{}};
  // Peak of the upwelling phase is mid-way through it.
  const double t_peak =
      0.5 * wind.params().upwelling_fraction * wind.params().event_period_h;
  EXPECT_LT(wind.at(t_peak).tau_y, -0.05);
}

TEST(WindForcing, RelaxationPhaseReversesAndWeakens) {
  const WindForcing wind{WindForcing::Params{}};
  const double p = wind.params().event_period_h;
  const double t_relax = (wind.params().upwelling_fraction + 0.15) * p;
  const WindStress s = wind.at(t_relax);
  EXPECT_GT(s.tau_y, 0.0);
  EXPECT_LT(std::fabs(s.tau_y), wind.params().upwelling_tau);
}

TEST(WindForcing, PeriodicInTime) {
  const WindForcing wind{WindForcing::Params{}};
  const double p = wind.params().event_period_h;
  const WindStress a = wind.at(10.0);
  const WindStress b = wind.at(10.0 + 3 * p);
  EXPECT_NEAR(a.tau_x, b.tau_x, 1e-12);
  EXPECT_NEAR(a.tau_y, b.tau_y, 1e-12);
}

TEST(WindForcing, ValidatesParams) {
  WindForcing::Params p;
  p.event_period_h = 0;
  EXPECT_THROW(WindForcing{p}, PreconditionError);
  p = {};
  p.upwelling_fraction = 1.5;
  EXPECT_THROW(WindForcing{p}, PreconditionError);
}

// ---- model dynamics --------------------------------------------------------------

Scenario scenario() { return make_monterey_scenario(24, 20, 4); }

TEST(OceanModel, StableStepKeepsFieldsBounded) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.run(s, 0.0, 24.0, nullptr);
  for (double t : s.temperature) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 30.0);
  }
  for (double e : s.ssh) EXPECT_LT(std::fabs(e), 1.0);
}

TEST(OceanModel, RejectsUnstableDt) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  EXPECT_THROW(s = sc.initial;
               model.step(s, 0.0, model.max_stable_dt_hours() * 3),
               PreconditionError);
  EXPECT_THROW(model.step(s, 0.0, -1.0), PreconditionError);
}

TEST(OceanModel, RunRejectsNonFiniteTimes) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model.run(s, 0.0, inf), PreconditionError);
  EXPECT_THROW(model.run(s, 0.0, nan), PreconditionError);
  EXPECT_THROW(model.run(s, inf, 1.0), PreconditionError);
  EXPECT_THROW(model.run(s, nan, 1.0), PreconditionError);
}

TEST(OceanModel, DeterministicWithoutNoise) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  model.run(a, 0.0, 12.0, nullptr);
  model.run(b, 0.0, 12.0, nullptr);
  EXPECT_DOUBLE_EQ(state_distance(a, b), 0.0);
}

TEST(OceanModel, StochasticRunsDivergeAcrossSeeds) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  Rng r1(1, 1), r2(1, 2);
  model.run(a, 0.0, 12.0, &r1);
  model.run(b, 0.0, 12.0, &r2);
  EXPECT_GT(state_distance(a, b), 1e-3);
}

TEST(OceanModel, StochasticReproducibleForSameStream) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  Rng r1(9, 4), r2(9, 4);
  model.run(a, 0.0, 6.0, &r1);
  model.run(b, 0.0, 6.0, &r2);
  EXPECT_DOUBLE_EQ(state_distance(a, b), 0.0);
}

TEST(OceanModel, UpwellingCoolsCoastalSurface) {
  // Persistent upwelling wind should cool the surface along the coast
  // relative to the offshore interior.
  Scenario sc = scenario();
  sc.wind.upwelling_fraction = 0.95;  // nearly always upwelling
  sc.wind.upwelling_tau = 0.2;
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.run(s, 0.0, 48.0, nullptr);
  // Mean change at coastal columns (a water column with land within two
  // cells to the east) vs initial.
  double coastal_delta = 0;
  int coastal_n = 0;
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix + 2 < sc.grid.nx(); ++ix) {
      if (!sc.grid.is_water(ix, iy)) continue;
      const bool coastal = !sc.grid.is_water(ix + 1, iy) ||
                           !sc.grid.is_water(ix + 2, iy);
      if (!coastal) continue;
      coastal_delta += s.temperature[sc.grid.index(ix, iy, 0)] -
                       sc.initial.temperature[sc.grid.index(ix, iy, 0)];
      ++coastal_n;
    }
  }
  ASSERT_GT(coastal_n, 0);
  EXPECT_LT(coastal_delta / coastal_n, 0.0);
}

TEST(OceanModel, BoundaryRelaxationPinsEdgesToClimatology) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  // Kick the interior *and* the boundary away from climatology.
  for (auto& t : s.temperature) t += 2.0;
  model.run(s, 0.0, 48.0, nullptr);
  // Western edge should be pulled back toward climatology more than the
  // interior.
  const std::size_t iy = sc.grid.ny() / 2;
  const double edge_err =
      std::fabs(s.temperature[sc.grid.index(0, iy, 0)] -
                sc.initial.temperature[sc.grid.index(0, iy, 0)]);
  const double mid_err =
      std::fabs(s.temperature[sc.grid.index(sc.grid.nx() / 3, iy, 0)] -
                sc.initial.temperature[sc.grid.index(sc.grid.nx() / 3, iy, 0)]);
  EXPECT_LT(edge_err, mid_err);
}

TEST(OceanModel, CurrentsRespectSpeedCap) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.diagnose_currents(s, 0.0);
  for (double u : s.u) EXPECT_LE(std::fabs(u), sc.params.geostrophic_cap);
  for (double v : s.v) EXPECT_LE(std::fabs(v), sc.params.geostrophic_cap);
}

TEST(OceanModel, GeostrophicFlowCirculatesAroundEddy) {
  // An isolated SSH high in the northern hemisphere drives clockwise
  // (anticyclonic) flow: v > 0 west of the eddy center, v < 0 east of it.
  Grid3D g(20, 20, 3.0, 3.0, {0.0, 50.0});
  OceanState s(g);
  for (auto& t : s.temperature) t = 12.0;
  for (auto& sal : s.salinity) sal = 33.5;
  const double cx = 9.5 * 3.0, cy = 9.5 * 3.0;
  for (std::size_t iy = 0; iy < 20; ++iy)
    for (std::size_t ix = 0; ix < 20; ++ix) {
      const double dx = ix * 3.0 - cx, dy = iy * 3.0 - cy;
      s.ssh[g.hindex(ix, iy)] =
          0.1 * std::exp(-(dx * dx + dy * dy) / 200.0);
    }
  ModelParams params;
  WindForcing::Params calm;
  calm.upwelling_tau = 0.0;
  calm.relaxation_tau = 0.0;
  calm.onshore_tau = 0.0;
  OceanModel model(g, params, WindForcing(calm), s);
  model.diagnose_currents(s, 0.0);
  EXPECT_GT(s.v[g.index(5, 10, 0)], 0.0);   // west flank: northward
  EXPECT_LT(s.v[g.index(14, 10, 0)], 0.0);  // east flank: southward
}

TEST(OceanModel, RunSubstepsToRequestedDuration) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  const std::size_t steps = model.run(s, 0.0, 5.0, nullptr);
  EXPECT_GE(steps, static_cast<std::size_t>(
                       std::ceil(5.0 / model.max_stable_dt_hours()) - 1));
}

// ---- scenario factories -------------------------------------------------------

TEST(Scenarios, MontereyHasCoastalLandAndBay) {
  Scenario sc = make_monterey_scenario(48, 40, 6);
  EXPECT_LT(sc.grid.water_columns(), sc.grid.horizontal_points());
  // Western edge is open ocean.
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
    EXPECT_TRUE(sc.grid.is_water(0, iy));
  // Eastern edge is land.
  std::size_t land_east = 0;
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
    land_east += !sc.grid.is_water(sc.grid.nx() - 1, iy);
  EXPECT_GT(land_east, sc.grid.ny() / 2);
}

TEST(Scenarios, MontereyHasCrossShoreSstFront) {
  Scenario sc = make_monterey_scenario(48, 40, 6);
  const std::size_t iy = sc.grid.ny() / 4;  // away from the bay
  const double offshore = sc.initial.temperature[sc.grid.index(2, iy, 0)];
  // Find the easternmost water column at this latitude.
  std::size_t coast_ix = 0;
  for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
    if (sc.grid.is_water(ix, iy)) coast_ix = ix;
  const double coastal =
      sc.initial.temperature[sc.grid.index(coast_ix, iy, 0)];
  EXPECT_GT(offshore - coastal, 2.0);
}

TEST(Scenarios, MontereyStratified) {
  Scenario sc = make_monterey_scenario(24, 20, 6);
  const std::size_t id_surf = sc.grid.index(4, 10, 0);
  const std::size_t id_deep = sc.grid.index(4, 10, 5);
  EXPECT_GT(sc.initial.temperature[id_surf],
            sc.initial.temperature[id_deep] + 3.0);
}

TEST(Scenarios, DoubleGyreIsAllWaterAndRunnable) {
  Scenario sc = make_double_gyre_scenario(16, 12, 3);
  EXPECT_EQ(sc.grid.water_columns(), sc.grid.horizontal_points());
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  EXPECT_NO_THROW(model.run(s, 0.0, 6.0, nullptr));
}

TEST(Scenarios, FactoryValidatesMinimumSizes) {
  EXPECT_THROW(make_monterey_scenario(4, 4, 1), PreconditionError);
  EXPECT_THROW(make_double_gyre_scenario(4, 4, 1), PreconditionError);
}

}  // namespace
}  // namespace essex::ocean
