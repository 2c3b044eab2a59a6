// Golden replay harness for the determinism contract (DESIGN.md §10).
//
// The real Fig. 4 runner must produce bitwise-identical forecast
// products — central state, subspace (= covariance file bytes), std-dev
// map, ρ history, canonical member count — for a fixed seed, no matter
// how many worker threads run the ensemble or in what order members are
// absorbed. The suite replays one canonical run at threads ∈ {1, 4, 8}
// and under two adversarially shuffled arrival schedules, and pins the
// digest against the checked-in golden value. Labelled `determinism`:
// CI runs it in both the default and -fsanitize=thread jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "esse/repro.hpp"
#include "linalg/simd.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "service/determinism_probe.hpp"

#ifndef ESSEX_GOLDEN_DIR
#define ESSEX_GOLDEN_DIR "."
#endif

namespace essex::service {
namespace {

// The digests are identical runs of real multi-second forecasts; compute
// each distinct schedule once and share across the assertions below.
const std::string& digest_threads1() {
  static const std::string d = golden_digest(1);
  return d;
}

const std::string& digest_threads4() {
  static const std::string d = golden_digest(4);
  return d;
}

TEST(Determinism, ThreadCountDoesNotChangeTheForecast) {
  EXPECT_EQ(digest_threads1(), digest_threads4());
  EXPECT_EQ(digest_threads1(), golden_digest(8));
}

TEST(Determinism, DispatchTierDoesNotChangeTheForecast) {
  // The SIMD determinism contract (DESIGN.md §13): the golden digest is
  // one value across the scalar and AVX2 kernel tiers, at every
  // thread count — the vector kernels reproduce the canonical reduction
  // shape bit for bit, they don't merely approximate it.
  const std::string baseline = digest_threads1();  // computed pre-force
  for (const la::simd::Level level :
       {la::simd::Level::kScalar, la::simd::Level::kAvx2}) {
    la::simd::ScopedLevel force(level);
    SCOPED_TRACE(la::simd::level_name(la::simd::active_level()));
    EXPECT_EQ(golden_digest(1), baseline);
    EXPECT_EQ(golden_digest(4), baseline);
    EXPECT_EQ(golden_digest(8), baseline);
  }
}

TEST(Determinism, AdversarialArrivalSchedulesDoNotChangeTheForecast) {
  // Schedule A: stall early member ids so high ids are absorbed first —
  // the reverse of the natural submission order.
  const std::string reversed = golden_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((23 - id % 24) / 4));
  });
  EXPECT_EQ(reversed, digest_threads1());

  // Schedule B: pseudo-random stalls, decorrelated from the id order.
  const std::string shuffled = golden_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  EXPECT_EQ(shuffled, digest_threads1());
}

TEST(Determinism, TiledForecastIsThreadAndArrivalInvariant) {
  // The localized run (sharded differ reductions, DESIGN.md §14) obeys
  // the same contract as the global one: one digest across thread counts
  // and adversarial arrival schedules. It is asserted self-consistent,
  // not pinned — the checked-in golden digest belongs to the untiled
  // run, which the localization redesign must leave untouched (the
  // MatchesCheckedInGoldenDigest test below).
  const std::string baseline = golden_tiled_digest(1);
  EXPECT_EQ(golden_tiled_digest(4), baseline);
  const std::string shuffled = golden_tiled_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  EXPECT_EQ(shuffled, baseline);
  // And localization genuinely changed the product: same seed, different
  // update, different digest.
  EXPECT_NE(baseline, digest_threads1());
}

TEST(Determinism, MultilevelForecastIsThreadAndArrivalInvariant) {
  // The multilevel run (mixed-resolution members, DESIGN.md §15) obeys
  // the same contract: pooled coarse columns are pre-scaled from planned
  // counts and absorbed in canonical (level, member) id order, so one
  // digest across thread counts and adversarial arrival schedules. Like
  // the tiled variant it is self-consistent, not pinned — the checked-in
  // golden digest belongs to the single-level run, which levels == 1
  // must leave bitwise untouched (MatchesCheckedInGoldenDigest).
  const std::string baseline = golden_multilevel_digest(1);
  EXPECT_EQ(golden_multilevel_digest(4), baseline);
  const std::string shuffled =
      golden_multilevel_digest(4, [](std::size_t id) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((id * 37 + 11) % 7));
      });
  EXPECT_EQ(shuffled, baseline);
  // And the coarse members genuinely changed the product: same seed,
  // different estimator, different digest.
  EXPECT_NE(baseline, digest_threads1());
}

TEST(Determinism, AnalysisMethodIsThreadAndArrivalInvariant) {
  // Every registered filter obeys the §10 contract end to end: one
  // analysis digest per method across thread counts {1, 4, 8} and
  // adversarial member-arrival schedules. One golden forecast feeds both
  // methods per schedule, so this costs three forecast runs, not six.
  const auto baseline = golden_analysis_digests(1);
  ASSERT_EQ(baseline.size(), esse::analysis_method_registry().size());
  // Distinct filters must produce distinct products on the same data —
  // equal digests would mean the dispatch is wired to one method.
  EXPECT_NE(baseline.at(esse::AnalysisMethod::kSubspaceKalman),
            baseline.at(esse::AnalysisMethod::kMultiModel));

  const auto threads8 = golden_analysis_digests(8);
  // Adversarial member-arrival schedule: the golden forecast is
  // arrival-invariant and the analysis is a pure function of it, so
  // every method's digest must hold.
  const auto arrival = golden_analysis_digests(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  for (const auto& [method, digest] : baseline) {
    SCOPED_TRACE(esse::to_string(method));
    EXPECT_EQ(threads8.at(method), digest);
    EXPECT_EQ(arrival.at(method), digest);
  }
}

TEST(Determinism, MatchesCheckedInAnalysisMethodDigests) {
  const std::string path =
      std::string(ESSEX_GOLDEN_DIR) + "/analysis_methods.sha256";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open())
      << "missing golden digest file " << path
      << " — regenerate with: bench_determinism --write-golden";
  std::map<std::string, std::string> golden;
  std::string hex, key;
  while (f >> hex >> key) golden[key] = hex;
  const auto digests = golden_analysis_digests(4);
  for (const auto& [method, digest] : digests) {
    const std::string k =
        std::string(kGoldenRunKey) + "-" + esse::to_string(method);
    const auto it = golden.find(k);
    ASSERT_NE(it, golden.end()) << "golden file has no entry for " << k;
    EXPECT_EQ(digest, it->second)
        << "method " << esse::to_string(method)
        << " no longer reproduces its checked-in digest. If the numerics "
           "changed intentionally, regenerate with: bench_determinism "
           "--write-golden (see DESIGN.md §10/§16).";
  }
}

TEST(Determinism, MatchesCheckedInOceanTrajectoryDigests) {
  // The bare model over the Monterey coastline, stale currents, a coarse
  // level and a drifter: physics the double-gyre forecast goldens never
  // reach. Serial and seeded, so one run pins it.
  const std::string path = std::string(ESSEX_GOLDEN_DIR) + "/ocean.sha256";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open())
      << "missing golden digest file " << path
      << " — regenerate with: bench_determinism --write-golden";
  std::map<std::string, std::string> golden;
  std::string hex, key;
  while (f >> hex >> key) golden[key] = hex;
  const auto digests = ocean_trajectory_digests();
  EXPECT_EQ(digests.size(), golden.size());
  for (const auto& [k, digest] : digests) {
    const auto it = golden.find(k);
    ASSERT_NE(it, golden.end()) << "golden file has no entry for " << k;
    EXPECT_EQ(digest, it->second)
        << k << " no longer reproduces its checked-in digest. If the "
           "model numerics changed intentionally, regenerate with: "
           "bench_determinism --write-golden (see DESIGN.md §10).";
  }
}

TEST(Determinism, SerializedProductIsSelfConsistent) {
  const esse::ForecastResult res = golden_forecast(2);
  const std::string bytes = esse::serialize_forecast_product(res);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.substr(0, 8), "ESSEXRPR");
  EXPECT_EQ(esse::forecast_digest(res), sha256_hex(bytes));
  // The digest really does ignore the MTC accounting: two results that
  // differ only in execution records serialize identically.
  esse::ForecastResult jittered = res;
  ASSERT_TRUE(jittered.mtc.has_value());
  jittered.mtc->svd_runs += 17;
  jittered.mtc->retries += 3;
  EXPECT_EQ(esse::forecast_digest(jittered), esse::forecast_digest(res));
}

TEST(Determinism, MatchesCheckedInGoldenDigest) {
  const std::string path =
      std::string(ESSEX_GOLDEN_DIR) + "/determinism.sha256";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open())
      << "missing golden digest file " << path
      << " — regenerate with: bench_determinism --write-golden";
  // sha256sum line format: "<hex>  <key>".
  std::map<std::string, std::string> golden;
  std::string hex, key;
  while (f >> hex >> key) golden[key] = hex;
  const auto it = golden.find(kGoldenRunKey);
  ASSERT_NE(it, golden.end())
      << "golden file has no entry for " << kGoldenRunKey;
  EXPECT_EQ(digest_threads4(), it->second)
      << "the seeded forecast no longer reproduces the checked-in golden "
         "digest. If the numerics changed intentionally, regenerate with: "
         "bench_determinism --write-golden (see DESIGN.md §10).";
}

// ---- the ocean integrator's vectorised tracer update --------------------

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

const la::simd::Level kTiers[] = {la::simd::Level::kScalar,
                                  la::simd::Level::kAvx2};

// OceanModel::step's tracer update and open-boundary sponge as every
// water column ran them before interior runs went through la::simd
// tracer_run: the branchy upwind transport(), the vertical term, then
// relax_boundaries. A land or off-grid neighbour reads the centre.
void reference_tracer_step(const ocean::OceanModel& model,
                           ocean::OceanState& st, double dt_hours) {
  const ocean::Grid3D& g = model.grid();
  const ocean::ModelParams& p = model.params();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t hp = g.horizontal_points();
  const std::vector<double>& depths = g.depths();
  const double dx_m = g.dx_km() * 1000.0, dy_m = g.dy_km() * 1000.0;
  const double dt = dt_hours * 3600.0;
  std::vector<double> new_t = st.temperature, new_s = st.salinity;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!g.is_water(ix, iy)) continue;
      const std::size_t h = g.hindex(ix, iy);
      auto nb = [&](bool on_grid, std::size_t jx, std::size_t jy) {
        return on_grid && g.is_water(jx, jy) ? g.hindex(jx, jy) : h;
      };
      const std::size_t w = nb(ix > 0, ix - 1, iy);
      const std::size_t e = nb(ix + 1 < nx, ix + 1, iy);
      const std::size_t s = nb(iy > 0, ix, iy - 1);
      const std::size_t n = nb(iy + 1 < ny, ix, iy + 1);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const std::size_t off = iz * hp, id = off + h;
        const double uu = st.u[id], vv = st.v[id];
        const double dz_up = (iz > 0) ? depths[iz] - depths[iz - 1] : 1.0;
        const double dz_dn = (iz + 1 < nz) ? depths[iz + 1] - depths[iz] : 1.0;
        auto tracer = [&](const std::vector<double>& f,
                          std::vector<double>& out) {
          const double* fl = f.data() + off;
          const double fc = fl[h];
          double adv = 0.0;
          if (uu > 0) {
            adv += uu * (fc - fl[w]) / dx_m;
          } else {
            adv += uu * (fl[e] - fc) / dx_m;
          }
          if (vv > 0) {
            adv += vv * (fc - fl[s]) / dy_m;
          } else {
            adv += vv * (fl[n] - fc) / dy_m;
          }
          const double lap = (fl[e] - 2 * fc + fl[w]) / (dx_m * dx_m) +
                             (fl[n] - 2 * fc + fl[s]) / (dy_m * dy_m);
          double vdiff = 0.0;
          if (nz > 1) {
            const double fz_up = (iz > 0) ? f[id - hp] : fc;
            const double fz_dn = (iz + 1 < nz) ? f[id + hp] : fc;
            vdiff = p.kappa_v * ((fz_dn - fc) / (dz_dn * dz_dn) -
                                 (fc - fz_up) / (dz_up * dz_up));
          }
          out[id] = fc + dt * ((-adv + p.kappa_h * lap) + vdiff);
        };
        tracer(st.temperature, new_t);
        tracer(st.salinity, new_s);
      }
    }
  }
  st.temperature.swap(new_t);
  st.salinity.swap(new_s);
  // The sponge: 1 − d/w within w cells of an open (water) edge.
  const std::size_t far = nx + ny, bw = p.boundary_width;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!g.is_water(ix, iy)) continue;
      const std::size_t d = std::min(
          std::min(g.is_water(0, iy) ? ix : far,
                   g.is_water(nx - 1, iy) ? nx - 1 - ix : far),
          std::min(g.is_water(ix, 0) ? iy : far,
                   g.is_water(ix, ny - 1) ? ny - 1 - iy : far));
      if (d >= bw) continue;
      const double sponge =
          1.0 - static_cast<double>(d) / static_cast<double>(bw);
      const double a =
          std::clamp(p.boundary_relax_rate * dt * sponge, 0.0, 1.0);
      for (std::size_t id = g.hindex(ix, iy); id < g.points(); id += hp) {
        st.temperature[id] +=
            a * (model.climatology().temperature[id] - st.temperature[id]);
        st.salinity[id] +=
            a * (model.climatology().salinity[id] - st.salinity[id]);
      }
    }
  }
}

// A 52×9 box whose middle row is cut by land into interior runs of 1, 3,
// 4, 5, 8 and 9 columns (the rows beside it get 3, 5, 6, 7, 10 and 11),
// each ending at the coast, with the open-boundary sponge along every
// edge.
ocean::Grid3D cut_box(std::vector<double> depths) {
  ocean::Grid3D g(52, 9, 2.5, 2.5, std::move(depths));
  for (const std::size_t ix : {1, 5, 11, 18, 26, 37, 49}) g.set_land(ix, 4);
  return g;
}

struct TracerCase {
  std::string name;
  ocean::Grid3D grid;
  bool signed_zero_temperature = false;
};

TEST(Determinism, TracerStepMatchesTheScalarTransportPath) {
  std::vector<TracerCase> cases;
  cases.push_back({"monterey 48x40x6", ocean::make_monterey_scenario().grid});
  cases.push_back({"gyre 12x10x3", ocean::make_double_gyre_scenario(12, 10, 3)
                                       .grid});
  cases.push_back({"cut box, 3 levels", cut_box({0.0, 30.0, 90.0})});
  cases.push_back({"cut box, one level", cut_box({0.0})});
  cases.push_back({"cut box, signed zeros", cut_box({0.0, 30.0}), true});
  for (const TracerCase& tc : cases) {
    SCOPED_TRACE(tc.name);
    const ocean::Grid3D& g = tc.grid;
    ocean::OceanState init(g);
    Rng rng(17);
    for (std::size_t i = 0; i < g.points(); ++i) {
      init.temperature[i] =
          tc.signed_zero_temperature
              ? (rng.uniform_index(2) == 0 ? 0.0 : -0.0)
              : 12.0 + rng.normal();
      init.salinity[i] = 33.5 + 0.2 * rng.normal();
    }
    for (double& x : init.ssh) x = 0.05 * rng.normal();
    // No wind, so no upwelling: T and S change only by transport, the
    // vertical term and the sponge.
    ocean::WindForcing::Params calm;
    calm.upwelling_tau = calm.relaxation_tau = calm.onshore_tau = 0.0;
    ocean::ModelParams params;
    ocean::OceanState clim = init;
    for (double& x : clim.temperature) x += 0.5;
    const ocean::OceanModel model(g, params, ocean::WindForcing(calm), clim);
    model.diagnose_currents(init, 0.0);
    // Velocities the upwind select must send where the branch does.
    for (std::size_t i = 0; i < g.points(); ++i) {
      if (i % 5 == 0) init.u[i] = 0.0;
      if (i % 7 == 0) init.v[i] = -0.0;
      if (i % 11 == 0) init.u[i] = -0.0;
      if (i % 13 == 0) init.v[i] = 0.0;
    }
    init.u[g.points() / 2 + 3] = std::nan("");
    init.v[g.points() / 3 + 1] = std::nan("");
    const double dt = model.max_stable_dt_hours();
    ocean::OceanState want = init;
    reference_tracer_step(model, want, dt);
    for (const la::simd::Level level : kTiers) {
      la::simd::ScopedLevel force(level);
      SCOPED_TRACE(la::simd::level_name(la::simd::active_level()));
      ocean::OceanState got = init;
      model.step(got, 0.0, dt);
      EXPECT_TRUE(bits_equal(got.temperature, want.temperature));
      EXPECT_TRUE(bits_equal(got.salinity, want.salinity));
    }
  }
}

TEST(Determinism, OceanRunMatchesAChainOfSteps) {
  // run() swaps its own scratch fields; the public step() copies fresh
  // ones each call. Both must give the same bits, on a coast with land
  // and on an all-water box, with and without stochastic forcing, over a
  // duration that ends in a short step. An odd number of smoothing
  // passes leaves the noise pattern in the second buffer, whose land
  // entries must hold this step's white noise too.
  ocean::Scenario scenarios[] = {ocean::make_monterey_scenario(24, 20, 4),
                                 ocean::make_monterey_scenario(24, 20, 4),
                                 ocean::make_double_gyre_scenario(12, 10, 3)};
  scenarios[1].params.noise_smooth_passes = 3;
  for (const ocean::Scenario& sc : scenarios) {
    const ocean::OceanModel model(sc.grid, sc.params,
                                  ocean::WindForcing(sc.wind), sc.initial);
    const double dt_max = model.max_stable_dt_hours();
    const double t0 = 7.0, duration = 5.5 * dt_max;
    for (const bool stochastic : {false, true}) {
      for (const la::simd::Level level : kTiers) {
        la::simd::ScopedLevel force(level);
        SCOPED_TRACE(std::string(la::simd::level_name(
                         la::simd::active_level())) +
                     (stochastic ? ", stochastic" : ", deterministic"));
        ocean::OceanState ran = sc.initial;
        Rng rng_run(99, 3);
        EXPECT_EQ(model.run(ran, t0, duration, stochastic ? &rng_run : nullptr),
                  6u);
        ocean::OceanState stepped = sc.initial;
        Rng rng_step(99, 3);
        model.diagnose_currents(stepped, t0);
        double t = t0, remaining = duration;
        while (remaining > 1e-12) {
          const double dt = std::min(dt_max, remaining);
          model.step(stepped, t, dt, stochastic ? &rng_step : nullptr);
          t += dt;
          remaining -= dt;
        }
        EXPECT_TRUE(bits_equal(ran.temperature, stepped.temperature));
        EXPECT_TRUE(bits_equal(ran.salinity, stepped.salinity));
        EXPECT_TRUE(bits_equal(ran.ssh, stepped.ssh));
        EXPECT_TRUE(bits_equal(ran.u, stepped.u));
        EXPECT_TRUE(bits_equal(ran.v, stepped.v));
      }
    }
  }
}

}  // namespace
}  // namespace essex::service
