// Parameterized property sweeps across the DA stack: invariants that
// must hold for any reasonable configuration, run over grids of
// parameters (TEST_P / INSTANTIATE_TEST_SUITE_P). Test data comes from
// the essex::testkit generators, so each sweep point derives from one
// case seed instead of hand-rolled RNG plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "common/proptest.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "linalg/stats.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "testkit/generators.hpp"

namespace essex {
namespace {

namespace tk = testkit;

// ---- analysis invariants over rank × obs-count ---------------------------------

class AnalysisSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(AnalysisSweep, PosteriorNeverInflatesAndAlwaysFitsDataBetter) {
  auto [rank, n_obs, noise] = GetParam();
  auto sc = ocean::make_monterey_scenario(16, 14, 3);
  Rng rng(tk::case_seed(0xA5EE9, static_cast<std::size_t>(rank * 100 + n_obs)));
  const std::size_t dim = ocean::OceanState::packed_size(sc.grid);
  la::Vector sig(static_cast<std::size_t>(rank));
  for (int j = 0; j < rank; ++j)
    sig[static_cast<std::size_t>(j)] = 1.0 / (1.0 + j);
  const std::size_t k = static_cast<std::size_t>(rank);
  esse::ErrorSubspace sub(tk::gen_orthonormal(dim, dim, k, k).create(rng),
                          sig);

  // Observations of a displaced truth, placed by the domain generator;
  // the sweep pins the instrument noise, so only positions are drawn.
  la::Vector forecast = sc.initial.pack();
  la::Vector truth = forecast;
  la::axpy(0.7, sub.modes().col(0), truth);
  ocean::OceanState truth_state(sc.grid);
  truth_state.unpack(truth, sc.grid);
  tk::ObsDomain domain;
  domain.x_hi_km = 90.0;
  domain.y_hi_km = 110.0;
  domain.depth_hi_m = 100.0;
  Rng obs_rng(tk::case_seed(0x0b57, static_cast<std::size_t>(n_obs)));
  obs::ObservationSet set =
      tk::gen_observations(domain, static_cast<std::size_t>(n_obs),
                           static_cast<std::size_t>(n_obs))
          .create(obs_rng);
  for (auto& ob : set) {
    ob.kind = obs::VarKind::kTemperature;
    ob.noise_std = noise;
  }
  obs::ObsOperator sampler(sc.grid, set);
  la::Vector clean = sampler.apply(truth_state);
  for (std::size_t i = 0; i < set.size(); ++i) set[i].value = clean[i];
  obs::ObsOperator h(sc.grid, set);

  esse::AnalysisResult res =
      esse::analyze(forecast, sub, esse::ObsSet::from_operator(h));
  // Variance contraction: tr(P_a) <= tr(P_f), strictly with informative
  // observations.
  EXPECT_LE(res.posterior_trace, res.prior_trace * (1.0 + 1e-12));
  // Innovation never grows.
  EXPECT_LE(res.posterior_innovation_rms,
            res.prior_innovation_rms * (1.0 + 1e-9));
  // Posterior rank never exceeds the prior's.
  EXPECT_LE(res.posterior_subspace.rank(), sub.rank());
}

INSTANTIATE_TEST_SUITE_P(
    RankObsNoise, AnalysisSweep,
    ::testing::Values(std::tuple{2, 5, 0.1}, std::tuple{2, 40, 0.1},
                      std::tuple{6, 5, 0.1}, std::tuple{6, 40, 0.5},
                      std::tuple{10, 80, 0.05}, std::tuple{10, 20, 2.0}));

// Monotonicity in observation noise: noisier data → weaker contraction.
TEST(AnalysisProperties, NoisierObsContractLess) {
  auto sc = ocean::make_monterey_scenario(16, 14, 3);
  Rng rng(tk::case_seed(0xA5EE9, 5));
  const std::size_t dim = ocean::OceanState::packed_size(sc.grid);
  esse::ErrorSubspace sub(tk::gen_orthonormal(dim, dim, 4, 4).create(rng),
                          {1.0, 0.7, 0.4, 0.2});
  la::Vector forecast = sc.initial.pack();
  double prev_posterior = -1.0;
  for (double noise : {0.01, 0.1, 1.0, 10.0}) {
    obs::Observation ob;
    ob.kind = obs::VarKind::kTemperature;
    ob.x_km = 40;
    ob.y_km = 40;
    ob.value = 13.0;
    ob.noise_std = noise;
    obs::ObsOperator h(sc.grid, {ob});
    const auto res =
        esse::analyze(forecast, sub, esse::ObsSet::from_operator(h));
    EXPECT_GT(res.posterior_trace, prev_posterior);
    prev_posterior = res.posterior_trace;
  }
}

// ---- differ invariants over ensemble sizes ---------------------------------------

class DifferSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferSweep, SubspaceVarianceMatchesSampleVariance) {
  const int n = GetParam();
  const std::size_t un = static_cast<std::size_t>(n);
  Rng rng(tk::case_seed(0xD1FF, un));
  const tk::EnsembleCase e = tk::gen_ensemble(40, 40, un, un, 0.5).create(rng);
  esse::Differ differ(e.central);
  for (std::size_t j = 0; j < e.members.size(); ++j)
    differ.add_member(j, e.members[j]);
  // tr(E Λ Eᵀ) with all modes kept equals the total anomaly "energy"
  // about the central forecast (not the ensemble mean): Σ‖xⱼ−x̂‖²/(n−1).
  esse::ErrorSubspace sub = differ.subspace(1.0, 0);
  double energy = 0;
  for (const la::Vector& member : e.members) {
    la::Vector d = la::sub(member, e.central);
    energy += la::dot(d, d);
  }
  energy /= static_cast<double>(n - 1);
  EXPECT_NEAR(sub.total_variance(), energy, 1e-8 * energy);
}

TEST_P(DifferSweep, ParallelAndSerialSubspacesAgree) {
  const int n = GetParam();
  const std::size_t un = static_cast<std::size_t>(n);
  Rng rng(tk::case_seed(0xD1FF + 1, un));
  const tk::EnsembleCase e = tk::gen_ensemble(64, 64, un, un, 1.0).create(rng);
  esse::Differ differ(e.central);
  for (std::size_t j = 0; j < e.members.size(); ++j)
    differ.add_member(j, e.members[j]);
  const esse::AnomalyView view = differ.view();
  const esse::ErrorSubspace serial = esse::subspace_from_view(view, 0.999, 0);
  // U = A·V partitions rows across the workers and every element keeps
  // the serial accumulation order, so any pool size reproduces the
  // serial subspace bit for bit.
  const auto same_bits = [](std::span<const double> a,
                            std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const std::size_t workers : {2, 3, 4}) {
    ThreadPool pool(workers);
    const esse::ErrorSubspace parallel =
        esse::subspace_from_view(view, 0.999, 0, &pool);
    EXPECT_TRUE(same_bits(parallel.modes().data(), serial.modes().data()))
        << workers << " workers";
    EXPECT_TRUE(same_bits(parallel.sigmas(), serial.sigmas()))
        << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DifferSweep,
                         ::testing::Values(2, 3, 8, 24, 48));

// ---- ocean model invariants over grid shapes -----------------------------------

class ModelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ModelSweep, TracersStayPhysicalAndLandStaysUntouched) {
  auto [nx, ny, nz] = GetParam();
  auto sc = ocean::make_monterey_scenario(
      static_cast<std::size_t>(nx), static_cast<std::size_t>(ny),
      static_cast<std::size_t>(nz));
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  ocean::OceanState s = sc.initial;
  Rng rng(3, 1);
  model.run(s, 0.0, 24.0, &rng);
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix) {
      for (std::size_t iz = 0; iz < sc.grid.nz(); ++iz) {
        const std::size_t id = sc.grid.index(ix, iy, iz);
        if (!sc.grid.is_water(ix, iy)) {
          // Land columns never change.
          EXPECT_DOUBLE_EQ(s.temperature[id], sc.initial.temperature[id]);
          continue;
        }
        EXPECT_GT(s.temperature[id], 0.0);
        EXPECT_LT(s.temperature[id], 30.0);
        EXPECT_GT(s.salinity[id], 30.0);
        EXPECT_LT(s.salinity[id], 38.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ModelSweep,
                         ::testing::Values(std::tuple{12, 12, 3},
                                           std::tuple{24, 20, 4},
                                           std::tuple{16, 28, 6}));

// ---- cycle-level invariant: subspace rank adapts to the cap ----------------------

class CycleRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CycleRankSweep, ForecastRankRespectsCap) {
  const int cap = GetParam();
  auto sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  esse::ErrorSubspace sub = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 3.0, 8, 0.99, 6, /*seed=*/3);
  esse::CycleParams p;
  p.forecast_hours = 3.0;
  p.ensemble = {8, 2.0, 8};
  p.convergence = {0.95, 100};
  p.max_rank = static_cast<std::size_t>(cap);
  auto fr = esse::run_uncertainty_forecast(model, sc.initial, sub, 0.0, p);
  EXPECT_LE(fr.forecast_subspace.rank(), static_cast<std::size_t>(cap));
  EXPECT_GE(fr.forecast_subspace.rank(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Caps, CycleRankSweep, ::testing::Values(1, 3, 7));

}  // namespace
}  // namespace essex
