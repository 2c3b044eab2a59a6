// Gap-fill unit coverage for the tangent-linear forecast, plus the
// analysis edge cases the scenario harness depends on: zero observations
// must be rejected cleanly and rank-deficient subspaces must assimilate
// without blowing up. Domain values come from the testkit generators so
// every sweep is seed-reproducible.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/proptest.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/tangent.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"
#include "testkit/generators.hpp"

namespace tk = essex::testkit;
using essex::Rng;
using essex::esse::ErrorSubspace;
using essex::esse::ObsSet;
using essex::la::Vector;

// ---- tangent-linear subspace forecast -----------------------------------

TEST(TangentForecast, RunsRankPlusOneModelsAndKeepsSubspaceInvariants) {
  const auto sc = essex::ocean::make_double_gyre_scenario(10, 8, 3);
  essex::ocean::OceanModel model(sc.grid, sc.params,
                                 essex::ocean::WindForcing(sc.wind),
                                 sc.initial);
  const ErrorSubspace initial = essex::esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 4, /*seed=*/21);

  const auto tf =
      essex::esse::tangent_forecast(model, sc.initial, initial, 0.0, 2.0);
  EXPECT_EQ(tf.model_runs, initial.rank() + 1);
  EXPECT_EQ(tf.central_forecast.size(), initial.dim());
  ASSERT_FALSE(tf.forecast_subspace.empty());
  EXPECT_EQ(tf.forecast_subspace.dim(), initial.dim());
  const Vector& sig = tf.forecast_subspace.sigmas();
  for (std::size_t i = 1; i < sig.size(); ++i) EXPECT_LE(sig[i], sig[i - 1]);
  for (double s : sig) EXPECT_TRUE(std::isfinite(s));

  // The deterministic central forecast matches an independent model run.
  essex::ocean::OceanState truth = sc.initial;
  model.run(truth, 0.0, 2.0);
  const Vector packed = truth.pack();
  ASSERT_EQ(packed.size(), tf.central_forecast.size());
  for (std::size_t i = 0; i < packed.size(); ++i)
    EXPECT_EQ(packed[i], tf.central_forecast[i]);
}

TEST(TangentForecast, MaxRankCapsTheForecastSubspace) {
  const auto sc = essex::ocean::make_double_gyre_scenario(10, 8, 3);
  essex::ocean::OceanModel model(sc.grid, sc.params,
                                 essex::ocean::WindForcing(sc.wind),
                                 sc.initial);
  const ErrorSubspace initial = essex::esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 5, /*seed=*/22);
  ASSERT_GE(initial.rank(), 2u);

  const auto tf = essex::esse::tangent_forecast(
      model, sc.initial, initial, 0.0, 2.0, 1.0, /*threads=*/1,
      /*variance_fraction=*/1.0, /*max_rank=*/2);
  EXPECT_LE(tf.forecast_subspace.rank(), 2u);
}

// ---- analysis edge cases ------------------------------------------------

TEST(AnalysisEdgeCases, ZeroObservationsAreRejectedCleanly) {
  Rng rng(tk::case_seed(0xA7A, 0));
  const ErrorSubspace subspace = tk::gen_subspace().create(rng);
  Vector forecast(subspace.dim(), 0.0);

  const auto sc = essex::ocean::make_double_gyre_scenario(8, 8, 2);
  essex::obs::ObsOperator empty_h(sc.grid, essex::obs::ObservationSet{});
  Vector packed_forecast(
      essex::ocean::OceanState::packed_size(sc.grid), 0.0);
  EXPECT_THROW(essex::esse::analyze(packed_forecast,
                                    tk::gen_subspace({
                                        /*dim_lo=*/packed_forecast.size(),
                                        /*dim_hi=*/packed_forecast.size(),
                                    }).create(rng),
                                    ObsSet::from_operator(empty_h)),
               essex::PreconditionError);
  EXPECT_THROW(essex::esse::analyze(forecast, subspace,
                                    ObsSet::from_linear({})),
               essex::PreconditionError);
}

TEST(AnalysisEdgeCases, RankDeficientSubspacesAssimilateWithoutBlowup) {
  tk::SubspaceOpts opts;
  opts.dim_lo = 6;
  opts.dim_hi = 20;
  opts.rank_lo = 2;
  opts.rank_hi = 6;
  opts.allow_rank_deficient = true;
  opts.allow_degenerate = true;

  tk::PropConfig cfg;
  cfg.name = "rank-deficient-analysis";
  cfg.cases = 60;
  const auto r = tk::check(
      cfg, tk::gen_subspace(opts), [](const ErrorSubspace& s) {
        Rng inner(0xC0FFEE ^ s.dim() ^ (s.rank() << 8));
        Vector forecast(s.dim());
        for (auto& v : forecast) v = inner.normal();
        std::vector<essex::esse::LinearObservation> obs;
        for (int i = 0; i < 3; ++i) {
          essex::esse::LinearObservation ob;
          ob.stencil = {{inner.uniform_index(s.dim()), 1.0}};
          ob.value = inner.normal();
          ob.variance = 0.25;
          obs.push_back(ob);
        }
        const auto a =
            essex::esse::analyze(forecast, s, ObsSet::from_linear(obs));
        if (a.posterior_trace > a.prior_trace + 1e-9) return false;
        if (a.posterior_trace < 0) return false;
        for (double v : a.posterior_state)
          if (!std::isfinite(v)) return false;
        for (double v : a.posterior_subspace.sigmas())
          if (!std::isfinite(v) || v < 0) return false;
        return true;
      });
  ASSERT_TRUE(r.ok) << r.message;
}
