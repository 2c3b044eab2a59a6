// Tests of the in-process Fig. 4 runner on real threads.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/cycle.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::workflow {
namespace {

struct RunnerFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_double_gyre_scenario(12, 10, 3));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = esse::bootstrap_subspace(*model, sc->initial, 0.0, 3.0, 8,
                                        0.99, 6, /*seed=*/11);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace subspace;
};

TEST_F(RunnerFixture, ProducesConvergedForecastSubspace) {
  ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  cfg.svd_min_new_members = 4;
  esse::ForecastResult res = service::run_parallel_forecast(
      ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  EXPECT_GT(res.members_run, 4u);
  EXPECT_GT(res.forecast_subspace.rank(), 0u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_GE(res.mtc->svd_runs, 1u);
}

TEST_F(RunnerFixture, MatchesBlockSynchronousDriverStatistically) {
  // Both drivers estimate the same spread: their total variances must
  // agree to ensemble sampling accuracy.
  esse::CycleParams cp;
  cp.forecast_hours = 3.0;
  cp.threads = 2;
  cp.ensemble = {16, 2.0, 16};
  cp.convergence = {0.999999, 64};  // never converge early: run all 16
  cp.max_rank = 10;
  esse::ForecastResult block = esse::run_uncertainty_forecast(
      *model, sc->initial, subspace, 0.0, cp);

  ParallelRunnerConfig cfg;
  cfg.cycle = cp;
  cfg.pool_headroom = 1.0;
  esse::ForecastResult mtc = service::run_parallel_forecast(
      ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});

  ASSERT_EQ(block.members_run, 16u);
  ASSERT_EQ(mtc.members_run, 16u);
  // The block driver never attaches MTC accounting; the runner must.
  EXPECT_FALSE(block.mtc.has_value());
  ASSERT_TRUE(mtc.mtc.has_value());
  const double v1 = block.forecast_subspace.total_variance();
  const double v2 = mtc.forecast_subspace.total_variance();
  EXPECT_NEAR(v1, v2, 0.2 * std::max(v1, v2));
}

TEST_F(RunnerFixture, CancellationLeavesConsistentCounts) {
  ParallelRunnerConfig cfg;
  // Long members + a serial worker: the convergence decision always
  // lands while most of the pool is still queued, so cancellation is
  // certain to hit (short members can race the cancel and finish first).
  cfg.cycle.forecast_hours = 24.0;
  cfg.cycle.threads = 1;
  cfg.cycle.ensemble = {8, 2.0, 64};
  cfg.cycle.convergence = {0.5, 4};  // converges almost immediately
  cfg.pool_headroom = 2.0;
  telemetry::Sink sink("runner-cancel");
  ForecastRequest req{*model, sc->initial, subspace, 0.0, cfg};
  req.sink = &sink;
  esse::ForecastResult res = service::run_parallel_forecast(req);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_EQ(res.mtc->members_submitted,
            res.members_run + res.mtc->members_unused);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.mtc->members_unused, 0u);
  // The telemetry session and the accounting agree — the accounting is
  // fed by the same recorded metrics.
  EXPECT_EQ(sink.metrics().value("runner.members_submitted"),
            static_cast<double>(res.mtc->members_submitted));
  EXPECT_EQ(sink.metrics().value("runner.members_cancelled"),
            static_cast<double>(res.mtc->members_unused));
  EXPECT_EQ(sink.metrics().value("runner.svd_runs"),
            static_cast<double>(res.mtc->svd_runs));
  EXPECT_GT(sink.metrics().histogram_at("runner.member_s").count(), 0u);
}

}  // namespace
}  // namespace essex::workflow
