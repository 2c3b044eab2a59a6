// Tests of the in-process Fig. 4 runner on real threads.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/perturbation.hpp"
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

// ---- the drained fallback: reuse the last milestone, or recompute ------

bool same_bytes(const la::AlignedBuffer& a, const la::AlignedBuffer& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bytes(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Never converges (ρ stays below 1), so the request drains at Nmax = 16
/// after growing once from 8; milestones every `stride` members.
ParallelRunnerConfig draining_config(std::size_t stride) {
  ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 16};
  cfg.cycle.convergence = {1.0, 4};
  cfg.cycle.max_rank = 6;
  cfg.pool_headroom = 1.0;
  cfg.svd_min_new_members = stride;
  return cfg;
}

/// subspace_from_view(differ.view()) of the differ a request with `cfg`
/// fills from the members `ids`, rebuilt member by member.
esse::ErrorSubspace drained_reference(const RunnerFixture& f,
                                      const ParallelRunnerConfig& cfg,
                                      const std::vector<std::size_t>& ids) {
  const esse::CycleParams& cp = cfg.cycle;
  const la::Vector packed = f.sc->initial.pack();
  esse::Differ differ(esse::run_member(*f.model, packed, 0.0,
                                       cp.forecast_hours, false,
                                       cp.perturbation.seed, 0));
  const esse::PerturbationGenerator pert(f.subspace, cp.perturbation);
  for (const std::size_t id : ids) {
    differ.add_member(
        id, esse::run_member(*f.model, pert.perturbed_state(packed, id), 0.0,
                             cp.forecast_hours, cp.stochastic_members,
                             cp.perturbation.seed, id));
  }
  return esse::subspace_from_view(differ.view(), cp.variance_fraction,
                                  cp.max_rank);
}

struct DrainedRun {
  esse::ForecastResult result;
  double subspace_checks = 0.0;
};

DrainedRun run_draining(const RunnerFixture& f,
                        const ParallelRunnerConfig& cfg) {
  telemetry::Sink sink("drain");
  ForecastRequest req{*f.model, f.sc->initial, f.subspace, 0.0, cfg};
  req.sink = &sink;
  DrainedRun run;
  run.result = service::run_parallel_forecast(req);
  run.subspace_checks = sink.metrics().value("differ.subspace_checks");
  return run;
}

TEST_F(RunnerFixture, DrainedRunReusesItsLastMilestoneSubspace) {
  // Milestones 4, 8, 12, 16: the last one decomposed members 0..15,
  // exactly the drained set, so no subspace is computed after it.
  const ParallelRunnerConfig cfg = draining_config(4);
  const DrainedRun run = run_draining(*this, cfg);
  const esse::ForecastResult& res = run.result;
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.members_run, 16u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_EQ(res.mtc->svd_runs, 4u);
  EXPECT_EQ(run.subspace_checks, static_cast<double>(res.mtc->svd_runs));

  std::vector<std::size_t> ids(16);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const esse::ErrorSubspace ref = drained_reference(*this, cfg, ids);
  EXPECT_TRUE(same_bytes(res.forecast_subspace.sigmas(), ref.sigmas()));
  EXPECT_TRUE(same_bytes(res.forecast_subspace.modes().data(),
                         ref.modes().data()));
}

TEST_F(RunnerFixture, DrainedRunOffTheMilestoneGridRecomputes) {
  // Milestones 5, 10, 15 never cover all 16 members: one more check.
  const ParallelRunnerConfig cfg = draining_config(5);
  const DrainedRun run = run_draining(*this, cfg);
  const esse::ForecastResult& res = run.result;
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.members_run, 16u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_EQ(res.mtc->svd_runs, 3u);
  EXPECT_EQ(run.subspace_checks,
            static_cast<double>(res.mtc->svd_runs + 1));

  std::vector<std::size_t> ids(16);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const esse::ErrorSubspace ref = drained_reference(*this, cfg, ids);
  EXPECT_TRUE(same_bytes(res.forecast_subspace.sigmas(), ref.sigmas()));
  EXPECT_TRUE(same_bytes(res.forecast_subspace.modes().data(),
                         ref.modes().data()));
}

TEST_F(RunnerFixture, DrainedRunWithALostMemberRecomputes) {
  // Member 13 fails every attempt and is lost: the id prefix stops at 13,
  // the last milestone is 12, and the 15 survivors are decomposed anew.
  ParallelRunnerConfig cfg = draining_config(4);
  cfg.max_retries = 0;
  cfg.arrival_hook = [](std::size_t id) {
    if (id == 13) throw std::runtime_error("member 13 always fails");
  };
  const DrainedRun run = run_draining(*this, cfg);
  const esse::ForecastResult& res = run.result;
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.members_run, 15u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_EQ(res.mtc->members_lost, 1u);
  EXPECT_EQ(res.mtc->svd_runs, 3u);
  EXPECT_EQ(run.subspace_checks,
            static_cast<double>(res.mtc->svd_runs + 1));

  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 16; ++i)
    if (i != 13) ids.push_back(i);
  cfg.arrival_hook = nullptr;
  const esse::ErrorSubspace ref = drained_reference(*this, cfg, ids);
  EXPECT_TRUE(same_bytes(res.forecast_subspace.sigmas(), ref.sigmas()));
  EXPECT_TRUE(same_bytes(res.forecast_subspace.modes().data(),
                         ref.modes().data()));
}

// ---- the block-synchronous driver and the bootstrap -------------------------

/// `f`'s subspace with one NaN in its leading mode: every perturbed member
/// integrates to a non-finite state, the central run stays finite.
esse::ErrorSubspace poisoned_subspace(const RunnerFixture& f) {
  la::Matrix modes = f.subspace.modes();
  modes(0, 0) = std::numeric_limits<double>::quiet_NaN();
  return esse::ErrorSubspace(std::move(modes), f.subspace.sigmas());
}

/// Runs `fn`, which must throw PreconditionError; returns its message.
template <typename Fn>
std::string precondition_message(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a PreconditionError";
  return {};
}

TEST_F(RunnerFixture, BlockDriverRefusesADivergedMemberAtAnyThreadCount) {
  // The differ refuses a non-finite member. A member pool that dropped the
  // error would leave the ensemble short of its target forever.
  const esse::ErrorSubspace poisoned = poisoned_subspace(*this);
  for (const std::size_t threads : {1u, 2u}) {
    esse::CycleParams cp;
    cp.forecast_hours = 3.0;
    cp.threads = threads;
    cp.ensemble = {4, 2.0, 8};
    const std::string what = precondition_message([&] {
      esse::run_uncertainty_forecast(*model, sc->initial, poisoned, 0.0, cp);
    });
    EXPECT_NE(what.find("non-finite ensemble member column"),
              std::string::npos)
        << "threads = " << threads << ": " << what;
  }
}

TEST_F(RunnerFixture, ThreadedBootstrapReportsADivergedSample) {
  // Infinite model noise: every stochastic sample diverges, the
  // deterministic reference run does not.
  ocean::ModelParams params = sc->params;
  params.noise_temp = std::numeric_limits<double>::infinity();
  const ocean::OceanModel diverging(sc->grid, params,
                                    ocean::WindForcing(sc->wind), sc->initial);
  for (const std::size_t threads : {1u, 2u}) {
    const std::string what = precondition_message([&] {
      esse::bootstrap_subspace(diverging, sc->initial, 0.0, 3.0, 4, 0.99, 4,
                               /*seed=*/11, threads);
    });
    EXPECT_NE(what.find("non-finite ensemble member column"),
              std::string::npos)
        << "threads = " << threads << ": " << what;
  }
}

TEST_F(RunnerFixture, BlockDriverTakesItsLastCheckAsTheForecastSubspace) {
  // Unconverged 8 → 16: the checks at 8 and 16 members are the only
  // decompositions; the final subspace is the one checked at 16.
  ParallelRunnerConfig cfg = draining_config(8);
  esse::CycleParams& cp = cfg.cycle;
  cp.check_interval = 8;
  telemetry::Sink sink("block");
  cp.sink = &sink;
  const esse::ForecastResult res =
      esse::run_uncertainty_forecast(*model, sc->initial, subspace, 0.0, cp);
  cp.sink = nullptr;
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.members_run, 16u);
  EXPECT_EQ(sink.metrics().value("esse.convergence_checks"), 2.0);
  EXPECT_EQ(sink.metrics().value("differ.subspace_checks"),
            sink.metrics().value("esse.convergence_checks"));

  std::vector<std::size_t> ids(16);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const esse::ErrorSubspace ref = drained_reference(*this, cfg, ids);
  EXPECT_TRUE(same_bytes(res.forecast_subspace.sigmas(), ref.sigmas()));
  EXPECT_TRUE(same_bytes(res.forecast_subspace.modes().data(),
                         ref.modes().data()));
}

}  // namespace
}  // namespace essex::workflow
