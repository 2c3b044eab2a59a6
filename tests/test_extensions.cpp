// Tests for the extension features: generic linear-observation analysis,
// output-transfer strategies (§5.3.2) and multi-core "nested MPI" jobs
// (§7).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/analysis.hpp"
#include "linalg/qr.hpp"
#include "linalg/stats.hpp"
#include "mtc/output_transfer.hpp"
#include "mtc/scheduler.hpp"
#include "ocean/monterey.hpp"

namespace essex {
namespace {

la::Matrix random_orthonormal(std::size_t m, std::size_t k, Rng& rng) {
  la::Matrix a(m, k);
  for (auto& x : a.data()) x = rng.normal();
  la::orthonormalize_columns(a);
  return a;
}

// ---- generic linear observations (ObsSet::from_linear) ----------------------

TEST(AnalyzeLinear, MatchesDirectObservationOfOneComponent) {
  Rng rng(1);
  const std::size_t m = 30;
  esse::ErrorSubspace sub(random_orthonormal(m, 4, rng), {2, 1.5, 1, 0.5});
  la::Vector forecast(m, 0.0);
  // Observe x[3] = 1 with small noise: the posterior must move x[3]
  // toward 1 (as far as the subspace allows).
  esse::LinearObservation ob;
  ob.stencil = {{3, 1.0}};
  ob.value = 1.0;
  ob.variance = 1e-6;
  auto res = esse::analyze(forecast, sub, esse::ObsSet::from_linear({ob}));
  EXPECT_GT(res.posterior_state[3], 0.3);
  EXPECT_LT(res.posterior_innovation_rms, res.prior_innovation_rms);
  EXPECT_LT(res.posterior_trace, res.prior_trace);
}

TEST(AnalyzeLinear, AgreesWithObsOperatorAnalyze) {
  // The gridded and the generic linear front ends must produce the same
  // posterior for equivalent observations.
  auto sc = ocean::make_monterey_scenario(16, 14, 3);
  Rng rng(2);
  const std::size_t dim = ocean::OceanState::packed_size(sc.grid);
  esse::ErrorSubspace sub(random_orthonormal(dim, 5, rng),
                          {1, 0.8, 0.6, 0.4, 0.2});
  la::Vector forecast = sc.initial.pack();

  obs::Observation ob;
  ob.kind = obs::VarKind::kTemperature;
  ob.x_km = 4 * sc.grid.dx_km();  // exactly on a grid point
  ob.y_km = 5 * sc.grid.dy_km();
  ob.depth_m = 0.0;
  ob.value = 14.2;
  ob.noise_std = 0.3;
  obs::ObsOperator h(sc.grid, {ob});
  auto res_grid = esse::analyze(forecast, sub, esse::ObsSet::from_operator(h));

  esse::LinearObservation lin;
  lin.stencil = {{sc.grid.index(4, 5, 0), 1.0}};
  lin.value = 14.2;
  lin.variance = 0.09;
  auto res_lin = esse::analyze(forecast, sub, esse::ObsSet::from_linear({lin}));

  EXPECT_NEAR(la::rms_diff(res_grid.posterior_state,
                           res_lin.posterior_state),
              0.0, 1e-10);
  EXPECT_NEAR(res_grid.posterior_trace, res_lin.posterior_trace, 1e-10);
}

TEST(AnalyzeLinear, ValidatesStencilIndices) {
  Rng rng(3);
  esse::ErrorSubspace sub(random_orthonormal(10, 2, rng), {1, 0.5});
  esse::LinearObservation ob;
  ob.stencil = {{99, 1.0}};
  EXPECT_THROW(esse::analyze(la::Vector(10, 0.0), sub,
                             esse::ObsSet::from_linear({ob})),
               PreconditionError);
}

// ---- output-transfer strategies ---------------------------------------------------

std::vector<double> batch_completions(std::size_t n, double wave_gap) {
  // Three near-simultaneous waves, the §5.3.2 worst case for push.
  std::vector<double> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(100.0 + wave_gap * static_cast<double>(i / (n / 3 + 1)) +
                0.01 * static_cast<double>(i % (n / 3 + 1)));
  }
  return t;
}

TEST(OutputTransfer, PushBurstsPullPaces) {
  const auto completions = batch_completions(90, 300.0);
  mtc::OutputReturnConfig cfg;
  cfg.file_bytes = 11e6;
  cfg.gateway_bps = 50e6;
  cfg.strategy = mtc::OutputTransfer::kPushImmediate;
  const auto push = simulate_output_return(completions, cfg);
  cfg.strategy = mtc::OutputTransfer::kPullPaced;
  const auto pull = simulate_output_return(completions, cfg);

  // Push opens ~a wave of concurrent WAN connections; pull holds the
  // configured number of streams.
  EXPECT_GT(push.peak_concurrent_wan, 20u);
  EXPECT_LE(pull.peak_concurrent_wan, cfg.agent_streams);
  // Both deliver everything; the gateway moves the same bytes.
  EXPECT_NEAR(push.gateway_busy_s, pull.gateway_busy_s, 30.0);
}

TEST(OutputTransfer, PushPaysPerConnectionSetup) {
  const auto completions = batch_completions(60, 1e6);  // isolated waves
  mtc::OutputReturnConfig cfg;
  cfg.connection_setup_s = 5.0;  // exaggerated handshake
  cfg.strategy = mtc::OutputTransfer::kPushImmediate;
  const auto push = simulate_output_return(completions, cfg);
  cfg.strategy = mtc::OutputTransfer::kPullPaced;
  const auto pull = simulate_output_return(completions, cfg);
  // Pull amortises the handshake over its persistent channels.
  EXPECT_LT(pull.mean_latency_s, push.mean_latency_s + 5.0);
}

TEST(OutputTransfer, TwoStageDecouplesNodesFromWan) {
  const auto completions = batch_completions(90, 300.0);
  mtc::OutputReturnConfig cfg;
  cfg.strategy = mtc::OutputTransfer::kTwoStagePut;
  const auto two = simulate_output_return(completions, cfg);
  EXPECT_LE(two.peak_concurrent_wan, cfg.agent_streams);
  EXPECT_GT(two.all_home_s, 100.0);
}

TEST(OutputTransfer, AllStrategiesDeliverEverything) {
  const auto completions = batch_completions(30, 50.0);
  for (auto strat : {mtc::OutputTransfer::kPushImmediate,
                     mtc::OutputTransfer::kPullPaced,
                     mtc::OutputTransfer::kTwoStagePut}) {
    mtc::OutputReturnConfig cfg;
    cfg.strategy = strat;
    const auto m = simulate_output_return(completions, cfg);
    EXPECT_GT(m.all_home_s, 0.0) << to_string(strat);
    EXPECT_GE(m.max_latency_s, m.mean_latency_s) << to_string(strat);
  }
}

TEST(OutputTransfer, ValidatesInputs) {
  mtc::OutputReturnConfig cfg;
  EXPECT_THROW(simulate_output_return({}, cfg), PreconditionError);
  cfg.agent_streams = 0;
  EXPECT_THROW(simulate_output_return({1.0}, cfg), PreconditionError);
}

// ---- multi-core (nested MPI) jobs -------------------------------------------------------

mtc::ClusterSpec quad_cluster(std::size_t nodes) {
  mtc::ClusterSpec spec;
  spec.name = "quad";
  spec.nfs_capacity_bps = 1e9;
  for (std::size_t i = 0; i < nodes; ++i) {
    mtc::NodeSpec n;
    n.name = "q";
    n.name += std::to_string(i);
    n.cores = 4;
    n.cpu_speed = 1.0;
    spec.nodes.push_back(n);
  }
  return spec;
}

TEST(MultiCoreJobs, ReservesCoresOnOneNode) {
  mtc::Simulator sim;
  mtc::SchedulerParams p = mtc::sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  mtc::ClusterScheduler sched(sim, quad_cluster(1), p);
  mtc::JobId id = sched.submit(
      [](mtc::JobContext& ctx) { ctx.compute(5.0, [&ctx] { ctx.finish(); }); },
      3);
  sim.run_until(1.0);
  EXPECT_EQ(sched.free_cores(), 1u);
  sim.run();
  EXPECT_EQ(sched.record(id).cores, 3u);
  EXPECT_EQ(sched.free_cores(), 4u);
}

TEST(MultiCoreJobs, RejectsJobsLargerThanAnyNode) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, quad_cluster(2), mtc::sge_params());
  EXPECT_THROW(sched.submit([](mtc::JobContext&) {}, 5), PreconditionError);
  EXPECT_THROW(sched.submit([](mtc::JobContext&) {}, 0), PreconditionError);
}

TEST(MultiCoreJobs, BackfillFillsFragmentationHoles) {
  // One 3-core job leaves a 1-core hole per node; with backfill a later
  // 1-core job runs immediately, with strict FIFO it waits behind a
  // queued 3-core job.
  auto run_mode = [](bool strict) {
    mtc::Simulator sim;
    mtc::SchedulerParams p = mtc::sge_params();
    p.dispatch_latency_s = 0.0;
    p.array_submit_overhead_s = 0.0;
    p.strict_fifo = strict;
    mtc::ClusterScheduler sched(sim, quad_cluster(1), p);
    auto job = [](double secs) {
      return [secs](mtc::JobContext& ctx) {
        ctx.compute(secs, [&ctx] { ctx.finish(); });
      };
    };
    sched.submit(job(100.0), 3);           // occupies 3 of 4 cores
    sched.submit(job(100.0), 3);           // cannot fit until the first ends
    mtc::JobId small = sched.submit(job(10.0), 1);  // fits in the hole
    sim.run();
    return sched.record(small).started;
  };
  const double backfill_start = run_mode(false);
  const double fifo_start = run_mode(true);
  EXPECT_LT(backfill_start, 1.0);
  EXPECT_GT(fifo_start, 99.0);
}

TEST(MultiCoreJobs, FragmentationLowersUtilisation) {
  // 3-core jobs on 4-core nodes waste a core each: 8 jobs on 4 nodes
  // take 2 rounds even though 24 core-demand < 16 cores × 2 rounds.
  mtc::Simulator sim;
  mtc::SchedulerParams p = mtc::sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  mtc::ClusterScheduler sched(sim, quad_cluster(4), p);
  double last = 0;
  sched.set_completion_hook(
      [&](const mtc::JobRecord& r) { last = std::max(last, r.finished); });
  for (int i = 0; i < 8; ++i) {
    sched.submit(
        [](mtc::JobContext& ctx) {
          ctx.compute(50.0, [&ctx] { ctx.finish(); });
        },
        3);
  }
  sim.run();
  EXPECT_NEAR(last, 100.0, 1.0);  // two sequential rounds of 4
}

}  // namespace
}  // namespace essex
