// Tests for verification metrics, the real-time experiment driver
// (Fig. 1) and the OpenDAP staging mode (§5.3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/subspace_io.hpp"
#include "esse/verification.hpp"
#include "linalg/qr.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "ocean/monterey.hpp"
#include "workflow/esse_workflow_sim.hpp"
#include "workflow/covariance_files.hpp"
#include "workflow/realtime_driver.hpp"
#include "testkit/temp_dir.hpp"

namespace essex {
namespace {

// ---- skill scores -------------------------------------------------------------

TEST(Skill, PerfectEstimateScoresZeroRmseUnitAc) {
  la::Vector truth{1, 2, 3, 4};
  la::Vector clim{0, 0, 0, 0};
  auto s = esse::skill(truth, truth, clim);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
  EXPECT_DOUBLE_EQ(s.bias, 0.0);
  EXPECT_NEAR(s.anomaly_correlation, 1.0, 1e-12);
}

TEST(Skill, BiasAndRmseMatchHandComputation) {
  la::Vector est{2, 3};
  la::Vector truth{1, 1};
  la::Vector clim{0, 0};
  auto s = esse::skill(est, truth, clim);
  EXPECT_NEAR(s.bias, 1.5, 1e-12);
  EXPECT_NEAR(s.rmse, std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(Skill, AntiCorrelatedAnomaliesScoreMinusOne) {
  la::Vector clim{0, 0, 0};
  la::Vector truth{1, 0, -1};
  la::Vector est{-1, 0, 1};
  auto s = esse::skill(est, truth, clim);
  EXPECT_NEAR(s.anomaly_correlation, -1.0, 1e-12);
}

TEST(Skill, ValidatesLengths) {
  EXPECT_THROW(esse::skill({1, 2}, {1}, {0, 0}), PreconditionError);
}

// ---- spread–skill -----------------------------------------------------------------

TEST(SpreadSkill, CalibratedWhenSpreadMatchesError) {
  Rng rng(2);
  const std::size_t m = 400;
  la::Matrix e(m, 1);
  for (std::size_t i = 0; i < m; ++i) e(i, 0) = 1.0 / std::sqrt(m);
  // sigma chosen so RMS marginal spread = sigma/sqrt(m).
  esse::ErrorSubspace sub(e, {2.0});
  la::Vector truth(m, 0.0), est(m, 0.0);
  // Error with rms equal to the predicted spread 2/sqrt(m).
  const double target = 2.0 / std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < m; ++i)
    est[i] = target * ((i % 2 == 0) ? 1.0 : -1.0);
  const double ratio = esse::spread_skill_ratio(sub, est, truth);
  EXPECT_NEAR(ratio, 1.0, 1e-9);
}

// ---- realtime driver ------------------------------------------------------------------

TEST(RealtimeDriver, MultiCycleCampaignBeatsPersistence) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  workflow::ForecastTimeline tl(0.0, 72.0);
  tl.add_observation_period({0.0, 12.0, 13.0, ""});
  tl.add_observation_period({12.0, 24.0, 25.0, ""});
  tl.add_procedure({14.0, 16.0, 0.0, 36.0});
  tl.add_procedure({26.0, 28.0, 0.0, 48.0});

  workflow::RealtimeConfig cfg;
  cfg.cycle.ensemble = {8, 2.0, 8};
  cfg.cycle.convergence = {0.95, 100};
  cfg.cycle.max_rank = 8;
  cfg.max_rank = 8;

  auto report = workflow::run_realtime_experiment(model, sc.initial, tl, cfg);
  ASSERT_EQ(report.procedures.size(), 2u);
  ASSERT_EQ(report.persistence_rmse.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& p = report.procedures[k];
    EXPECT_GT(p.obs_assimilated, 20u);
    EXPECT_EQ(p.members_run, 8u);
    // The assimilating system beats persistence at every nowcast.
    EXPECT_LT(p.nowcast_posterior.rmse, report.persistence_rmse[k]);
    EXPECT_GT(p.spread_skill, 0.0);
  }
  // First-cycle analysis improves on its prior (large IC error regime).
  EXPECT_LT(report.procedures[0].nowcast_posterior.rmse,
            report.procedures[0].nowcast_prior.rmse);
}

TEST(RealtimeDriver, ValidatesTimeline) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  workflow::ForecastTimeline empty(0.0, 10.0);
  workflow::RealtimeConfig cfg;
  EXPECT_THROW(
      workflow::run_realtime_experiment(model, sc.initial, empty, cfg),
      PreconditionError);
}

// ---- OpenDAP staging (§5.3.2) -------------------------------------------------------

TEST(OpenDapStaging, SlowerThanNfsDirectDueToRequestLatency) {
  auto run_mode = [](mtc::InputStaging staging) {
    workflow::EsseWorkflowConfig cfg;
    cfg.shape.pert_cpu_s = 0.5;
    cfg.shape.pert_fs_s = 2.0;
    cfg.shape.input_bytes = 100e6;
    cfg.shape.pemodel_cpu_s = 50.0;
    cfg.shape.output_bytes = 1e6;
    cfg.shape.opendap_requests = 100;
    cfg.shape.opendap_request_latency_s = 0.1;
    cfg.staging = staging;
    cfg.initial_members = 16;
    cfg.converge_at = 16;
    cfg.max_members = 16;
    cfg.svd_stride = 8;
    mtc::Simulator sim;
    mtc::ClusterSpec spec;
    spec.name = "t";
    spec.nfs_capacity_bps = 1250e6;
    for (int i = 0; i < 8; ++i) {
      mtc::NodeSpec n;
      n.name = "n";
      n.cores = 2;
      spec.nodes.push_back(n);
    }
    mtc::ClusterScheduler sched(sim, spec, mtc::sge_params());
    return workflow::run_parallel_esse(sim, sched, cfg);
  };
  const auto nfs = run_mode(mtc::InputStaging::kNfsDirect);
  const auto dap = run_mode(mtc::InputStaging::kOpenDapRemote);
  EXPECT_GT(dap.makespan_s, nfs.makespan_s + 5.0);  // 10 s latency/job
  EXPECT_LT(dap.pert_cpu_utilization, nfs.pert_cpu_utilization);
  EXPECT_EQ(dap.members_done, 16u);
}

}  // namespace
}  // namespace essex

// ---- on-disk three-file covariance protocol (§4.1) ---------------------------

namespace essex {
namespace {

la::Matrix ortho_for_files(std::size_t m, std::size_t k, Rng& rng) {
  la::Matrix a(m, k);
  for (auto& x : a.data()) x = rng.normal();
  la::orthonormalize_columns(a);
  return a;
}

TEST(CovarianceFiles, EmptyUntilFirstPromote) {
  testkit::TempDir tmp;
  workflow::CovarianceFileStore store(tmp.file("cov"));
  store.cleanup();
  EXPECT_FALSE(store.read_safe().has_value());
  store.cleanup();
}

TEST(CovarianceFiles, PublishPromotesAtomicallyAndRoundTrips) {
  testkit::TempDir tmp;
  workflow::CovarianceFileStore store(tmp.file("cov"));
  store.cleanup();
  Rng rng(9);
  esse::ErrorSubspace sub(ortho_for_files(30, 3, rng), {3, 2, 1});
  EXPECT_EQ(store.publish(sub), 1u);
  auto back = store.read_safe();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rank(), 3u);
  EXPECT_NEAR(esse::subspace_similarity(*back, sub), 1.0, 1e-12);
  store.cleanup();
}

TEST(CovarianceFiles, AlternatingPairNeverLeavesStaleLiveFiles) {
  testkit::TempDir tmp;
  workflow::CovarianceFileStore store(tmp.file("cov"));
  store.cleanup();
  Rng rng(10);
  for (int v = 1; v <= 5; ++v) {
    esse::ErrorSubspace sub(ortho_for_files(20, 2, rng),
                            {static_cast<double>(v + 1), 1.0});
    EXPECT_EQ(store.publish(sub), static_cast<std::uint64_t>(v));
    auto back = store.read_safe();
    ASSERT_TRUE(back.has_value());
    EXPECT_DOUBLE_EQ(back->sigmas()[0], v + 1.0);
  }
  store.cleanup();
}

TEST(CovarianceFiles, FailedPromotionLeavesTheLivePairReadable) {
  namespace fs = std::filesystem;
  testkit::TempDir tmp;
  workflow::CovarianceFileStore store(tmp.file("cov"));
  store.cleanup();
  Rng rng(12);
  esse::ErrorSubspace sub(ortho_for_files(24, 2, rng), {2.0, 1.0});

  // Block the promote: rename(2) cannot replace a non-empty directory,
  // so planting one at the safe path fails the promotion step — and only
  // that step.
  fs::create_directories(store.safe_path());
  std::ofstream(store.safe_path() + "/blocker") << "x";
  EXPECT_THROW(store.publish(sub), Error);
  EXPECT_EQ(store.version(), 0u);

  // The live file was fully written before the failed rename and must
  // still be readable — the §4.1 protocol's point is that a broken
  // promotion never corrupts what the writer already staged.
  const esse::ErrorSubspace live =
      esse::load_subspace(tmp.file("cov.live.a"));
  EXPECT_NEAR(esse::subspace_similarity(live, sub), 1.0, 1e-12);
  // A reader polling the safe path sees "nothing promoted", not garbage.
  EXPECT_FALSE(store.read_safe().has_value());

  // Clearing the obstruction lets the same writer retry: the store does
  // not advance its alternating pair (or version) on a failed promote.
  fs::remove_all(store.safe_path());
  EXPECT_EQ(store.publish(sub), 1u);
  const auto back = store.read_safe();
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(esse::subspace_similarity(*back, sub), 1.0, 1e-12);
  store.cleanup();
}

TEST(CovarianceFiles, ConcurrentReaderNeverSeesTornSnapshot) {
  testkit::TempDir tmp;
  workflow::CovarianceFileStore store(tmp.file("cov"));
  store.cleanup();
  Rng rng(11);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int v = 1; v <= 60; ++v) {
      // Sigmas all equal to v: a torn read would mix versions.
      la::Vector sig(4, static_cast<double>(v));
      esse::ErrorSubspace sub(ortho_for_files(64, 4, rng), sig);
      store.publish(sub);
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto snap = store.read_safe();
      if (!snap) continue;
      for (double s : snap->sigmas()) {
        if (s != snap->sigmas()[0]) ++bad;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  store.cleanup();
}

}  // namespace
}  // namespace essex
