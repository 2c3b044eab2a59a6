// Unit tests: cluster model and SGE/Condor scheduler behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"

namespace essex::mtc {
namespace {

ClusterSpec tiny_cluster(std::size_t nodes = 2, std::size_t cores = 2,
                         double speed = 1.0) {
  ClusterSpec spec;
  spec.name = "tiny";
  spec.nfs_capacity_bps = 1000.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    n.cpu_speed = speed;
    spec.nodes.push_back(n);
  }
  return spec;
}

ClusterScheduler::JobBody compute_job(double seconds) {
  return [seconds](JobContext& ctx) {
    ctx.compute(seconds, [&ctx] { ctx.finish(); });
  };
}

// ---- cluster specs ------------------------------------------------------------

TEST(Cluster, HomeClusterMatchesPaperShape) {
  ClusterSpec home = make_home_cluster(15);
  // 114×2 + 3×4 + 8 head cores = 248 total.
  EXPECT_EQ(home.total_cores(), 114u * 2 + 3u * 4 + 8);
  // ~210 cores free for the run (paper §5.2.1): 99×2 + 12 + head 8.
  EXPECT_NEAR(static_cast<double>(home.available_cores()), 218, 10);
  EXPECT_DOUBLE_EQ(home.nfs_capacity_bps, 1250e6);
}

TEST(Cluster, BusyNodesBounded) {
  EXPECT_THROW(make_home_cluster(200), PreconditionError);
}

// ---- SGE dispatch ---------------------------------------------------------------

TEST(SgeScheduler, RunsJobsToCompletion) {
  Simulator sim;
  ClusterScheduler sched(sim, tiny_cluster(), sge_params());
  std::size_t done = 0;
  sched.set_completion_hook([&](const JobRecord& r) {
    if (r.status == JobStatus::kDone) ++done;
  });
  for (int i = 0; i < 10; ++i) sched.submit(compute_job(10.0));
  sim.run();
  EXPECT_EQ(done, 10u);
  EXPECT_EQ(sched.free_cores(), 4u);
}

TEST(SgeScheduler, ReassignsImmediatelyOnCompletion) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  // Two sequential 10 s jobs on 1 core: makespan 20 s (no scheduler gap).
  double last = 0;
  sched.set_completion_hook([&](const JobRecord& r) { last = r.finished; });
  sched.submit(compute_job(10.0));
  sched.submit(compute_job(10.0));
  sim.run();
  EXPECT_NEAR(last, 20.0, 1e-6);
}

TEST(SgeScheduler, PrefersFasterNodes) {
  Simulator sim;
  ClusterSpec spec = tiny_cluster(1, 1, 1.0);
  NodeSpec fast;
  fast.name = "fast";
  fast.cores = 1;
  fast.cpu_speed = 2.0;
  spec.nodes.push_back(fast);
  ClusterScheduler sched(sim, spec, sge_params());
  JobId id = sched.submit(compute_job(10.0));
  sim.run();
  EXPECT_EQ(sched.record(id).node_index, 1u);  // the fast node
}

TEST(SgeScheduler, ComputeTimeScalesWithNodeSpeed) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1, 2.0), p);
  JobId id = sched.submit(compute_job(10.0));
  sim.run();
  const JobRecord& r = sched.record(id);
  EXPECT_NEAR(r.finished - r.started, 5.0, 1e-9);  // 10 s / speed 2
}

TEST(SgeScheduler, ReservedNodesAreNotUsed) {
  Simulator sim;
  ClusterSpec spec = tiny_cluster(2, 2);
  spec.nodes[0].reserved_by_others = true;
  ClusterScheduler sched(sim, spec, sge_params());
  EXPECT_EQ(sched.free_cores(), 2u);
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sched.submit(compute_job(1.0)));
  sim.run();
  for (JobId id : ids) EXPECT_EQ(sched.record(id).node_index, 1u);
}

// ---- Condor dispatch ---------------------------------------------------------------

TEST(CondorScheduler, WaitsForNegotiationCycle) {
  Simulator sim;
  SchedulerParams p = condor_params(100.0);
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  JobId a = sched.submit(compute_job(10.0));
  JobId b = sched.submit(compute_job(10.0));
  sim.run();
  // First job starts at the first cycle (t=100); second waits for the
  // cycle after the first finishes (t=200).
  EXPECT_NEAR(sched.record(a).started, 100.0, 1.0);
  EXPECT_NEAR(sched.record(b).started, 200.0, 1.0);
}

TEST(CondorScheduler, SlowerThanSgeOnManyJobWorkload) {
  auto run_with = [](SchedulerParams p) {
    Simulator sim;
    p.dispatch_latency_s = 0.0;
    ClusterScheduler sched(sim, tiny_cluster(4, 2), p);
    double last = 0;
    sched.set_completion_hook(
        [&](const JobRecord& r) { last = std::max(last, r.finished); });
    for (int i = 0; i < 40; ++i) sched.submit(compute_job(60.0));
    sim.run();
    return last;
  };
  const double sge = run_with(sge_params());
  const double condor = run_with(condor_params(60.0));
  EXPECT_GT(condor, sge * 1.05);  // the paper's 10–20 % gap direction
  EXPECT_LT(condor, sge * 2.0);
}

// ---- job context primitives -----------------------------------------------------------

TEST(JobContext, TransfersContendOnNfs) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(2, 1), p);
  // Two jobs each read 1000 B from a 1000 B/s server concurrently: 2 s.
  std::vector<double> finished;
  sched.set_completion_hook(
      [&](const JobRecord& r) { finished.push_back(r.finished); });
  for (int i = 0; i < 2; ++i) {
    sched.submit([&sched](JobContext& ctx) {
      ctx.transfer(sched.nfs(), 1000.0, [&ctx] { ctx.finish(); });
    });
  }
  sim.run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_NEAR(finished[0], 2.0, 1e-6);
  EXPECT_NEAR(finished[1], 2.0, 1e-6);
}

TEST(JobContext, AccountsCpuVsIo) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  JobId id = sched.submit([&sched](JobContext& ctx) {
    ctx.transfer(sched.nfs(), 3000.0, [&ctx] {  // 3 s of I/O
      ctx.compute(7.0, [&ctx] { ctx.finish(); });  // 7 s of CPU
    });
  });
  sim.run();
  const JobRecord& r = sched.record(id);
  EXPECT_NEAR(r.io_seconds, 3.0, 1e-6);
  EXPECT_NEAR(r.cpu_seconds, 7.0, 1e-6);
  EXPECT_NEAR(r.cpu_utilization(), 0.7, 1e-6);
}

TEST(JobContext, BusyWaitCountsAsCpuAndIgnoresSpeed) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1, 4.0), p);
  JobId id = sched.submit([](JobContext& ctx) {
    ctx.busy_wait(5.0, [&ctx] { ctx.finish(); });
  });
  sim.run();
  const JobRecord& r = sched.record(id);
  EXPECT_NEAR(r.finished - r.started, 5.0, 1e-9);  // NOT divided by 4
  EXPECT_NEAR(r.cpu_seconds, 5.0, 1e-9);
}

// ---- cancellation -----------------------------------------------------------------------

TEST(Cancellation, QueuedJobNeverRuns) {
  Simulator sim;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), sge_params());
  JobId a = sched.submit(compute_job(100.0));
  JobId b = sched.submit(compute_job(100.0));
  sim.run_until(50.0);
  sched.cancel(b);
  sim.run();
  EXPECT_EQ(sched.record(a).status, JobStatus::kDone);
  EXPECT_EQ(sched.record(b).status, JobStatus::kCancelled);
}

TEST(Cancellation, RunningJobFreesCoreImmediately) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  JobId a = sched.submit(compute_job(100.0));
  JobId b = sched.submit(compute_job(10.0));
  sim.run_until(5.0);
  sched.cancel(a);
  sim.run();
  EXPECT_EQ(sched.record(a).status, JobStatus::kCancelled);
  const JobRecord& rb = sched.record(b);
  EXPECT_EQ(rb.status, JobStatus::kDone);
  EXPECT_NEAR(rb.started, 5.0, 1e-6);  // took over the freed core
}

TEST(Cancellation, KilledJobContinuationsAreDropped) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  bool second_stage_ran = false;
  JobId a = sched.submit([&](JobContext& ctx) {
    ctx.compute(10.0, [&ctx, &second_stage_ran] {
      second_stage_ran = true;
      ctx.finish();
    });
  });
  sim.run_until(5.0);
  sched.cancel(a);
  sim.run();
  EXPECT_FALSE(second_stage_ran);
  EXPECT_EQ(sched.record(a).status, JobStatus::kCancelled);
}

// ---- submission overheads & arrays -------------------------------------------------------

TEST(Submission, ArrayOverheadIsLowerThanSingleton) {
  auto first_start = [](bool arrays) {
    Simulator sim;
    SchedulerParams p = sge_params();
    p.use_job_arrays = arrays;
    p.dispatch_latency_s = 0.0;
    ClusterScheduler sched(sim, tiny_cluster(64, 2), p);
    std::vector<JobId> ids;
    for (int i = 0; i < 100; ++i) ids.push_back(sched.submit(compute_job(1.0)));
    sim.run();
    // Last job's submit time shows the accumulated master overhead.
    return sched.record(ids.back()).submitted;
  };
  EXPECT_LT(first_start(true), first_start(false));
}

// ---- failure injection ---------------------------------------------------------------------

TEST(FailureInjection, SomeJobsFailAtConfiguredRate) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.faults.segment.probability = 0.3;
  p.faults.seed = 99;
  ClusterScheduler sched(sim, tiny_cluster(8, 2), p);
  std::size_t failed = 0, done = 0;
  sched.set_completion_hook([&](const JobRecord& r) {
    if (r.status == JobStatus::kFailed) ++failed;
    if (r.status == JobStatus::kDone) ++done;
  });
  for (int i = 0; i < 200; ++i) sched.submit(compute_job(5.0));
  sim.run();
  EXPECT_EQ(failed + done, 200u);
  EXPECT_NEAR(static_cast<double>(failed), 60.0, 25.0);
  EXPECT_GT(done, 100u);
}

TEST(FailureInjection, FailedJobStillFreesCore) {
  Simulator sim;
  SchedulerParams p = sge_params();
  p.faults.segment.probability = 1.0;  // everything dies
  p.dispatch_latency_s = 0.0;
  p.array_submit_overhead_s = 0.0;
  ClusterScheduler sched(sim, tiny_cluster(1, 1), p);
  for (int i = 0; i < 5; ++i) sched.submit(compute_job(10.0));
  sim.run();
  std::size_t failed = 0;
  for (const auto& r : sched.records())
    failed += (r.status == JobStatus::kFailed);
  EXPECT_EQ(failed, 5u);
  EXPECT_EQ(sched.free_cores(), 1u);
}

}  // namespace
}  // namespace essex::mtc
