// Failure-path tests of the unified ExecutionBackend fault layer:
// retry/backoff, runtime-based timeouts, straggler speculation, node
// outages with eviction + recovery, the per-job injection RNG streams,
// and graceful ensemble degradation in both Fig.-4 drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "esse/cycle.hpp"
#include "mtc/cluster.hpp"
#include "mtc/execution_backend.hpp"
#include "mtc/fault.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/esse_workflow_sim.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::mtc {
namespace {

// ---- a hand-cranked backend for deterministic executor tests -------------------

/// Manual-clock ExecutionBackend: the test decides when attempts start,
/// finish, and when time (and therefore timers) advances.
class MockBackend final : public ExecutionBackend {
 public:
  TaskId submit(std::size_t member, std::size_t attempt) override {
    const TaskId id = next_id_++;
    Task t;
    t.report.task = id;
    t.report.member = member;
    t.report.attempt = attempt;
    t.report.submitted = t_;
    tasks_[id] = t;
    submissions.push_back(id);
    return id;
  }

  void cancel(TaskId id) override {
    auto& t = tasks_.at(id);
    if (t.terminal) return;
    cancelled.push_back(id);
    finish(id, TaskOutcome::kCancelled);
  }

  TaskReport poll(TaskId id) const override { return tasks_.at(id).report; }
  double now() const override { return t_; }

  void after(double delay_s, std::function<void()> fn) override {
    timers_.emplace(t_ + delay_s, std::move(fn));
  }

  double expected_runtime_s() const override { return expected; }
  void set_report_hook(ReportHook hook) override { hook_ = std::move(hook); }

  // -- test controls --

  void start(TaskId id) {
    auto& t = tasks_.at(id);
    t.report.state = TaskState::kRunning;
    t.report.started = t_;
  }

  void finish(TaskId id, TaskOutcome outcome) {
    auto& t = tasks_.at(id);
    if (t.terminal) return;
    t.terminal = true;
    t.report.state = TaskState::kFinished;
    t.report.outcome = outcome;
    t.report.finished = t_;
    if (hook_) hook_(t.report);
  }

  /// Advance the clock by `dt`, firing due timers in deadline order
  /// (timers may schedule further timers).
  void advance(double dt) {
    const double end = t_ + dt;
    while (!timers_.empty() && timers_.begin()->first <= end + 1e-12) {
      auto it = timers_.begin();
      t_ = std::max(t_, it->first);
      auto fn = std::move(it->second);
      timers_.erase(it);
      fn();
    }
    t_ = end;
  }

  double expected = 0.0;
  std::vector<TaskId> submissions;
  std::vector<TaskId> cancelled;

 private:
  struct Task {
    TaskReport report;
    bool terminal = false;
  };
  double t_ = 0.0;
  TaskId next_id_ = 1;
  std::map<TaskId, Task> tasks_;
  std::multimap<double, std::function<void()>> timers_;
  ReportHook hook_;
};

FaultPolicy no_jitter_policy() {
  FaultPolicy p;
  p.backoff_jitter = 0.0;   // deterministic backoff schedule
  p.timeout_multiple = 0.0; // no timeouts unless the test arms them
  p.speculate = false;      // no straggler scans unless the test asks
  return p;
}

struct Resolution {
  std::size_t member;
  TaskOutcome outcome;
};

TEST(FaultExecutor, RetriesWithExponentialBackoffUntilSuccess) {
  MockBackend be;
  FaultPolicy p = no_jitter_policy();
  FaultTolerantExecutor exec(be, p);
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });

  exec.run_member(7);
  ASSERT_EQ(be.submissions.size(), 1u);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);

  // Retry waits out the backoff (base 5 s): nothing resubmits early.
  EXPECT_FALSE(exec.idle());
  be.advance(4.9);
  EXPECT_EQ(be.submissions.size(), 1u);
  be.advance(0.2);
  ASSERT_EQ(be.submissions.size(), 2u);

  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);
  // Second backoff doubles: 10 s.
  be.advance(9.8);
  EXPECT_EQ(be.submissions.size(), 2u);
  be.advance(0.4);
  ASSERT_EQ(be.submissions.size(), 3u);

  be.start(be.submissions[2]);
  be.finish(be.submissions[2], TaskOutcome::kDone);

  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].member, 7u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kDone);
  const MemberTally st = exec.stats();
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.attempts_failed, 2u);
  EXPECT_EQ(st.members_lost, 0u);
  EXPECT_TRUE(exec.idle());
}

TEST(FaultExecutor, MemberLostWhenRetriesExhausted) {
  MockBackend be;
  FaultPolicy p = no_jitter_policy();
  p.max_retries = 1;
  FaultTolerantExecutor exec(be, p);
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });

  exec.run_member(0);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);
  be.advance(5.5);
  ASSERT_EQ(be.submissions.size(), 2u);
  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);

  // Budget exhausted: resolved with the last failure outcome, counted
  // lost, and no further submissions ever happen.
  be.advance(60.0);
  EXPECT_EQ(be.submissions.size(), 2u);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kFailed);
  EXPECT_EQ(exec.stats().members_lost, 1u);
  EXPECT_TRUE(exec.stats().conserves());
}

TEST(FaultExecutor, TimeoutBudgetCoversRunTimeNotQueueWait) {
  MockBackend be;
  be.expected = 10.0;
  FaultPolicy p = no_jitter_policy();
  p.timeout_multiple = 2.0;  // kill after 20 s of *run* time
  FaultTolerantExecutor exec(be, p);

  exec.run_member(3);
  ASSERT_EQ(be.submissions.size(), 1u);

  // 20 s pass with the attempt still queued: the timer re-arms instead
  // of killing a job that never got a core.
  be.advance(20.0);
  EXPECT_TRUE(be.cancelled.empty());

  be.start(be.submissions[0]);
  be.advance(20.0);  // now 20 s of actual run time have elapsed
  ASSERT_EQ(be.cancelled.size(), 1u);
  EXPECT_EQ(be.cancelled[0], be.submissions[0]);
  const MemberTally st = exec.stats();
  EXPECT_EQ(st.timeouts, 1u);
  // The kCancelled report was rewritten to kTimedOut and retried.
  EXPECT_EQ(st.retries, 1u);
  be.advance(6.0);  // backoff base
  EXPECT_EQ(be.submissions.size(), 2u);
}

struct SpeculationSetup {
  MockBackend be;
  std::unique_ptr<FaultTolerantExecutor> exec;
  std::vector<Resolution> resolved;
  TaskId original = 0;
  TaskId backup = 0;

  SpeculationSetup() {
    FaultPolicy p;
    p.backoff_jitter = 0.0;
    p.timeout_multiple = 0.0;
    p.speculate = true;
    p.straggler_min_samples = 2;
    p.straggler_check_interval_s = 1e9;  // scans only when the test asks
    exec = std::make_unique<FaultTolerantExecutor>(be, p);
    exec->set_member_hook([this](std::size_t m, TaskOutcome o) {
      resolved.push_back({m, o});
    });

    // Two calibration members: 10 s each (p95 = 10, threshold = 20).
    be.advance(1.0);
    exec->run_member(0);
    exec->run_member(1);
    be.start(be.submissions[0]);
    be.start(be.submissions[1]);
    be.advance(10.0);
    be.finish(be.submissions[0], TaskOutcome::kDone);
    be.finish(be.submissions[1], TaskOutcome::kDone);

    // The straggler: runs past 2 × p95 before the scan.
    exec->run_member(2);
    original = be.submissions.at(2);
    be.start(original);
    be.advance(25.0);
    exec->check_stragglers();
    EXPECT_EQ(exec->stats().speculative_launched, 1u);
    backup = be.submissions.at(3);
    be.start(backup);
  }
};

TEST(FaultExecutor, SpeculativeCopyCancelledWhenOriginalWins) {
  SpeculationSetup s;
  s.be.finish(s.original, TaskOutcome::kDone);

  // The losing backup copy is cancelled, the member resolves exactly
  // once, and the backup's cancellation is not a loss.
  ASSERT_EQ(s.be.cancelled.size(), 1u);
  EXPECT_EQ(s.be.cancelled[0], s.backup);
  ASSERT_EQ(s.resolved.size(), 3u);
  EXPECT_EQ(s.resolved.back().member, 2u);
  EXPECT_EQ(s.resolved.back().outcome, TaskOutcome::kDone);
  const MemberTally st = s.exec->stats();
  EXPECT_EQ(st.speculative_won, 0u);
  EXPECT_EQ(st.members_lost, 0u);
  EXPECT_TRUE(s.exec->idle());
}

TEST(FaultExecutor, SpeculativeCopyCanWinTheRace) {
  SpeculationSetup s;
  s.be.finish(s.backup, TaskOutcome::kDone);

  ASSERT_EQ(s.be.cancelled.size(), 1u);
  EXPECT_EQ(s.be.cancelled[0], s.original);
  ASSERT_EQ(s.resolved.size(), 3u);
  EXPECT_EQ(s.resolved.back().outcome, TaskOutcome::kDone);
  EXPECT_EQ(s.exec->stats().speculative_won, 1u);
  EXPECT_EQ(s.exec->stats().members_done, 3u);
  EXPECT_TRUE(s.exec->stats().conserves());
}

TEST(FaultExecutor, CancelAllStopsRetriesAndCancelsLiveAttempts) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });
  for (std::size_t m = 0; m < 3; ++m) exec.run_member(m);
  be.start(be.submissions[0]);
  // Member 1 is waiting out a backoff when the teardown happens.
  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);

  exec.cancel_all();
  // Both live attempts cancelled; the pending retry evaporates, and every
  // member — the one waiting out its backoff included — resolved
  // cancelled exactly once, so the ledger conserves right away.
  EXPECT_EQ(be.cancelled.size(), 2u);
  EXPECT_TRUE(exec.idle());
  ASSERT_EQ(resolved.size(), 3u);
  for (const Resolution& r : resolved) {
    EXPECT_EQ(r.outcome, TaskOutcome::kCancelled);
  }
  const MemberLedger ledger = exec.stats();
  EXPECT_EQ(ledger.members_submitted, 3u);
  EXPECT_EQ(ledger.members_cancelled_final, 3u);
  EXPECT_TRUE(ledger.conserves());
  be.advance(600.0);
  EXPECT_EQ(be.submissions.size(), 3u);  // no post-shutdown launches
  exec.cancel_all();  // idempotent: nothing resolves twice
  EXPECT_EQ(resolved.size(), 3u);
  EXPECT_EQ(exec.stats().members_lost, 0u);
}

TEST(FaultExecutor, DrainModeAbandonsPendingRetriesAsCancelled) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });
  exec.run_member(0);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);
  ASSERT_FALSE(exec.idle());  // retry pending

  exec.enter_drain_mode();
  // The abandoned retry resolves the member as cancelled — not lost.
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kCancelled);
  EXPECT_EQ(exec.stats().members_lost, 0u);
  EXPECT_TRUE(exec.idle());
  be.advance(60.0);
  EXPECT_EQ(be.submissions.size(), 1u);
}

TEST(FaultExecutor, CancelMemberResolvesItCancelled) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });
  exec.run_member(0);
  exec.run_member(1);
  be.start(be.submissions[0]);
  exec.cancel_member(0);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].member, 0u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kCancelled);
  EXPECT_EQ(be.cancelled.size(), 1u);
  EXPECT_EQ(exec.stats().members_lost, 0u);
}

// ---- ThreadExecutionBackend: where an attempt's cancellation is decided ----------
//
// The pool keeps no cancel state of its own: work queued on it is
// cancelled through the backend, which hands each attempt its own token.

/// A one-worker pool whose member-0 attempt occupies the worker: it spins
/// until its token is set, then until release(), so attempts submitted
/// after start_blocker() stay queued behind it.
struct BlockedWorker {
  ThreadPool pool{1};
  std::atomic<bool> running{false};
  std::atomic<bool> saw_token{false};
  std::atomic<bool> released{false};
  std::atomic<int> ran{0};
  std::mutex mu;
  std::map<TaskId, std::vector<TaskOutcome>> reports;
  ThreadExecutionBackend be{
      pool, [this](std::size_t member, std::size_t,
                   const std::atomic<bool>& cancelled) {
        ++ran;
        if (member != 0) return;
        running = true;
        while (!cancelled.load()) std::this_thread::yield();
        saw_token = true;
        while (!released.load()) std::this_thread::yield();
      }};

  BlockedWorker() {
    be.set_report_hook([this](const TaskReport& r) {
      std::lock_guard<std::mutex> lk(mu);
      reports[r.task].push_back(r.outcome);
    });
  }

  TaskId start_blocker() {
    const TaskId id = be.submit(0, 0);
    while (!running.load()) std::this_thread::yield();
    return id;
  }

  /// Cancel the blocker, wait until it has seen its token, let it finish.
  void finish_blocker(TaskId id) {
    be.cancel(id);
    while (!saw_token.load()) std::this_thread::yield();
    released = true;
    be.drain_tasks();
  }

  /// Every attempt reported kCancelled exactly once and is finished.
  void expect_all_cancelled_once(std::size_t n) {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(reports.size(), n);
    for (const auto& [id, outcomes] : reports) {
      ASSERT_EQ(outcomes.size(), 1u) << "task " << id;
      EXPECT_EQ(outcomes[0], TaskOutcome::kCancelled) << "task " << id;
      EXPECT_EQ(be.poll(id).state, TaskState::kFinished);
    }
  }
};

TEST(ThreadPool, CancelPendingDiscardsQueuedTasks) {
  BlockedWorker w;
  const TaskId first = w.start_blocker();
  std::vector<TaskId> queued;
  for (std::size_t m = 1; m <= 4; ++m) queued.push_back(w.be.submit(m, 0));
  EXPECT_EQ(w.pool.queued(), 4u);
  for (TaskId id : queued) w.be.cancel(id);
  w.finish_blocker(first);

  // The queued attempts retired from the pool without entering their
  // closures.
  EXPECT_EQ(w.ran.load(), 1);
  EXPECT_EQ(w.pool.queued(), 0u);
  w.expect_all_cancelled_once(5);
}

TEST(ThreadPool, CancelFlagVisibleToRunningTasks) {
  BlockedWorker w;
  const TaskId first = w.start_blocker();
  w.finish_blocker(first);  // returns only once the closure saw its token
  EXPECT_TRUE(w.saw_token.load());
  EXPECT_EQ(w.ran.load(), 1);
  w.expect_all_cancelled_once(1);
}

TEST(ThreadExecutionBackend, CancelledAttemptsSkipOrSeeTheirTokenAndDrain) {
  BlockedWorker w;
  const TaskId first = w.start_blocker();
  std::vector<TaskId> queued;
  for (std::size_t m = 1; m <= 4; ++m) queued.push_back(w.be.submit(m, 0));
  for (TaskId id : queued) w.be.cancel(id);
  w.be.cancel(first);
  while (!w.saw_token.load()) std::this_thread::yield();

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    w.be.drain_tasks();
    drained = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());  // the running attempt has not retired
  w.released = true;
  drainer.join();

  // Only the running attempt ever entered its closure; every attempt
  // reported kCancelled exactly once, and none is left in the pool.
  EXPECT_EQ(w.ran.load(), 1);
  EXPECT_EQ(w.pool.queued(), 0u);
  w.expect_all_cancelled_once(5);
}

TEST(ThreadExecutionBackend, RefusesADelayedTimer) {
  // The real runner only retries at once: the backend keeps no timer
  // thread, so a delay is refused and a zero delay runs inline.
  ThreadPool pool(1);
  ThreadExecutionBackend be{
      pool, [](std::size_t, std::size_t, const std::atomic<bool>&) {}};
  std::atomic<bool> fired{false};
  EXPECT_THROW(be.after(0.01, [&] { fired = true; }), PreconditionError);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(fired.load());

  std::thread::id ran_on;
  be.after(0.0, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// ---- per-job injection RNG streams (the splittable-key bugfix) -----------------

ClusterSpec tiny_cluster(std::size_t nodes, std::size_t cores) {
  ClusterSpec spec;
  spec.name = "tiny";
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

ClusterScheduler::JobBody compute_job(double seconds) {
  return [seconds](JobContext& ctx) {
    ctx.compute(seconds, [&ctx] { ctx.finish(); });
  };
}

std::set<JobId> failing_jobs(std::size_t n_jobs) {
  Simulator sim;
  SchedulerParams sp = sge_params();
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 97;
  ClusterScheduler sched(sim, tiny_cluster(4, 2), sp);
  for (std::size_t i = 0; i < n_jobs; ++i) sched.submit(compute_job(10.0));
  sim.run();
  std::set<JobId> failed;
  for (const auto& r : sched.records()) {
    if (r.status == JobStatus::kFailed) failed.insert(r.id);
  }
  return failed;
}

TEST(FaultInjectionRng, JobFatesAreKeyedByJobIdNotDrawOrder) {
  // The old scheduler-wide RNG stream made job k's fate depend on how
  // many draws happened before it ran; the per-job splittable key makes
  // the failing set of the first 50 jobs invariant to workload size.
  const std::set<JobId> small = failing_jobs(50);
  const std::set<JobId> large = failing_jobs(100);
  ASSERT_FALSE(small.empty());  // p=0.3 over 50 jobs
  std::set<JobId> large_first50;
  for (JobId id : large) {
    if (id < 50) large_first50.insert(id);
  }
  EXPECT_EQ(small, large_first50);
}

// ---- node outages ---------------------------------------------------------------

TEST(NodeOutages, EvictRunningJobsAndRecover) {
  Simulator sim;
  telemetry::Sink sink("outages");
  SchedulerParams sp = sge_params();
  sp.faults.outage.mtbf_s = 40.0;   // fleet-level Poisson clock
  sp.faults.outage.duration_s = 30.0;
  sp.faults.seed = 5;
  ClusterScheduler sched(sim, tiny_cluster(4, 2), sp);
  sched.set_telemetry(&sink);
  for (std::size_t i = 0; i < 24; ++i) sched.submit(compute_job(20.0));
  sim.run();

  std::size_t done = 0, evicted = 0;
  for (const auto& r : sched.records()) {
    if (r.status == JobStatus::kDone) ++done;
    if (r.status == JobStatus::kEvicted) ++evicted;
  }
  EXPECT_EQ(done + evicted, 24u);
  EXPECT_GT(evicted, 0u);  // deterministic under the fixed seed
  EXPECT_GE(sink.metrics().value("sched.node_outages"), 1.0);
  // Every downed node came back: outages never leak capacity.
  EXPECT_EQ(sink.metrics().value("sched.node_recoveries"),
            sink.metrics().value("sched.node_outages"));
  EXPECT_EQ(sched.free_cores(), sched.cluster().total_cores());
}

}  // namespace
}  // namespace essex::mtc

// ---- the DES workflow driver on the fault layer --------------------------------

namespace essex::workflow {
namespace {

using mtc::ClusterScheduler;
using mtc::ClusterSpec;
using mtc::Simulator;

ClusterSpec wf_cluster(std::size_t nodes = 16, std::size_t cores = 2) {
  ClusterSpec spec;
  spec.name = "wf";
  for (std::size_t i = 0; i < nodes; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

mtc::EsseJobShape wf_shape() {
  mtc::EsseJobShape sh;
  sh.pert_cpu_s = 0.5;
  sh.pert_fs_s = 2.0;
  sh.input_bytes = 100e6;
  sh.pemodel_cpu_s = 100.0;
  sh.output_bytes = 1e6;
  sh.diff_cpu_s = 0.5;
  sh.svd_base_s = 1.0;
  sh.svd_per_member2_s = 1e-4;
  return sh;
}

EsseWorkflowConfig wf_config() {
  EsseWorkflowConfig cfg;
  cfg.shape = wf_shape();
  cfg.initial_members = 32;
  cfg.converge_at = 32;
  cfg.max_members = 128;
  cfg.svd_stride = 8;
  cfg.fault.backoff_jitter = 0.0;
  return cfg;
}

WorkflowMetrics run_faulty(EsseWorkflowConfig cfg,
                           mtc::SchedulerParams sp) {
  Simulator sim;
  ClusterScheduler sched(sim, wf_cluster(), sp);
  return run_parallel_esse(sim, sched, cfg);
}

TEST(FaultyWorkflow, RetriesRecoverInjectedFailures) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.2;
  sp.faults.seed = 17;
  WorkflowMetrics m = run_faulty(wf_config(), sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.attempts_failed, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_EQ(m.members_lost, 0u);  // default budget absorbs p=0.2
  EXPECT_GE(m.members_diffed, 32u);
}

TEST(FaultyWorkflow, NodeOutagesAreAbsorbedWithZeroLoss) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.outage.mtbf_s = 60.0;
  sp.faults.outage.duration_s = 50.0;
  sp.faults.seed = 9;
  EsseWorkflowConfig cfg = wf_config();
  cfg.converge_at = 64;  // longer run → outages certain to strike
  WorkflowMetrics m = run_faulty(cfg, sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.evictions, 0u);
  EXPECT_EQ(m.members_lost, 0u);
  EXPECT_GE(m.members_diffed, 64u);
}

TEST(FaultyWorkflow, FaultyRunsAreDeterministic) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.25;
  sp.faults.outage.mtbf_s = 120.0;
  sp.faults.seed = 4242;
  WorkflowMetrics a = run_faulty(wf_config(), sp);
  WorkflowMetrics b = run_faulty(wf_config(), sp);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.attempts_failed, b.attempts_failed);
  EXPECT_EQ(a.svd_runs, b.svd_runs);
}

TEST(FaultyWorkflow, ConvergenceCancellationRacesInjectedFailures) {
  // Pool headroom means convergence fires while spares are mid-flight
  // and while some failed members are waiting out their backoff: the
  // drain must terminate with consistent counts either way.
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 71;
  EsseWorkflowConfig cfg = wf_config();
  cfg.pool_headroom = 2.0;
  cfg.cancel_policy = CancelPolicy::kCancelImmediately;
  WorkflowMetrics m = run_faulty(cfg, sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GE(m.members_diffed, 32u);
  EXPECT_GT(m.attempts_failed, 0u);
  EXPECT_GT(m.attempts_cancelled, 0u);
}

TEST(FaultyWorkflow, StragglersOnSlowNodesAreSpeculativelyReExecuted) {
  // Table-1 heterogeneity: one node runs at 1/5 speed. Its members
  // blow past 2 × p95 and get backup copies on fast nodes.
  ClusterSpec spec = wf_cluster();
  spec.nodes[1].cpu_speed = 0.2;
  mtc::SchedulerParams sp = mtc::sge_params();
  EsseWorkflowConfig cfg = wf_config();
  cfg.pool_headroom = 1.0;  // no spares: the slow members gate convergence
  cfg.max_members = 32;     // no pool growth either
  cfg.fault.straggler_min_samples = 8;
  Simulator sim;
  ClusterScheduler sched(sim, spec, sp);
  WorkflowMetrics m = run_parallel_esse(sim, sched, cfg);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.speculative_launched, 0u);
  EXPECT_GT(m.speculative_won, 0u);  // backups on fast nodes win the race
  EXPECT_EQ(m.members_lost, 0u);
  // The backup copies bound the makespan well below the slow node's
  // ~505 s member runtime.
  EXPECT_LT(m.makespan_s, 400.0);
}

TEST(FaultyWorkflow, ConvergedRunWithLossesReportsDegraded) {
  mtc::SchedulerParams sp = mtc::sge_params();
  // Injection strikes each of the two compute segments independently:
  // p=0.3 leaves ~half the pool alive, far above the converge_at bar.
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 23;
  EsseWorkflowConfig cfg = wf_config();
  cfg.fault.max_retries = 0;    // every failure is a permanent loss
  cfg.pool_headroom = 3.0;      // enough spares to still converge
  cfg.converge_at = 24;
  WorkflowMetrics m = run_faulty(cfg, sp);
  ASSERT_TRUE(m.converged);
  EXPECT_GT(m.members_lost, 0u);
  EXPECT_TRUE(m.degraded);
}

}  // namespace
}  // namespace essex::workflow

// ---- the real-thread runner and its degradation floor --------------------------

namespace essex::esse {
namespace {

struct FaultRunnerFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_double_gyre_scenario(12, 10, 3));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = bootstrap_subspace(*model, sc->initial, 0.0, 3.0, 8, 0.99,
                                  6, /*seed=*/11);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  ErrorSubspace subspace;
};

workflow::ParallelRunnerConfig fast_retry_config() {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  cfg.svd_min_new_members = 4;
  return cfg;
}

TEST_F(FaultRunnerFixture, InjectedFailuresAreRetriedToCompletion) {
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.max_retries = 6;  // loss probability 0.3^7 ≈ 2e-4 per member
  cfg.inject_probability = 0.3;
  cfg.inject_seed = 77;
  ForecastResult res = service::run_parallel_forecast(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  EXPECT_GT(res.members_run, 4u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_GT(res.mtc->attempts_failed, 0u);
  EXPECT_GT(res.mtc->retries, 0u);
  EXPECT_EQ(res.mtc->members_lost, 0u);
  // The real runner only retries: nothing times out or runs twice.
  EXPECT_EQ(res.mtc->speculative_launched, 0u);
  EXPECT_EQ(res.mtc->timeouts, 0u);
  EXPECT_EQ(res.mtc->members_submitted,
            res.members_run + res.mtc->members_unused);
}

TEST_F(FaultRunnerFixture, AllMembersLostTripsTheDegradationFloor) {
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.max_retries = 0;
  cfg.inject_probability = 1.0;  // every attempt dies
  EXPECT_THROW(
      service::run_parallel_forecast(workflow::ForecastRequest{
          *model, sc->initial, subspace, 0.0, cfg}),
      essex::Error);
}

TEST_F(FaultRunnerFixture, NonFiniteMembersAreLostNotAbsorbed) {
  // A nowcast mode full of NaN makes every perturbed member diverge. The
  // differ refuses each column, the attempt fails and is retried, every
  // member ends lost, and the run stops at the degradation floor instead
  // of returning a non-finite subspace.
  la::Matrix modes = subspace.modes();
  for (std::size_t i = 0; i < modes.rows(); ++i)
    modes(i, 0) = std::numeric_limits<double>::quiet_NaN();
  const ErrorSubspace poisoned(std::move(modes), subspace.sigmas());
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.cycle.ensemble = {4, 2.0, 8};
  cfg.max_retries = 1;
  try {
    service::run_parallel_forecast(
        workflow::ForecastRequest{*model, sc->initial, poisoned, 0.0, cfg});
    ADD_FAILURE() << "a non-finite ensemble produced a forecast";
  } catch (const PreconditionError& e) {
    // Not some downstream numerics failure: nothing reached the SVD.
    EXPECT_NE(std::string(e.what()).find("degradation floor"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace essex::esse
