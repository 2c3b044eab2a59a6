// ESSEX: the unified execution API both Fig.-4 drivers submit through.
//
// workflow::EnsembleOrchestrator runs the Fig.-4 loop for the DES
// workflow driver (esse_workflow_sim) over ClusterScheduler jobs and for
// the real runner (service/runner_core) over in-process thread-pool
// tasks. ExecutionBackend abstracts the four things the fault layer
// needs — submit / cancel / poll and a terminal TaskReport stream — plus
// a clock and one-shot timers, so FaultTolerantExecutor is written
// exactly once for both drivers.
//
//  * SimExecutionBackend wraps a ClusterScheduler: tasks are simulated
//    member jobs, time is Simulator time, eviction comes from the node
//    outage model. The DES is where backoff, timeouts and straggler
//    speculation act: its hosts fail and run slow.
//  * ThreadExecutionBackend wraps the in-process ThreadPool: tasks are
//    real member closures, exceptions become TaskOutcome::kFailed and
//    time is the wall clock. The real runner only retries, at once, so
//    it has no timers: after() takes a zero delay and runs the callback
//    on the calling thread. It is the only place an attempt's
//    cancellation is decided: each attempt carries its own token, and an
//    attempt cancelled before it starts never runs its closure.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/thread_pool.hpp"
#include "mtc/fault.hpp"
#include "mtc/job.hpp"
#include "mtc/scheduler.hpp"

namespace essex::mtc {

/// Map a terminal JobStatus onto the unified TaskOutcome.
TaskOutcome to_outcome(JobStatus status);

/// Abstract submit/cancel/poll surface shared by the DES scheduler and
/// the real thread pool.
class ExecutionBackend {
 public:
  using ReportHook = std::function<void(const TaskReport&)>;

  virtual ~ExecutionBackend() = default;

  /// Launch attempt `attempt` of ensemble member `member`. Returns the
  /// attempt's TaskId (> 0). The report hook fires exactly once per
  /// submitted attempt, at its terminal transition.
  virtual TaskId submit(std::size_t member, std::size_t attempt) = 0;

  /// Cancel a queued or running attempt. Exact in the DES; cooperative
  /// (flag-based) for running real threads. No-op once terminal.
  virtual void cancel(TaskId id) = 0;

  /// Snapshot of an attempt's current lifecycle state.
  virtual TaskReport poll(TaskId id) const = 0;

  /// Backend clock: simulated seconds (DES) or wall seconds (threads).
  virtual double now() const = 0;

  /// One-shot timer on the backend's clock (backoff, timeouts,
  /// straggler scans). Timers may be dropped at backend teardown. The
  /// thread backend accepts only a zero delay (an immediate retry).
  virtual void after(double delay_s, std::function<void()> fn) = 0;

  /// Expected single-attempt runtime; 0 = unknown (the fault layer then
  /// estimates it from completed attempts).
  virtual double expected_runtime_s() const { return 0.0; }

  /// Install the terminal-report hook (single slot, not owned).
  virtual void set_report_hook(ReportHook hook) = 0;
};

/// ExecutionBackend over the DES ClusterScheduler. Claims the
/// scheduler's completion hook for the backend's lifetime; drivers
/// observe completions through the fault layer instead.
class SimExecutionBackend final : public ExecutionBackend {
 public:
  /// Builds the simulated job body for (member, attempt).
  using BodyFactory =
      std::function<ClusterScheduler::JobBody(std::size_t member,
                                              std::size_t attempt)>;

  SimExecutionBackend(ClusterScheduler& sched, BodyFactory factory,
                      double expected_runtime_s = 0.0);
  ~SimExecutionBackend() override;

  TaskId submit(std::size_t member, std::size_t attempt) override;
  void cancel(TaskId id) override;
  TaskReport poll(TaskId id) const override;
  double now() const override;
  void after(double delay_s, std::function<void()> fn) override;
  double expected_runtime_s() const override { return expected_runtime_; }
  void set_report_hook(ReportHook hook) override { hook_ = std::move(hook); }

 private:
  struct TaskInfo {
    std::size_t member = 0;
    std::size_t attempt = 0;
  };
  TaskReport report_for(JobId job, const TaskInfo& info) const;

  ClusterScheduler& sched_;
  BodyFactory factory_;
  double expected_runtime_ = 0.0;
  ReportHook hook_;
  std::unordered_map<JobId, TaskInfo> tasks_;
};

/// ExecutionBackend over the in-process ThreadPool: member closures,
/// exception capture and per-attempt cancellation tokens.
class ThreadExecutionBackend final : public ExecutionBackend {
 public:
  /// Runs (member, attempt) to completion; throwing reports kFailed.
  /// `cancelled` turns true when the attempt is cancelled mid-run —
  /// long-running bodies may poll it and bail out early.
  using TaskFn = std::function<void(std::size_t member, std::size_t attempt,
                                    const std::atomic<bool>& cancelled)>;

  ThreadExecutionBackend(ThreadPool& pool, TaskFn fn);

  TaskId submit(std::size_t member, std::size_t attempt) override;
  void cancel(TaskId id) override;
  TaskReport poll(TaskId id) const override;
  double now() const override;
  /// Runs `fn` now, on the calling thread; refuses a nonzero delay. The
  /// executor's only call is a retry from the report hook of the attempt
  /// that failed, which has not yet retired, so drain_tasks() covers the
  /// retry it submits.
  void after(double delay_s, std::function<void()> fn) override;
  void set_report_hook(ReportHook hook) override;

  /// Block until every attempt submitted through this backend has fully
  /// retired from the pool — ran to completion, or was skipped by its
  /// worker after cancellation. Unlike ThreadPool::wait_idle() this waits
  /// only on *this backend's* tasks, so concurrent forecasts sharing one
  /// persistent pool (ForecastService) tear down independently. After it
  /// returns, no pool worker can re-enter this backend.
  void drain_tasks();

 private:
  struct TaskRec {
    std::size_t member = 0;
    std::size_t attempt = 0;
    TaskState state = TaskState::kQueued;
    TaskOutcome outcome = TaskOutcome::kDone;
    double submitted = 0.0;
    double started = 0.0;
    double finished = 0.0;
    bool cancel_requested = false;
    std::shared_ptr<std::atomic<bool>> token;
  };

  void run_task(TaskId id, std::size_t member, std::size_t attempt,
                const std::atomic<bool>& cancelled);
  bool begin_task(TaskId id);
  void finish_task(TaskId id, bool threw);
  void retire_task();
  TaskReport poll_locked(TaskId id) const;

  ThreadPool& pool_;
  TaskFn fn_;
  ReportHook hook_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::unordered_map<TaskId, TaskRec> tasks_;
  TaskId next_id_ = 1;
  std::size_t outstanding_ = 0;  ///< attempts not yet retired from the pool
  std::condition_variable retired_cv_;
};

}  // namespace essex::mtc
