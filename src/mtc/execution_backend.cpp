#include "mtc/execution_backend.hpp"

#include <chrono>

#include "common/error.hpp"

namespace essex::mtc {

TaskOutcome to_outcome(JobStatus status) {
  switch (status) {
    case JobStatus::kDone: return TaskOutcome::kDone;
    case JobStatus::kFailed: return TaskOutcome::kFailed;
    case JobStatus::kCancelled: return TaskOutcome::kCancelled;
    case JobStatus::kEvicted: return TaskOutcome::kEvicted;
    case JobStatus::kQueued:
    case JobStatus::kRunning: break;
  }
  ESSEX_REQUIRE(false, "to_outcome on a non-terminal job status");
  return TaskOutcome::kFailed;
}

// ---- SimExecutionBackend ------------------------------------------------

SimExecutionBackend::SimExecutionBackend(ClusterScheduler& sched,
                                         BodyFactory factory,
                                         double expected_runtime_s)
    : sched_(sched),
      factory_(std::move(factory)),
      expected_runtime_(expected_runtime_s) {
  ESSEX_REQUIRE(factory_ != nullptr, "backend needs a body factory");
  sched_.set_completion_hook([this](const JobRecord& rec) {
    auto it = tasks_.find(rec.id);
    if (it == tasks_.end()) return;  // not one of ours (master-side job)
    if (hook_) hook_(report_for(rec.id, it->second));
  });
}

SimExecutionBackend::~SimExecutionBackend() {
  sched_.set_completion_hook(nullptr);
}

TaskId SimExecutionBackend::submit(std::size_t member, std::size_t attempt) {
  // The DES is single-threaded and submit() only schedules events, so
  // registering the job after submit cannot miss its completion.
  const JobId job = sched_.submit(factory_(member, attempt));
  tasks_[job] = TaskInfo{member, attempt};
  return job + 1;  // TaskId 0 is reserved for "not yet known"
}

void SimExecutionBackend::cancel(TaskId id) {
  ESSEX_REQUIRE(id != 0, "cancel on a null task id");
  sched_.cancel(id - 1);  // no-op once terminal
}

TaskReport SimExecutionBackend::poll(TaskId id) const {
  ESSEX_REQUIRE(id != 0, "poll on a null task id");
  const JobId job = id - 1;
  auto it = tasks_.find(job);
  ESSEX_REQUIRE(it != tasks_.end(), "poll on an unknown task");
  return report_for(job, it->second);
}

TaskReport SimExecutionBackend::report_for(JobId job,
                                           const TaskInfo& info) const {
  const JobRecord& rec = sched_.record(job);
  TaskReport r;
  r.task = job + 1;
  r.member = info.member;
  r.attempt = info.attempt;
  r.submitted = rec.submitted;
  r.started = rec.started;
  switch (rec.status) {
    case JobStatus::kQueued:
      r.state = TaskState::kQueued;
      break;
    case JobStatus::kRunning:
      r.state = TaskState::kRunning;
      break;
    default:
      r.state = TaskState::kFinished;
      r.outcome = to_outcome(rec.status);
      r.finished = rec.finished;
      break;
  }
  if (rec.status != JobStatus::kQueued) {
    r.node_speed = sched_.cluster().nodes[rec.node_index].cpu_speed;
  }
  return r;
}

double SimExecutionBackend::now() const { return sched_.sim().now(); }

void SimExecutionBackend::after(double delay_s, std::function<void()> fn) {
  sched_.sim().after(delay_s, std::move(fn));
}

// ---- ThreadExecutionBackend ---------------------------------------------

ThreadExecutionBackend::ThreadExecutionBackend(ThreadPool& pool, TaskFn fn)
    : pool_(pool), fn_(std::move(fn)),
      epoch_(std::chrono::steady_clock::now()) {
  ESSEX_REQUIRE(fn_ != nullptr, "backend needs a task function");
}

double ThreadExecutionBackend::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ThreadExecutionBackend::set_report_hook(ReportHook hook) {
  std::lock_guard<std::mutex> lk(mu_);
  hook_ = std::move(hook);
}

TaskId ThreadExecutionBackend::submit(std::size_t member,
                                      std::size_t attempt) {
  auto token = std::make_shared<std::atomic<bool>>(false);
  TaskId id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
    TaskRec rec;
    rec.member = member;
    rec.attempt = attempt;
    rec.submitted = now();
    rec.token = token;
    tasks_.emplace(id, std::move(rec));
    ++outstanding_;
  }
  try {
    pool_.submit([this, id, member, attempt, token] {
      try {
        run_task(id, member, attempt, *token);
      } catch (...) {
        retire_task();  // a throwing report hook must not stall the drain
        throw;
      }
      retire_task();
    });
  } catch (...) {
    retire_task();
    throw;
  }
  return id;
}

void ThreadExecutionBackend::retire_task() {
  // Notify under the lock: once drain_tasks() can see zero, this worker
  // never touches the backend again.
  std::lock_guard<std::mutex> lk(mu_);
  if (--outstanding_ == 0) retired_cv_.notify_all();
}

void ThreadExecutionBackend::drain_tasks() {
  std::unique_lock<std::mutex> lk(mu_);
  retired_cv_.wait(lk, [this] { return outstanding_ == 0; });
}

void ThreadExecutionBackend::run_task(TaskId id, std::size_t member,
                                      std::size_t attempt,
                                      const std::atomic<bool>& cancelled) {
  if (!begin_task(id)) return;  // cancelled first; report already out
  bool threw = false;
  try {
    fn_(member, attempt, cancelled);
  } catch (...) {
    threw = true;
  }
  finish_task(id, threw);
}

bool ThreadExecutionBackend::begin_task(TaskId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tasks_.find(id);
  ESSEX_ASSERT(it != tasks_.end(), "begin_task on an unknown task");
  if (it->second.state != TaskState::kQueued) return false;
  it->second.state = TaskState::kRunning;
  it->second.started = now();
  return true;
}

void ThreadExecutionBackend::finish_task(TaskId id, bool threw) {
  TaskReport report;
  ReportHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tasks_.find(id);
    ESSEX_ASSERT(it != tasks_.end(), "finish_task on an unknown task");
    TaskRec& rec = it->second;
    if (rec.state == TaskState::kFinished) return;
    rec.state = TaskState::kFinished;
    rec.finished = now();
    rec.outcome = rec.cancel_requested
                      ? TaskOutcome::kCancelled
                      : (threw ? TaskOutcome::kFailed : TaskOutcome::kDone);
    report = poll_locked(id);
    hook = hook_;
  }
  if (hook) hook(report);
}

void ThreadExecutionBackend::cancel(TaskId id) {
  TaskReport report;
  ReportHook hook;
  bool emit = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tasks_.find(id);
    if (it == tasks_.end()) return;
    TaskRec& rec = it->second;
    if (rec.state == TaskState::kFinished || rec.cancel_requested) return;
    rec.cancel_requested = true;
    rec.token->store(true, std::memory_order_relaxed);
    if (rec.state == TaskState::kQueued) {
      // begin_task will refuse the attempt when a worker picks it up;
      // the terminal report is ours to emit.
      rec.state = TaskState::kFinished;
      rec.outcome = TaskOutcome::kCancelled;
      rec.finished = now();
      report = poll_locked(id);
      hook = hook_;
      emit = true;
    }
    // Running: the worker observes the token and finish_task reports
    // kCancelled when it returns.
  }
  if (emit && hook) hook(report);
}

TaskReport ThreadExecutionBackend::poll(TaskId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return poll_locked(id);
}

TaskReport ThreadExecutionBackend::poll_locked(TaskId id) const {
  auto it = tasks_.find(id);
  ESSEX_REQUIRE(it != tasks_.end(), "poll on an unknown task");
  const TaskRec& rec = it->second;
  TaskReport r;
  r.task = id;
  r.member = rec.member;
  r.attempt = rec.attempt;
  r.state = rec.state;
  r.outcome = rec.outcome;
  r.submitted = rec.submitted;
  r.started = rec.started;
  r.finished = rec.finished;
  return r;
}

void ThreadExecutionBackend::after(double delay_s, std::function<void()> fn) {
  ESSEX_REQUIRE(delay_s == 0.0,
                "the thread backend runs no delayed timers");
  fn();
}

}  // namespace essex::mtc
