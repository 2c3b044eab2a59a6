// ESSEX: the fault model shared by every execution backend (§4 point 3).
//
// The paper's MTC redesign exists because real platforms misbehave —
// Condor harvest delays, NFS contention, TeraGrid host heterogeneity
// (Table 1), EC2 instance loss. This header defines the one vocabulary
// both Fig.-4 drivers speak: a typed TaskOutcome per attempt, a
// FaultPolicy (retry/backoff/timeout/speculation/degradation floor), a
// FaultInjection model for the DES, and the FaultTolerantExecutor that
// implements recovery once against the abstract ExecutionBackend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/member_ledger.hpp"
#include "common/rng.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::mtc {

/// Backend-assigned attempt handle. 0 is reserved for "not yet known".
using TaskId = std::uint64_t;

/// Where an attempt currently is in its lifecycle.
enum class TaskState {
  kQueued,
  kRunning,
  kFinished,
};

/// Terminal outcome of one task attempt — the single type that replaces
/// the DES JobStatus / thread-pool-exception split for fault handling.
enum class TaskOutcome {
  kDone,
  kFailed,     ///< the attempt itself errored (crash, exception)
  kTimedOut,   ///< killed by the per-task timeout
  kCancelled,  ///< cancelled by the caller (convergence, lost race)
  kEvicted,    ///< the host went away (node outage, glide-in lease end)
};

std::string to_string(TaskState s);
std::string to_string(TaskOutcome o);

/// One attempt's lifecycle snapshot, as reported/polled from a backend.
struct TaskReport {
  TaskId task = 0;
  std::size_t member = 0;   ///< ensemble member this attempt computes
  std::size_t attempt = 0;  ///< 0 = first attempt, >0 = retry/speculative
  TaskState state = TaskState::kQueued;
  TaskOutcome outcome = TaskOutcome::kDone;  ///< valid once kFinished
  double submitted = 0.0;
  double started = 0.0;   ///< 0 while still queued
  double finished = 0.0;  ///< 0 while not terminal
  /// Relative CPU speed of the host the attempt landed on (1.0 when the
  /// backend has no heterogeneity model, e.g. in-process threads).
  double node_speed = 1.0;

  double duration() const { return finished - started; }
};

/// Recovery policy, applied uniformly by FaultTolerantExecutor.
struct FaultPolicy {
  /// Re-submissions allowed per member beyond the first attempt.
  std::size_t max_retries = 3;
  /// Exponential backoff before a retry: base × 2^(failures-1),
  /// jittered ±`backoff_jitter` fraction from the member's own RNG
  /// stream so synchronized failures do not resubmit in lock-step.
  double backoff_base_s = 5.0;
  double backoff_jitter = 0.5;
  /// Per-task timeout as a multiple of the expected attempt runtime
  /// (the calibrated EsseJobShape runtime in the DES); 0 disables.
  double timeout_multiple = 4.0;
  /// Straggler detection (Table 1 heterogeneity): a running attempt is
  /// speculatively re-executed once its elapsed time exceeds
  /// `straggler_multiple` × the p95 of completed attempt durations.
  bool speculate = true;
  double straggler_multiple = 2.0;
  std::size_t straggler_min_samples = 16;
  /// How often the straggler scan runs; 0 = expected runtime / 4.
  double straggler_check_interval_s = 0.0;
  /// Graceful-degradation floor N′: the analysis may proceed with fewer
  /// members than planned, but never below this many survivors.
  std::size_t min_members = 2;
  std::uint64_t seed = 0x5EEDFA01ULL;
};

/// Failure *injection* knobs (what the DES does to jobs), as a
/// structured policy: the two failure processes the backends model are
/// named sub-structs instead of loose doubles, so a call site reads
/// `inject.segment.probability` and cannot transpose unrelated knobs.
struct FaultInjection {
  /// Mid-run compute-segment deaths (§4 point 3): crashes, OOM kills,
  /// wedged NFS writes.
  struct SegmentFailures {
    /// Probability one attempt dies mid-run. Drawn from a per-job
    /// splittable RNG stream keyed by the job id, so enabling injection
    /// never perturbs any other stochastic draw in the run.
    double probability = 0.0;
    /// Fraction of the segment's runtime at which the failure strikes.
    double fraction = 0.5;
  };
  /// Whole-node outages: glide-in lease loss, EC2 instance loss. Each
  /// outage takes one schedulable node down for `duration_s`; running
  /// jobs on it are evicted.
  struct NodeOutages {
    /// Fleet-wide mean time between outages (0 = off).
    double mtbf_s = 0.0;
    double duration_s = 600.0;
  };
  SegmentFailures segment;
  NodeOutages outage;
  std::uint64_t seed = 1234;
};

/// Everything the fault layer counted, for metrics structs and benches.
struct FaultStats {
  std::size_t attempts_failed = 0;  ///< attempts that ended kFailed
  std::size_t evictions = 0;        ///< attempts that ended kEvicted
  std::size_t timeouts = 0;         ///< attempts killed by the timeout
  std::size_t retries = 0;          ///< re-submissions issued
  std::size_t speculative_launched = 0;
  std::size_t speculative_won = 0;  ///< backup finished before original
  /// Member-level final outcomes. Once cancel_all() has run, every
  /// member passed to run_member() is in exactly one bucket.
  MemberLedger ledger;
};

/// Book a member's final outcome: kDone is done, kCancelled is
/// cancelled, and any failure outcome is a lost member. The executor
/// resolves through this, and so do the drivers that run one attempt
/// per member with no retry layer.
void record_final(MemberLedger& ledger, TaskOutcome outcome);

class ExecutionBackend;

/// The fault-tolerance layer, built once against ExecutionBackend: retry
/// with jittered exponential backoff, per-task timeouts, p95-based
/// straggler speculation, and per-member final-outcome resolution. Safe
/// to drive from the single-threaded DES and from thread-pool workers.
class FaultTolerantExecutor {
 public:
  /// Fired exactly once per member with its final outcome: kDone, the
  /// last failure outcome when retries are exhausted, or kCancelled.
  using MemberHook = std::function<void(std::size_t member, TaskOutcome)>;
  /// Fired after every processed attempt report (drain bookkeeping).
  using ReportObserver = std::function<void(const TaskReport&)>;

  FaultTolerantExecutor(ExecutionBackend& backend, FaultPolicy policy,
                        telemetry::Sink* sink = nullptr);

  void set_member_hook(MemberHook hook);
  void set_report_observer(ReportObserver observer);

  /// Launch (the first attempt of) ensemble member `member`.
  void run_member(std::size_t member);

  /// Resolve `member` as kCancelled and cancel its live attempts.
  void cancel_member(std::size_t member);

  /// Teardown: refuse further launches, cancel every live attempt and
  /// resolve every still-unresolved member as kCancelled (member hook
  /// included), so the ledger conserves as soon as this returns.
  void cancel_all();

  /// Stop issuing retries and speculative copies, let live attempts run
  /// out (post-convergence draining under kSpareNearFinish).
  void enter_drain_mode();

  /// No live attempts and no retry pending.
  bool idle() const;

  /// Unresolved members with a live attempt: (member, polled report of
  /// its primary attempt). Used by cancel policies (spare-near-finish).
  std::vector<std::pair<std::size_t, TaskReport>> live_members() const;

  FaultStats stats() const;

  /// Scan running attempts against the p95 straggler threshold and
  /// launch speculative copies. Normally self-armed via backend timers;
  /// exposed for deterministic tests.
  void check_stragglers();

 private:
  struct Attempt {
    TaskId id = 0;  ///< 0 until the backend submit returns
    std::size_t number = 0;
    bool speculative = false;
    bool timed_out = false;  ///< timeout fired; rewrite kCancelled
  };
  struct MemberState {
    std::size_t attempts_used = 0;
    std::size_t failed_attempts = 0;
    std::vector<Attempt> live;
    bool resolved = false;
    bool retry_pending = false;
    Rng rng;  ///< per-member jitter stream (split from policy seed)

    MemberState() : rng(0) {}
    explicit MemberState(Rng r) : rng(r) {}
  };

  void on_report(const TaskReport& report);
  void on_timeout(std::size_t member, std::size_t attempt_number);
  void on_retry_timer(std::size_t member);
  void launch(std::size_t member, bool speculative);
  void arm_straggler_timer();
  double expected_runtime_locked() const;
  double straggler_interval_locked() const;
  void resolve_locked(MemberState& st, TaskOutcome outcome);

  ExecutionBackend& backend_;
  FaultPolicy policy_;
  telemetry::Sink* sink_;
  MemberHook member_hook_;
  ReportObserver observer_;

  mutable std::mutex mu_;
  std::unordered_map<std::size_t, MemberState> members_;
  std::vector<double> durations_;  ///< completed attempt durations
  FaultStats stats_;
  std::size_t live_attempts_ = 0;
  std::size_t retries_pending_ = 0;
  std::size_t speculative_live_ = 0;
  bool draining_ = false;
  bool shutdown_ = false;
  bool straggler_timer_armed_ = false;
};

}  // namespace essex::mtc
