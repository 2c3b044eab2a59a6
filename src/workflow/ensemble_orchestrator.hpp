// ESSEX: the Fig.-4 control loop, written once (paper §4, §4.1).
//
// EnsembleOrchestrator owns every decision of the loop: the pool cap,
// submission through the FaultTolerantExecutor, convergence checks at
// k·stride members (strictly in order, one at a time), cancel-on-
// convergence, drain detection, staged growth toward Nmax and the
// MemberTally both drivers report. A MemberWork strategy computes members
// and runs checks: the real runner (service/runner_core.cpp) integrates
// members on pool workers and decomposes the canonical prefix; the DES
// driver (workflow/esse_workflow_sim.cpp) times a modelled differ and SVD.
#pragma once

#include <cstddef>
#include <optional>

#include "common/member_ledger.hpp"
#include "esse/convergence.hpp"
#include "mtc/fault.hpp"

namespace essex::workflow {

/// What to do with in-flight members once converged (§4.1).
enum class CancelPolicy {
  kCancelImmediately,  ///< kill queued and running members, conclude
  kUseAllFinished,     ///< kill queued+running, but diff+SVD what landed
  kSpareNearFinish,    ///< let members 90% of the way done finish
};

/// The pool cap and the growth rule (the service twin uses this alone).
class EnsemblePool {
 public:
  /// `fixed_total` > 0 pins the pool to a multilevel plan's total: no
  /// headroom, no growth (the plan is its own budget).
  EnsemblePool(const esse::EnsembleSizeController::Params& ensemble,
               double headroom, std::size_t fixed_total = 0);

  /// Members that may be submitted: M = headroom × N, or the fixed total.
  std::size_t cap() const;
  std::size_t target() const { return sizer_.target(); }
  /// At a check that did not converge: grow once `absorbed` + `stride`
  /// reaches the cap, before the pipeline drains (§4.1).
  bool grow_at_check(std::size_t absorbed, std::size_t stride);
  /// Drained without convergence: grow (true), or stop at Nmax or under a
  /// fixed plan (false).
  bool grow_on_drain();
  /// The size schedule, for deadline shrinking.
  esse::EnsembleSizeController& sizer() { return sizer_; }

 private:
  esse::EnsembleSizeController sizer_;
  double headroom_;
  std::size_t fixed_total_;
};

/// How members are computed and checked; called on the thread that
/// pumps the orchestrator, except wake().
class MemberWork {
 public:
  /// Members the milestones count (the real runner: the contiguous id
  /// prefix; the DES: members diffed).
  virtual std::size_t milestone_count() const = 0;
  virtual std::size_t absorbed() const = 0;  ///< gaps included
  /// Start the check at milestone `c`: the verdict now, or nullopt to
  /// report it later through EnsembleOrchestrator::check_done().
  virtual std::optional<bool> check(std::size_t c) = 0;
  /// A member resolved, maybe on a worker: pump() is due.
  virtual void wake() = 0;
  /// The pool cap was set or `grown`; its new members follow.
  virtual void pool_changed(const EnsemblePool& pool, bool grown) = 0;
  /// kSpareNearFinish: let this running attempt finish.
  virtual bool near_finish(const mtc::TaskReport&) const { return false; }
  /// Every member is resolved: stop what can still call back.
  virtual void finished() = 0;

 protected:
  ~MemberWork() = default;
};

/// Not thread-safe: start() and pump() it from one thread.
class EnsembleOrchestrator {
 public:
  struct Params {
    EnsemblePool pool;
    std::size_t svd_stride = 1;
    CancelPolicy cancel_policy = CancelPolicy::kCancelImmediately;
    mtc::FaultPolicy fault;
    telemetry::Sink* sink = nullptr;  ///< fault.* counters (nullable)
  };

  /// Refuses a zero stride before any member runs.
  EnsembleOrchestrator(mtc::ExecutionBackend& backend, MemberWork& work,
                       Params params);
  /// Tears an unfinished run down as finish() does (the exception path).
  ~EnsembleOrchestrator();
  EnsembleOrchestrator(const EnsembleOrchestrator&) = delete;
  EnsembleOrchestrator& operator=(const EnsembleOrchestrator&) = delete;

  void start();  ///< fill the first pool
  /// Take every due step; a call made inside one is folded into it.
  void pump();
  /// The verdict of a check that check() left running.
  void check_done(bool converged);
  /// Cancel every live member, then MemberWork::finished(). Idempotent.
  void finish();

  bool finished() const { return finished_; }
  bool converged() const { return converged_; }
  const EnsemblePool& pool() const { return params_.pool; }
  MemberTally tally() const;

 private:
  void advance();
  void start_check(std::size_t c);
  void on_verdict(bool converged);
  void fill(bool grown);
  bool drained() const;

  MemberWork& work_;
  Params params_;
  mtc::FaultTolerantExecutor exec_;
  std::size_t submitted_ = 0;
  std::size_t next_check_ = 0;
  std::size_t covered_ = 0;  ///< absorbed() when the last check started
  bool check_in_flight_ = false;
  bool converged_ = false;
  bool draining_ = false;  ///< converged; finished members still land
  bool finished_ = false;
  bool pumping_ = false;
  bool repump_ = false;
};

}  // namespace essex::workflow
