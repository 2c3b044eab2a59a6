#include "mtc/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/execution_backend.hpp"

namespace essex::mtc {

std::string to_string(TaskOutcome o) {
  switch (o) {
    case TaskOutcome::kDone: return "done";
    case TaskOutcome::kFailed: return "failed";
    case TaskOutcome::kTimedOut: return "timed_out";
    case TaskOutcome::kCancelled: return "cancelled";
    case TaskOutcome::kEvicted: return "evicted";
  }
  return "?";
}

namespace {

/// Growth of the retry backoff per consecutive failure.
constexpr double kBackoffFactor = 2.0;
/// Cap on concurrent speculative backup copies.
constexpr std::size_t kMaxSpeculative = 64;
/// A running attempt past this multiple of the p95 completed duration is
/// a straggler.
constexpr double kStragglerMultiple = 2.0;

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

void record_final(MemberLedger& ledger, TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kDone: ++ledger.members_done; break;
    case TaskOutcome::kCancelled: ++ledger.members_cancelled_final; break;
    default: ++ledger.members_lost; break;
  }
}

FaultTolerantExecutor::FaultTolerantExecutor(ExecutionBackend& backend,
                                             FaultPolicy policy,
                                             telemetry::Sink* sink)
    : backend_(backend), policy_(std::move(policy)), sink_(sink) {
  ESSEX_REQUIRE(policy_.backoff_jitter >= 0.0 &&
                    policy_.backoff_jitter < 1.0,
                "backoff jitter must be in [0, 1)");
  backend_.set_report_hook(
      [this](const TaskReport& r) { on_report(r); });
}

void FaultTolerantExecutor::set_member_hook(MemberHook hook) {
  std::lock_guard<std::mutex> lk(mu_);
  member_hook_ = std::move(hook);
}

void FaultTolerantExecutor::run_member(std::size_t member) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) return;
    ESSEX_REQUIRE(members_.find(member) == members_.end(),
                  "member already submitted to the fault layer");
    members_.emplace(member,
                     MemberState(Rng(policy_.seed, member + 1)));
    ++stats_.members_submitted;
  }
  launch(member, /*speculative=*/false);
}

void FaultTolerantExecutor::launch(std::size_t member, bool speculative) {
  std::size_t attempt_no = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it == members_.end() || it->second.resolved || shutdown_) return;
    if (draining_ && speculative) return;
    MemberState& st = it->second;
    attempt_no = st.attempts_used++;
    st.live.push_back(Attempt{0, attempt_no, speculative, false});
    ++live_attempts_;
    if (speculative) {
      ++speculative_live_;
      ++stats_.speculative_launched;
      if (sink_) sink_->count("fault.speculative_launched");
    }
  }
  const TaskId id = backend_.submit(member, attempt_no);
  double timeout = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it != members_.end()) {
      for (Attempt& a : it->second.live) {
        if (a.number == attempt_no) a.id = id;
      }
    }
    if (policy_.timeout_multiple > 0.0) {
      const double expected = expected_runtime_locked();
      if (expected > 0.0) timeout = policy_.timeout_multiple * expected;
    }
  }
  if (timeout > 0.0) {
    backend_.after(timeout, [this, member, attempt_no] {
      on_timeout(member, attempt_no);
    });
  }
  arm_straggler_timer();
}

double FaultTolerantExecutor::expected_runtime_locked() const {
  const double hinted = backend_.expected_runtime_s();
  if (hinted > 0.0) return hinted;
  if (durations_.size() >= policy_.straggler_min_samples) {
    return quantile(durations_, 0.5);
  }
  return 0.0;
}

double FaultTolerantExecutor::straggler_interval_locked() const {
  if (policy_.straggler_check_interval_s > 0.0) {
    return policy_.straggler_check_interval_s;
  }
  const double expected = expected_runtime_locked();
  return expected > 0.0 ? expected / 4.0 : 0.25;
}

void FaultTolerantExecutor::arm_straggler_timer() {
  double interval = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!policy_.speculate || shutdown_ || draining_ ||
        straggler_timer_armed_ || live_attempts_ == 0) {
      return;
    }
    straggler_timer_armed_ = true;
    interval = straggler_interval_locked();
  }
  backend_.after(interval, [this] {
    {
      std::lock_guard<std::mutex> lk(mu_);
      straggler_timer_armed_ = false;
      if (shutdown_ || draining_) return;
    }
    check_stragglers();
    arm_straggler_timer();
  });
}

void FaultTolerantExecutor::check_stragglers() {
  struct Candidate {
    std::size_t member;
    TaskId id;
  };
  std::vector<Candidate> candidates;
  double threshold = 0.0;
  std::size_t budget = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!policy_.speculate || shutdown_ || draining_) return;
    if (durations_.size() < policy_.straggler_min_samples) return;
    if (speculative_live_ >= kMaxSpeculative) return;
    budget = kMaxSpeculative - speculative_live_;
    threshold = kStragglerMultiple * quantile(durations_, 0.95);
    for (const auto& [member, st] : members_) {
      // Only members with exactly one live attempt and no retry in
      // flight are speculation candidates (one backup copy at a time).
      if (st.resolved || st.retry_pending || st.live.size() != 1)
        continue;
      if (st.live[0].id == 0) continue;
      candidates.push_back(Candidate{member, st.live[0].id});
    }
  }
  if (threshold <= 0.0) return;
  const double t = backend_.now();
  for (const Candidate& c : candidates) {
    if (budget == 0) break;
    const TaskReport r = backend_.poll(c.id);
    if (r.state != TaskState::kRunning || r.started <= 0.0) continue;
    if (t - r.started <= threshold) continue;
    launch(c.member, /*speculative=*/true);
    --budget;
  }
}

void FaultTolerantExecutor::on_timeout(std::size_t member,
                                       std::size_t attempt_number) {
  TaskId id = 0;
  double timeout = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it == members_.end() || it->second.resolved || shutdown_) return;
    for (const Attempt& a : it->second.live) {
      if (a.number == attempt_number && !a.timed_out) {
        id = a.id;
        break;
      }
    }
    timeout = policy_.timeout_multiple * expected_runtime_locked();
  }
  if (id == 0 || timeout <= 0.0) return;
  // The timeout budget covers *run* time, not queue wait: a queued (or
  // recently started) attempt gets its timer pushed out instead of being
  // killed for the scheduler's backlog.
  const TaskReport r = backend_.poll(id);
  if (r.state == TaskState::kFinished) return;  // report on its way
  if (r.state == TaskState::kQueued) {
    backend_.after(timeout, [this, member, attempt_number] {
      on_timeout(member, attempt_number);
    });
    return;
  }
  const double elapsed = backend_.now() - r.started;
  if (elapsed + 1e-9 < timeout) {
    backend_.after(timeout - elapsed, [this, member, attempt_number] {
      on_timeout(member, attempt_number);
    });
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it == members_.end() || it->second.resolved || shutdown_) return;
    bool found = false;
    for (Attempt& a : it->second.live) {
      if (a.number == attempt_number && !a.timed_out) {
        a.timed_out = true;
        found = true;
        break;
      }
    }
    if (!found) return;
    ++stats_.timeouts;
    if (sink_) sink_->count("fault.timeouts");
  }
  // The cancel surfaces as a kCancelled report which on_report rewrites
  // to kTimedOut (the attempt carries the timed_out mark) and routes
  // through the retry path.
  backend_.cancel(id);
}

void FaultTolerantExecutor::resolve_locked(MemberState& st,
                                           TaskOutcome outcome) {
  st.resolved = true;
  record_final(stats_, outcome);
  if (sink_ && outcome != TaskOutcome::kDone &&
      outcome != TaskOutcome::kCancelled) {
    sink_->count("fault.members_lost");
  }
}

void FaultTolerantExecutor::on_report(const TaskReport& report) {
  enum class Action { kNone, kRetry, kResolved };
  Action action = Action::kNone;
  TaskOutcome final_outcome = TaskOutcome::kDone;
  double backoff = 0.0;
  std::vector<TaskId> cancels;
  MemberHook hook;

  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(report.member);
    if (it == members_.end()) return;
    MemberState& st = it->second;
    auto ait = std::find_if(st.live.begin(), st.live.end(),
                            [&](const Attempt& a) {
                              return a.number == report.attempt;
                            });
    if (ait == st.live.end()) return;  // late duplicate, already handled
    const Attempt attempt = *ait;
    st.live.erase(ait);
    --live_attempts_;
    if (attempt.speculative && speculative_live_ > 0) --speculative_live_;

    TaskOutcome outcome = report.outcome;
    if (attempt.timed_out && outcome == TaskOutcome::kCancelled) {
      outcome = TaskOutcome::kTimedOut;
    }

    if (st.resolved || shutdown_) {
      // Sibling of a resolved member, or teardown: bookkeeping only.
    } else if (outcome == TaskOutcome::kDone) {
      if (report.finished > report.started && report.started > 0.0) {
        durations_.push_back(report.finished - report.started);
      }
      if (attempt.speculative) {
        ++stats_.speculative_won;
        if (sink_) sink_->count("fault.speculative_won");
      }
      for (const Attempt& other : st.live) {
        if (other.id != 0) cancels.push_back(other.id);
      }
      resolve_locked(st, TaskOutcome::kDone);
      action = Action::kResolved;
      final_outcome = TaskOutcome::kDone;
      hook = member_hook_;
    } else {
      switch (outcome) {
        case TaskOutcome::kFailed:
          ++stats_.attempts_failed;
          if (sink_) sink_->count("fault.failed_attempts");
          break;
        case TaskOutcome::kEvicted:
          ++stats_.evictions;
          if (sink_) sink_->count("fault.evictions");
          break;
        default:
          break;  // timeouts counted when the timeout fired
      }
      if (outcome != TaskOutcome::kCancelled) ++st.failed_attempts;
      if (!st.live.empty()) {
        // A sibling attempt is still in flight; let it race.
      } else if (outcome != TaskOutcome::kCancelled && !draining_ &&
                 st.failed_attempts <= policy_.max_retries) {
        ++stats_.retries;
        if (sink_) sink_->count("fault.retries");
        st.retry_pending = true;
        ++retries_pending_;
        const double spread =
            policy_.backoff_jitter > 0.0
                ? st.rng.uniform(-policy_.backoff_jitter,
                                 policy_.backoff_jitter)
                : 0.0;
        backoff = policy_.backoff_base_s *
                  std::pow(kBackoffFactor,
                           static_cast<double>(st.failed_attempts - 1)) *
                  (1.0 + spread);
        action = Action::kRetry;
      } else {
        resolve_locked(st, outcome);
        action = Action::kResolved;
        final_outcome = outcome;
        hook = member_hook_;
      }
    }
  }

  for (TaskId id : cancels) backend_.cancel(id);
  if (action == Action::kRetry) {
    backend_.after(backoff, [this, member = report.member] {
      on_retry_timer(member);
    });
  }
  if (action == Action::kResolved && hook) {
    hook(report.member, final_outcome);
  }
}

void FaultTolerantExecutor::on_retry_timer(std::size_t member) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it == members_.end()) return;
    MemberState& st = it->second;
    if (!st.retry_pending) return;
    st.retry_pending = false;
    --retries_pending_;
    if (st.resolved || shutdown_ || draining_) return;
  }
  launch(member, /*speculative=*/false);
}

void FaultTolerantExecutor::cancel_member(std::size_t member) {
  std::vector<TaskId> cancels;
  MemberHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = members_.find(member);
    if (it == members_.end() || it->second.resolved) return;
    MemberState& st = it->second;
    if (st.retry_pending) {
      st.retry_pending = false;
      --retries_pending_;
    }
    for (const Attempt& a : st.live) {
      if (a.id != 0) cancels.push_back(a.id);
    }
    resolve_locked(st, TaskOutcome::kCancelled);
    hook = member_hook_;
  }
  for (TaskId id : cancels) backend_.cancel(id);
  if (hook) hook(member, TaskOutcome::kCancelled);
}

void FaultTolerantExecutor::cancel_all() {
  std::vector<TaskId> cancels;
  std::vector<std::size_t> cancelled;
  MemberHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    retries_pending_ = 0;
    for (auto& [member, st] : members_) {
      st.retry_pending = false;
      for (const Attempt& a : st.live) {
        if (a.id != 0) cancels.push_back(a.id);
      }
      if (!st.resolved) {
        resolve_locked(st, TaskOutcome::kCancelled);
        cancelled.push_back(member);
      }
    }
    hook = member_hook_;
  }
  for (TaskId id : cancels) backend_.cancel(id);
  if (hook) {
    for (std::size_t m : cancelled) hook(m, TaskOutcome::kCancelled);
  }
}

void FaultTolerantExecutor::enter_drain_mode() {
  std::vector<std::size_t> abandoned;
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    // Pending retries will not relaunch; resolve those members now so
    // drain detection does not wait on timers that act as no-ops.
    for (auto& [member, st] : members_) {
      if (!st.resolved && st.retry_pending && st.live.empty()) {
        abandoned.push_back(member);
      }
    }
  }
  for (std::size_t m : abandoned) cancel_member(m);
}

bool FaultTolerantExecutor::idle() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_attempts_ == 0 && retries_pending_ == 0;
}

std::vector<std::pair<std::size_t, TaskReport>>
FaultTolerantExecutor::live_members() const {
  std::vector<std::pair<std::size_t, TaskId>> ids;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [member, st] : members_) {
      if (st.resolved || st.live.empty()) continue;
      if (st.live.front().id == 0) continue;
      ids.emplace_back(member, st.live.front().id);
    }
  }
  std::vector<std::pair<std::size_t, TaskReport>> out;
  out.reserve(ids.size());
  for (const auto& [member, id] : ids) {
    out.emplace_back(member, backend_.poll(id));
  }
  return out;
}

MemberTally FaultTolerantExecutor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace essex::mtc
