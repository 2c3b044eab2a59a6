#include "workflow/ensemble_orchestrator.hpp"

#include <utility>

#include "common/error.hpp"

namespace essex::workflow {

EnsemblePool::EnsemblePool(const esse::EnsembleSizeController::Params& ensemble,
                           double headroom, std::size_t fixed_total)
    : sizer_(ensemble), headroom_(headroom), fixed_total_(fixed_total) {
  ESSEX_REQUIRE(headroom >= 1.0, "pool headroom must be >= 1");
}

std::size_t EnsemblePool::cap() const {
  return fixed_total_ > 0 ? fixed_total_ : sizer_.pool_target(headroom_);
}

bool EnsemblePool::grow_at_check(std::size_t absorbed, std::size_t stride) {
  return absorbed + stride >= cap() && grow_on_drain();
}

bool EnsemblePool::grow_on_drain() {
  if (fixed_total_ > 0 || sizer_.at_max()) return false;
  sizer_.grow();
  return true;
}

namespace {

EnsembleOrchestrator::Params checked(EnsembleOrchestrator::Params params) {
  ESSEX_REQUIRE(params.svd_stride >= 1, "svd stride must be >= 1");
  return params;
}

}  // namespace

EnsembleOrchestrator::EnsembleOrchestrator(mtc::ExecutionBackend& backend,
                                           MemberWork& work, Params params)
    : work_(work),
      params_(checked(std::move(params))),
      exec_(backend, params_.fault, params_.sink),
      next_check_(params_.svd_stride) {
  exec_.set_member_hook(
      [this](std::size_t, mtc::TaskOutcome) { work_.wake(); });
}

EnsembleOrchestrator::~EnsembleOrchestrator() { finish(); }

void EnsembleOrchestrator::start() { fill(false); }

void EnsembleOrchestrator::fill(bool grown) {
  work_.pool_changed(params_.pool, grown);
  while (submitted_ < params_.pool.cap()) exec_.run_member(submitted_++);
}

bool EnsembleOrchestrator::drained() const {
  // Every member resolved, and every finished one absorbed.
  const MemberTally t = exec_.stats();
  return t.conserves() && work_.absorbed() >= t.members_done;
}

void EnsembleOrchestrator::pump() {
  if (pumping_) {
    repump_ = true;  // a hook fired inside a step
    return;
  }
  pumping_ = true;
  do {
    repump_ = false;
    advance();
  } while (repump_);
  pumping_ = false;
}

void EnsembleOrchestrator::check_done(bool converged) {
  if (finished_) return;
  pumping_ = true;  // hooks the verdict fires fold into the pump below
  on_verdict(converged);
  pumping_ = false;
  pump();
}

void EnsembleOrchestrator::advance() {
  while (!finished_ && !check_in_flight_) {
    if (draining_) {
      // Converged under a policy that keeps finished members: check what
      // landed since the last check; conclude once the pool is idle.
      if (work_.absorbed() > covered_) {
        start_check(work_.absorbed());
        continue;
      }
      if (exec_.idle() && drained()) finish();
      return;
    }
    if (work_.milestone_count() >= next_check_) {
      const std::size_t c = next_check_;
      next_check_ += params_.svd_stride;
      start_check(c);
    } else if (!drained()) {
      return;
    } else if (params_.pool.grow_on_drain()) {
      fill(true);
    } else {
      finish();  // Nmax or a fixed plan: stop with every survivor
    }
  }
}

void EnsembleOrchestrator::start_check(std::size_t c) {
  check_in_flight_ = true;
  covered_ = work_.absorbed();
  if (const std::optional<bool> verdict = work_.check(c)) on_verdict(*verdict);
}

void EnsembleOrchestrator::on_verdict(bool converged) {
  check_in_flight_ = false;
  if (draining_) return;
  if (!converged) {
    if (params_.pool.grow_at_check(work_.absorbed(), params_.svd_stride))
      fill(true);
    return;
  }
  converged_ = true;
  // Stop retries and speculation, then cancel what is still in flight,
  // sparing "ensemble calculations close to finishing" if asked (§4.1).
  exec_.enter_drain_mode();
  const bool spare = params_.cancel_policy == CancelPolicy::kSpareNearFinish;
  for (const auto& [member, report] : exec_.live_members()) {
    if (spare && report.state == mtc::TaskState::kRunning &&
        report.started > 0 && work_.near_finish(report))
      continue;
    exec_.cancel_member(member);
  }
  if (params_.cancel_policy == CancelPolicy::kCancelImmediately) {
    finish();
  } else {
    draining_ = true;
  }
}

void EnsembleOrchestrator::finish() {
  if (finished_) return;
  finished_ = true;
  exec_.cancel_all();
  work_.finished();
}

MemberTally EnsembleOrchestrator::tally() const {
  MemberTally t = exec_.stats();
  t.degraded = converged_ && t.members_lost > 0;
  return t;
}

}  // namespace essex::workflow
