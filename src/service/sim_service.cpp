#include "service/sim_service.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/execution_backend.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::service {

namespace {

/// Single-attempt member cost at unit speed (pert + pemodel).
double member_cost_s(const mtc::EsseJobShape& shape) {
  return shape.pert_cpu_s + shape.pert_fs_s + shape.pemodel_cpu_s;
}

/// Floor of any running request's member-slot budget.
constexpr std::size_t kMinSlotsPerRequest = 2;
/// M = headroom × N when filling a request's member pool.
constexpr double kPoolHeadroom = 1.1;

/// The request's ensemble-size schedule N → growth·N → … → Nmax.
esse::EnsembleSizeController::Params sizer_params(const SimRequestSpec& spec) {
  return {spec.initial_members, spec.growth, spec.max_members,
          spec.min_members};
}

/// The request's member mix as the real runner's MultilevelParams: its
/// level layout, planned total and per-level costs (coarsen = 2, so a
/// level-l member costs 2^(−3l) of a fine one).
esse::MultilevelParams multilevel_plan(const SimRequestSpec& spec) {
  esse::MultilevelParams plan;
  plan.levels = spec.levels;
  plan.members_per_level = spec.members_per_level;
  return plan;
}

/// Admission work units: planned member cost relative to one fine
/// member — the sim analogue of workflow::forecast_work_units.
double spec_work_units(const SimRequestSpec& spec,
                       const esse::MultilevelParams& plan) {
  return plan.enabled() ? plan.total_cost_units()
                        : static_cast<double>(spec.max_members);
}

}  // namespace

SimForecastService::SimForecastService(mtc::Simulator& sim,
                                       mtc::ClusterScheduler& sched,
                                       SimServiceConfig config)
    : sim_(sim), sched_(sched), config_(config),
      desk_(config.admission, config.max_inflight, config.sink) {
  ESSEX_REQUIRE(config_.max_inflight >= 1,
                "sim service needs >= 1 inflight slot");
  sched_.set_completion_hook([this](const mtc::JobRecord& rec) {
    auto it = job_owner_.find(rec.id);
    if (it == job_owner_.end()) return;  // not ours (foreign job)
    const std::uint64_t rid = it->second;
    job_owner_.erase(it);
    std::size_t level = 0;
    if (auto lit = job_level_.find(rec.id); lit != job_level_.end()) {
      level = lit->second;
      job_level_.erase(lit);
    }
    on_member_done(rid, level, rec.status);
  });
}

std::uint64_t SimForecastService::submit(const SimRequestSpec& spec) {
  const double now = sim_.now();
  // Structural validation: the real runner's ensemble and member-mix
  // checks, plus the twin's own modelled-convergence knob.
  const esse::MultilevelParams plan = multilevel_plan(spec);
  std::vector<workflow::ValidationIssue> issues;
  workflow::validate_ensemble(
      sizer_params(spec), plan,
      {"spec.initial_members", "spec.growth", "spec.max_members",
       "spec.min_members", "spec"},
      issues);
  if (spec.converge_at < 1) {
    issues.push_back({"spec.converge_at",
                      "modelled convergence needs >= 1 member"});
  }
  Receipt receipt =
      issues.empty()
          ? desk_.admit(now, {spec.priority, spec.deadline_s,
                              spec.expected_cost_s,
                              spec_work_units(spec, plan)})
          : desk_.refuse(now, {RejectReason::kInvalidRequest,
                               workflow::describe(issues)});
  if (receipt.rejection) {
    SimRequestOutcome out;
    out.id = receipt.id;
    out.state = RequestState::kRejected;
    out.rejection = std::move(*receipt.rejection);
    out.priority = spec.priority;
    out.label = spec.label;
    out.submitted_s = out.finished_s = now;
    outcomes_.push_back(std::move(out));
    return receipt.id;
  }
  queued_specs_.emplace(receipt.id, spec);
  pump();
  return receipt.id;
}

void SimForecastService::pump() {
  while (const auto id = desk_.start(sim_.now())) start(*id);
}

void SimForecastService::start(std::uint64_t id) {
  const SimRequestSpec spec = std::move(queued_specs_.extract(id).mapped());
  Active a(spec, sizer_params(spec), multilevel_plan(spec), kPoolHeadroom);
  a.id = id;
  if (a.plan.enabled()) {
    // Fixed plan: every planned (level, member) runs unless convergence
    // cancels the tail; the goal counts completions across all levels.
    a.goal = std::min(spec.converge_at, a.plan.total_members());
    a.completed_per_level.assign(spec.levels, 0);
  } else {
    a.goal = std::min(spec.converge_at, spec.max_members);
  }
  auto [it, inserted] = active_.emplace(id, std::move(a));
  ESSEX_ASSERT(inserted, "duplicate active request id");
  rebalance_slots();
  fill(it->second);
}

void SimForecastService::fill(Active& a) {
  if (a.finishing) return;
  const std::size_t cap = a.pool.cap();
  while (a.outstanding < a.slots && a.ledger.members_submitted < cap)
    submit_member(a);
}

void SimForecastService::submit_member(Active& a) {
  std::size_t level = 0;
  double cost = member_cost_s(config_.shape);
  if (a.plan.enabled()) {
    level = a.plan.level_of(a.ledger.members_submitted);
    cost *= a.plan.cost_ratio(level);
  }
  const mtc::JobId jid = sched_.submit([cost](mtc::JobContext& ctx) {
    ctx.compute(cost, [&ctx] { ctx.finish(); });
  });
  job_owner_.emplace(jid, a.id);
  job_level_.emplace(jid, level);
  a.live_jobs.push_back(jid);
  ++a.ledger.members_submitted;
  ++a.outstanding;
}

void SimForecastService::on_member_done(std::uint64_t request_id,
                                        std::size_t level,
                                        mtc::JobStatus status) {
  auto it = active_.find(request_id);
  if (it == active_.end()) return;
  Active& a = it->second;
  ESSEX_ASSERT(a.outstanding > 0, "member resolution with none outstanding");
  --a.outstanding;
  // One attempt per member and no retry layer: a failed or evicted job
  // is a lost member.
  const mtc::TaskOutcome outcome = mtc::to_outcome(status);
  mtc::record_final(a.ledger, outcome);
  if (outcome == mtc::TaskOutcome::kDone &&
      level < a.completed_per_level.size()) {
    ++a.completed_per_level[level];
  }
  if (a.finishing) return;  // draining; begin_finish() finalises

  if (a.ledger.members_done >= a.goal) {
    begin_finish(a);
    return;
  }
  maybe_shrink_for_deadline(a);
  if (a.ledger.members_done >= a.goal) {
    begin_finish(a);
    return;
  }
  if (a.outstanding == 0 && a.ledger.members_submitted >= a.pool.cap()) {
    // Pool drained without reaching the goal: grow, or give up with what
    // landed (the real runner's unconverged fallback).
    if (!a.pool.grow_on_drain()) {
      begin_finish(a);
      return;
    }
    if (config_.sink) {
      config_.sink->event("service.ensemble_grow", sim_.now(),
                          static_cast<double>(a.pool.target()));
    }
  }
  fill(a);
}

void SimForecastService::maybe_shrink_for_deadline(Active& a) {
  if (a.plan.enabled()) return;  // fixed plan; no growth stages to undo
  if (!std::isfinite(a.spec.deadline_s)) return;
  if (a.pool.sizer().at_min()) return;
  const double cost = member_cost_s(config_.shape);
  const double slots = static_cast<double>(std::max<std::size_t>(a.slots, 1));
  const double remaining =
      static_cast<double>(a.goal - a.ledger.members_done);
  const double eta_s = sim_.now() + std::ceil(remaining / slots) * cost;
  if (eta_s <= a.spec.deadline_s) return;
  // Blowing the deadline at the current target: walk the ensemble back a
  // growth stage and settle for a smaller (degraded) subspace instead.
  const std::size_t new_target = a.pool.sizer().shrink();
  const std::size_t new_goal =
      std::max(std::min(a.goal, new_target),
               std::max<std::size_t>(a.spec.min_members, 2));
  if (new_goal < a.goal) {
    a.goal = new_goal;
    a.degraded = true;
    if (config_.sink) {
      config_.sink->event("service.ensemble_shrink", sim_.now(),
                          static_cast<double>(new_goal));
    }
  }
}

void SimForecastService::begin_finish(Active& a) {
  a.finishing = true;
  // §4.1 cancel-on-convergence: kill this request's queued and running
  // members. Each cancel fires the completion hook synchronously, which
  // re-enters on_member_done (early-returns in the finishing state).
  std::vector<mtc::JobId> victims = std::move(a.live_jobs);
  a.live_jobs.clear();
  const std::uint64_t id = a.id;
  for (mtc::JobId jid : victims) {
    if (job_owner_.count(jid) == 0) continue;  // already resolved
    sched_.cancel(jid);
  }
  ESSEX_ASSERT(a.outstanding == 0,
               "cancelled members did not all resolve synchronously");
  finalize(id);
}

void SimForecastService::finalize(std::uint64_t id) {
  auto it = active_.find(id);
  ESSEX_ASSERT(it != active_.end(), "finalize of unknown request");
  const Active& a = it->second;
  // The goal was met or abandoned just now: begin_finish's cancels
  // resolve synchronously, so no simulated time has passed.
  const Booking b = desk_.finish(id, RequestState::kDone, sim_.now());

  SimRequestOutcome out;
  out.id = a.id;
  out.state = RequestState::kDone;
  out.priority = a.spec.priority;
  out.label = a.spec.label;
  out.submitted_s = b.submitted_s;
  out.started_s = b.started_s;
  out.finished_s = b.finished_s;
  out.ledger = a.ledger;
  out.members_completed_per_level = a.completed_per_level;
  out.converged = a.ledger.members_done >= a.spec.converge_at;
  out.degraded = a.degraded;
  out.deadline_met = b.deadline_met();
  outcomes_.push_back(std::move(out));
  active_.erase(it);
  rebalance_slots();
  pump();
}

void SimForecastService::rebalance_slots() {
  if (active_.empty()) return;
  const std::size_t total = sched_.schedulable_cores();
  const std::size_t base =
      std::max(kMinSlotsPerRequest, total / active_.size());
  for (auto& [id, a] : active_) {
    const std::size_t old = a.slots;
    if (base == old) continue;
    a.slots = base;
    // Later changes are workers joining/leaving a running ensemble.
    desk_.resized(old, base);
    if (config_.sink) {
      config_.sink->event("service.slots", sim_.now(),
                          static_cast<double>(base));
    }
    if (base > old) fill(a);
  }
}

long long SimForecastService::leaked_members() const {
  return std::count_if(
      outcomes_.begin(), outcomes_.end(),
      [](const SimRequestOutcome& out) { return !out.ledger.conserves(); });
}

}  // namespace essex::service
