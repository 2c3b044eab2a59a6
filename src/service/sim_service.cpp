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
      admission_(config.admission) {
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
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;

  auto record_rejection = [&](RejectReason reason, std::string message) {
    switch (reason) {
      case RejectReason::kQueueFull: ++stats_.rejected_queue_full; break;
      case RejectReason::kDeadlineInfeasible:
        ++stats_.rejected_deadline;
        break;
      case RejectReason::kInvalidRequest: ++stats_.rejected_invalid; break;
      case RejectReason::kShuttingDown: ++stats_.rejected_shutdown; break;
    }
    SimRequestOutcome out;
    out.id = id;
    out.state = RequestState::kRejected;
    out.rejection = Rejection{reason, std::move(message)};
    out.priority = spec.priority;
    out.label = spec.label;
    out.submitted_s = out.finished_s = now;
    outcomes_.push_back(std::move(out));
    if (config_.sink) {
      config_.sink->count("service.rejected");
      config_.sink->count("service.rejected." + to_string(reason));
      config_.sink->event("service.request.rejected", now,
                          static_cast<double>(id));
    }
    return id;
  };

  // Structural validation: the real runner's ensemble and member-mix
  // checks, plus the twin's own modelled-convergence and core knobs.
  const esse::MultilevelParams plan = multilevel_plan(spec);
  {
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
    if (spec.fine_cores < 1) {
      issues.push_back({"spec.fine_cores", "a fine member needs >= 1 core"});
    }
    if (!issues.empty()) {
      return record_rejection(RejectReason::kInvalidRequest,
                              workflow::describe(issues));
    }
  }

  AdmissionTicket ticket;
  ticket.priority = spec.priority;
  ticket.deadline_s = spec.deadline_s;
  ticket.expected_cost_s = spec.expected_cost_s;
  ticket.work_units = spec_work_units(spec, plan);
  ServerLoad load;
  load.now_s = now;
  load.queued = queue_.size();
  load.queued_ahead = queue_.count_at_or_above(spec.priority);
  load.inflight = active_.size();
  load.max_inflight = config_.max_inflight;
  if (auto rej = admission_.decide(ticket, load, estimator_)) {
    return record_rejection(rej->reason, std::move(rej->message));
  }

  queue_.push({id, spec.priority, spec.deadline_s});
  queued_specs_.emplace(id, spec);
  queued_at_.emplace(id, now);
  ++stats_.admitted;
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  if (config_.sink) {
    config_.sink->count("service.admitted");
    config_.sink->gauge_set("service.queued",
                            static_cast<double>(queue_.size()));
    config_.sink->event("service.request.queued", now,
                        static_cast<double>(id));
  }
  pump();
  return id;
}

void SimForecastService::pump() {
  while (active_.size() < config_.max_inflight && !queue_.empty()) {
    const auto entry = queue_.pop();
    if (!entry) break;
    auto sit = queued_specs_.find(entry->id);
    if (sit == queued_specs_.end()) continue;
    const SimRequestSpec spec = sit->second;
    const double submitted_s = queued_at_.at(entry->id);
    queued_specs_.erase(sit);
    queued_at_.erase(entry->id);
    start(entry->id, spec, submitted_s);
  }
}

void SimForecastService::start(std::uint64_t id, const SimRequestSpec& spec,
                               double submitted_s) {
  Active a(spec, sizer_params(spec), multilevel_plan(spec));
  a.id = id;
  a.submitted_s = submitted_s;
  a.started_s = sim_.now();
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
  if (config_.sink) {
    config_.sink->event("service.request.start", sim_.now(),
                        static_cast<double>(id));
    config_.sink->gauge_set("service.inflight",
                            static_cast<double>(active_.size()));
  }
  rebalance_slots();
  fill(it->second);
}

std::size_t SimForecastService::pool_cap(const Active& a) const {
  // Multilevel plans are fixed budgets: no headroom, no growth stages.
  if (a.plan.enabled()) return a.plan.total_members();
  return a.sizer.pool_target(config_.pool_headroom);
}

void SimForecastService::fill(Active& a) {
  if (a.finishing) return;
  const std::size_t cap = pool_cap(a);
  while (a.outstanding < a.slots && a.ledger.members_submitted < cap)
    submit_member(a);
}

void SimForecastService::submit_member(Active& a) {
  std::size_t level = 0;
  double cost = member_cost_s(config_.shape);
  std::size_t cores = 1;
  if (a.plan.enabled()) {
    level = a.plan.level_of(a.ledger.members_submitted);
    cost *= a.plan.cost_ratio(level);
    // Fine members may reserve several cores; coarse members are always
    // 1-core so backfill packs them into slots fine members leave idle.
    cores = level == 0 ? a.spec.fine_cores : 1;
  }
  const mtc::JobId jid = sched_.submit(
      [cost](mtc::JobContext& ctx) {
        ctx.compute(cost, [&ctx] { ctx.finish(); });
      },
      cores);
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
  if (a.outstanding == 0 && a.ledger.members_submitted >= pool_cap(a)) {
    // Pool drained without reaching the goal: grow toward Nmax or give
    // up with what landed (the real runner's unconverged fallback). A
    // multilevel plan is its own budget — nothing left to grow.
    if (a.plan.enabled() || a.sizer.at_max()) {
      begin_finish(a);
      return;
    }
    a.sizer.grow();
    if (config_.sink) {
      config_.sink->event("service.ensemble_grow", sim_.now(),
                          static_cast<double>(a.sizer.target()));
    }
  }
  fill(a);
}

void SimForecastService::maybe_shrink_for_deadline(Active& a) {
  if (a.plan.enabled()) return;  // fixed plan; no growth stages to undo
  if (!std::isfinite(a.spec.deadline_s)) return;
  if (a.sizer.at_min()) return;
  const double cost = member_cost_s(config_.shape);
  const double slots = static_cast<double>(std::max<std::size_t>(a.slots, 1));
  const double remaining =
      static_cast<double>(a.goal - a.ledger.members_done);
  const double eta_s = sim_.now() + std::ceil(remaining / slots) * cost;
  if (eta_s <= a.spec.deadline_s) return;
  // Blowing the deadline at the current target: walk the ensemble back a
  // growth stage and settle for a smaller (degraded) subspace instead.
  const std::size_t new_target = a.sizer.shrink();
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
  a.done_s = sim_.now();
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

  SimRequestOutcome out;
  out.id = a.id;
  out.state = RequestState::kDone;
  out.priority = a.spec.priority;
  out.label = a.spec.label;
  out.submitted_s = a.submitted_s;
  out.started_s = a.started_s;
  out.finished_s = a.done_s;
  out.ledger = a.ledger;
  out.members_completed_per_level = a.completed_per_level;
  out.converged = a.ledger.members_done >= a.spec.converge_at;
  out.degraded = a.degraded;
  out.deadline_met = a.done_s <= a.spec.deadline_s;

  ++stats_.completed;
  if (!out.deadline_met) ++stats_.deadline_missed;
  estimator_.observe(a.done_s - a.started_s,
                     spec_work_units(a.spec, a.plan));
  if (telemetry::Sink* sink = config_.sink) {
    sink->count("service.done");
    if (!out.deadline_met) sink->count("service.deadline_missed");
    sink->observe("service.queue_wait_s", a.started_s - a.submitted_s);
    sink->observe("service.latency_s", a.done_s - a.submitted_s);
    sink->event("service.request.done", a.done_s,
                static_cast<double>(a.id));
    sink->gauge_set("service.inflight",
                    static_cast<double>(active_.size() - 1));
  }
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
    if (old != 0) {
      // Initial allocation is not an elasticity event; later changes are
      // workers joining/leaving a running ensemble.
      if (base > old) {
        ++stats_.pool_grow_events;
      } else {
        ++stats_.pool_shrink_events;
      }
    }
    stats_.peak_workers = std::max(stats_.peak_workers, base);
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
