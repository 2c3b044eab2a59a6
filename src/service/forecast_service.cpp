#include "service/forecast_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace essex::service {

namespace {

bool terminal(RequestState s) {
  return s != RequestState::kQueued && s != RequestState::kRunning;
}

}  // namespace

// ---------------------------------------------------------------------------
// ForecastHandle

RequestState ForecastHandle::state() const {
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->state;
}

bool ForecastHandle::done() const { return terminal(state()); }

RequestState ForecastHandle::wait() const {
  std::unique_lock<std::mutex> lk(rec_->mu);
  rec_->cv.wait(lk, [&] { return terminal(rec_->state); });
  return rec_->state;
}

std::optional<RequestState> ForecastHandle::wait_for(double seconds) const {
  std::unique_lock<std::mutex> lk(rec_->mu);
  const bool ok = rec_->cv.wait_for(
      lk, std::chrono::duration<double>(seconds),
      [&] { return terminal(rec_->state); });
  if (!ok) return std::nullopt;
  return rec_->state;
}

bool ForecastHandle::cancel() {
  std::lock_guard<std::mutex> lk(rec_->mu);
  if (terminal(rec_->state)) return false;
  rec_->cancel.store(true, std::memory_order_relaxed);
  if (rec_->state == RequestState::kQueued) {
    // Seal right away: the dispatcher drops the zombie queue entry when
    // it surfaces. A running request is aborted by the core instead.
    rec_->state = RequestState::kCancelled;
    rec_->cv.notify_all();
  }
  return true;
}

const esse::ForecastResult& ForecastHandle::result() const {
  switch (wait()) {
    case RequestState::kDone:
      return rec_->result;
    case RequestState::kFailed:
      std::rethrow_exception(rec_->error);
    case RequestState::kCancelled:
      throw PreconditionError("forecast request " + std::to_string(rec_->id) +
                              " was cancelled");
    case RequestState::kRejected:
      throw PreconditionError(
          "forecast request rejected (" + to_string(rec_->rejection.reason) +
          "): " + rec_->rejection.message);
    default:
      throw PreconditionError("forecast request in non-terminal state");
  }
}

esse::ForecastResult ForecastHandle::take_result() {
  (void)result();  // waits and throws on failure/cancel/reject
  std::lock_guard<std::mutex> lk(rec_->mu);
  rec_->has_result = false;
  return std::move(rec_->result);
}

std::exception_ptr ForecastHandle::error() const {
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->error;
}

// ---------------------------------------------------------------------------
// ForecastService

ForecastService::ForecastService(ServiceConfig config)
    : config_(config),
      epoch_s_(telemetry::wall_seconds()),
      admission_(config.admission) {
  ESSEX_REQUIRE(config_.min_workers >= 1, "service needs >= 1 worker");
  ESSEX_REQUIRE(config_.max_workers >= config_.min_workers,
                "max_workers must be >= min_workers");
  ESSEX_REQUIRE(config_.max_inflight >= 1,
                "service needs >= 1 concurrent request slot");
  member_pool_ = std::make_unique<ThreadPool>(config_.min_workers);
  orchestrators_ = std::make_unique<ThreadPool>(config_.max_inflight);
  peak_workers_.store(config_.min_workers, std::memory_order_relaxed);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ForecastService::~ForecastService() { shutdown(); }

double ForecastService::now_s() const {
  return telemetry::wall_seconds() - epoch_s_;
}

void ForecastService::seal(const std::shared_ptr<RequestRecord>& rec,
                           RequestState state) {
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    if (terminal(rec->state)) return;
    rec->state = state;
  }
  rec->cv.notify_all();
}

ForecastHandle ForecastService::reject(const ServiceRequest& request,
                                       RejectReason reason,
                                       std::string message) {
  // Called with mu_ held (stats) — only touches the fresh record's lock.
  auto rec = std::make_shared<RequestRecord>(next_id_++, request);
  rec->submitted_s = now_s();
  rec->finished_s = rec->submitted_s;
  rec->rejection = Rejection{reason, std::move(message)};
  rec->state = RequestState::kRejected;
  switch (reason) {
    case RejectReason::kQueueFull: ++stats_.rejected_queue_full; break;
    case RejectReason::kDeadlineInfeasible: ++stats_.rejected_deadline; break;
    case RejectReason::kInvalidRequest: ++stats_.rejected_invalid; break;
    case RejectReason::kShuttingDown: ++stats_.rejected_shutdown; break;
  }
  if (config_.sink) {
    config_.sink->count("service.rejected");
    config_.sink->count("service.rejected." + to_string(reason));
    config_.sink->event("service.request.rejected", rec->submitted_s,
                        static_cast<double>(rec->id));
  }
  return ForecastHandle(rec);
}

ForecastHandle ForecastService::submit(const ServiceRequest& request) {
  const auto issues = workflow::validate(request.forecast);
  std::unique_lock<std::mutex> lk(mu_);
  ++stats_.submitted;
  if (stopping_) {
    return reject(request, RejectReason::kShuttingDown,
                  "service is shutting down and no longer accepts requests");
  }
  if (!issues.empty()) {
    return reject(request, RejectReason::kInvalidRequest,
                  workflow::describe(issues));
  }
  const double work_units = workflow::forecast_work_units(request.forecast);
  AdmissionTicket ticket;
  ticket.priority = request.priority;
  ticket.deadline_s = request.deadline_s;
  ticket.expected_cost_s = request.expected_cost_s;
  ticket.work_units = work_units;
  ServerLoad load;
  load.now_s = now_s();
  load.queued = queue_.size();
  load.queued_ahead = queue_.count_at_or_above(request.priority);
  load.inflight = inflight_;
  load.max_inflight = config_.max_inflight;
  if (auto rej = admission_.decide(ticket, load, estimator_)) {
    return reject(request, rej->reason, std::move(rej->message));
  }
  auto rec = std::make_shared<RequestRecord>(next_id_++, request);
  rec->submitted_s = load.now_s;
  rec->work_units = work_units;
  queue_.push({rec->id, request.priority, request.deadline_s});
  queued_records_.emplace(rec->id, rec);
  ++stats_.admitted;
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  if (config_.sink) {
    config_.sink->count("service.admitted");
    config_.sink->gauge_set("service.queued",
                            static_cast<double>(queue_.size()));
    config_.sink->event("service.request.queued", rec->submitted_s,
                        static_cast<double>(rec->id));
  }
  lk.unlock();
  cv_.notify_all();
  return ForecastHandle(rec);
}

void ForecastService::dispatcher_loop() {
  for (;;) {
    std::shared_ptr<RequestRecord> rec;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return stopping_ ||
               (!queue_.empty() && inflight_ < config_.max_inflight);
      });
      if (stopping_) return;
      const auto entry = queue_.pop();
      if (!entry) continue;
      auto it = queued_records_.find(entry->id);
      if (it == queued_records_.end()) continue;
      rec = it->second;
      queued_records_.erase(it);
      {
        // Cancelled while queued: the handle sealed the record; drop the
        // zombie queue entry and account for it here.
        std::lock_guard<std::mutex> rlk(rec->mu);
        if (terminal(rec->state)) {
          ++stats_.cancelled;
          if (config_.sink) config_.sink->count("service.cancelled");
          continue;
        }
        rec->state = RequestState::kRunning;
        rec->started_s = now_s();
      }
      ++inflight_;
      running_records_.emplace(rec->id, rec);
    }
    if (config_.sink) {
      config_.sink->event("service.request.start", rec->started_s,
                          static_cast<double>(rec->id));
    }
    orchestrators_->submit([this, rec] { run_request(rec); });
  }
}

void ForecastService::run_request(const std::shared_ptr<RequestRecord>& rec) {
  ExecHooks hooks;
  hooks.cancel = &rec->cancel;
  if (config_.elastic) {
    const std::uint64_t id = rec->id;
    hooks.demand = [this, id](std::size_t want) { update_demand(id, want); };
  }
  ExecOutcome outcome;
  std::exception_ptr err;
  {
    telemetry::ScopedTimer span(config_.sink, "service.request_s");
    try {
      outcome = execute_forecast(rec->forecast, *member_pool_, hooks);
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (config_.elastic) update_demand(rec->id, 0);  // hand slots back
  const double t_end = now_s();
  RequestState final_state;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    rec->finished_s = t_end;
    if (err) {
      rec->state = RequestState::kFailed;
      rec->error = err;
    } else if (outcome.cancelled) {
      rec->state = RequestState::kCancelled;
    } else {
      rec->state = RequestState::kDone;
      rec->result = std::move(outcome.result);
      rec->has_result = true;
    }
    final_state = rec->state;
  }
  rec->cv.notify_all();
  bool missed = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    --inflight_;
    running_records_.erase(rec->id);
    switch (final_state) {
      case RequestState::kDone:
        ++stats_.completed;
        missed = t_end > rec->deadline_s;
        if (missed) ++stats_.deadline_missed;
        estimator_.observe(t_end - rec->started_s, rec->work_units);
        break;
      case RequestState::kFailed: ++stats_.failed; break;
      default: ++stats_.cancelled; break;
    }
  }
  cv_.notify_all();
  if (telemetry::Sink* sink = config_.sink) {
    sink->count("service." + to_string(final_state));
    if (missed) sink->count("service.deadline_missed");
    sink->observe("service.queue_wait_s", rec->started_s - rec->submitted_s);
    sink->observe("service.latency_s", t_end - rec->submitted_s);
    sink->gauge_set("service.inflight", static_cast<double>(inflight()));
    sink->event("service.request." + to_string(final_state), t_end,
                static_cast<double>(rec->id));
  }
}

void ForecastService::update_demand(std::uint64_t id,
                                    std::size_t workers_wanted) {
  std::lock_guard<std::mutex> lk(demand_mu_);
  if (workers_wanted == 0) {
    demands_.erase(id);
  } else {
    demands_[id] = workers_wanted;
  }
  apply_demand_locked();
}

void ForecastService::apply_demand_locked() {
  if (!member_pool_) return;
  std::size_t total = 0;
  for (const auto& [id, want] : demands_) total += want;
  const std::size_t target =
      std::clamp(std::max(total, std::size_t{1}), config_.min_workers,
                 config_.max_workers);
  const std::size_t current = member_pool_->thread_count();
  if (target == current) return;
  member_pool_->resize(target);
  if (target > current) {
    grow_events_.fetch_add(1, std::memory_order_relaxed);
  } else {
    shrink_events_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t peak = peak_workers_.load(std::memory_order_relaxed);
  while (target > peak &&
         !peak_workers_.compare_exchange_weak(peak, target)) {
  }
  if (config_.sink) {
    config_.sink->gauge_set("service.workers", static_cast<double>(target));
    config_.sink->event("service.workers", now_s(),
                        static_cast<double>(target));
  }
}

void ForecastService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return stopped_ || (queue_.empty() && inflight_ == 0);
  });
}

void ForecastService::shutdown() {
  std::vector<std::shared_ptr<RequestRecord>> queued_now;
  std::vector<std::shared_ptr<RequestRecord>> running_now;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    while (auto entry = queue_.pop()) {
      auto it = queued_records_.find(entry->id);
      if (it == queued_records_.end()) continue;
      queued_now.push_back(std::move(it->second));
      queued_records_.erase(it);
    }
    for (const auto& [id, rec] : running_records_) running_now.push_back(rec);
  }
  cv_.notify_all();
  // Abandon the queue first, then abort the running set: the cores
  // observe the cancel flag at their next wait tick and drain their own
  // tasks off the shared pool.
  for (const auto& rec : queued_now) {
    seal(rec, RequestState::kCancelled);
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.cancelled;
  }
  for (const auto& rec : running_now) {
    rec->cancel.store(true, std::memory_order_relaxed);
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  // Joining the orchestrator pool waits out every in-flight run_request,
  // each of which tears down its own backend (cancel, drain, timers)
  // before returning — only then is the member pool safe to join.
  orchestrators_.reset();
  member_pool_.reset();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  if (config_.sink) config_.sink->count("service.shutdown");
}

std::size_t ForecastService::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::size_t ForecastService::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inflight_;
}

std::size_t ForecastService::workers() const {
  std::lock_guard<std::mutex> lk(demand_mu_);
  return member_pool_ ? member_pool_->thread_count() : 0;
}

ServiceStats ForecastService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats out = stats_;
  out.pool_grow_events = grow_events_.load(std::memory_order_relaxed);
  out.pool_shrink_events = shrink_events_.load(std::memory_order_relaxed);
  out.peak_workers = peak_workers_.load(std::memory_order_relaxed);
  return out;
}

double deadline_from_timeline(const workflow::ForecastTimeline& timeline,
                              std::size_t k, double now_s,
                              double service_seconds_per_hour) {
  ESSEX_REQUIRE(k < timeline.procedures().size(),
                "timeline has no such procedure");
  const auto& proc = timeline.procedures()[k];
  const double budget_h = proc.tau_end_h - proc.tau_start_h;
  return now_s + budget_h * service_seconds_per_hour;
}

esse::ForecastResult run_parallel_forecast(
    const workflow::ForecastRequest& request) {
  {
    const auto issues = workflow::validate(request);
    if (!issues.empty()) throw PreconditionError(workflow::describe(issues));
  }
  // One-shot mode: a private single-request service with a fixed pool of
  // cycle.threads workers and elasticity off reproduces the pre-service
  // runner exactly (same pool size, same core), so the determinism
  // digests hold bitwise.
  ServiceConfig sc;
  const std::size_t workers =
      std::max<std::size_t>(request.config.cycle.threads, 1);
  sc.min_workers = sc.max_workers = workers;
  sc.max_inflight = 1;
  sc.elastic = false;
  sc.admission.enforce_deadlines = false;
  ForecastService svc(sc);
  ForecastHandle handle = svc.submit({.forecast = request});
  return handle.take_result();
}

}  // namespace essex::service
