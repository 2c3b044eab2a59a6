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

PreconditionError already_taken(std::uint64_t id) {
  return PreconditionError("forecast request " + std::to_string(id) +
                           " result was already taken");
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
    // Seal right away: the service drops the queue entry before its next
    // admission or dispatch. A running request is aborted by the core
    // instead.
    rec_->state = RequestState::kCancelled;
    rec_->cv.notify_all();
  }
  return true;
}

const esse::ForecastResult& ForecastHandle::result() const {
  switch (wait()) {
    case RequestState::kDone: {
      std::lock_guard<std::mutex> lk(rec_->mu);
      if (!rec_->has_result) throw already_taken(rec_->id);
      return rec_->result;
    }
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
  (void)result();  // waits and throws on failure/cancel/reject/taken
  std::lock_guard<std::mutex> lk(rec_->mu);
  if (!std::exchange(rec_->has_result, false)) throw already_taken(rec_->id);
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
      desk_(config.admission, config.max_inflight, config.sink) {
  ESSEX_REQUIRE(config_.min_workers >= 1, "service needs >= 1 worker");
  ESSEX_REQUIRE(config_.max_workers >= config_.min_workers,
                "max_workers must be >= min_workers");
  ESSEX_REQUIRE(config_.max_inflight >= 1,
                "service needs >= 1 concurrent request slot");
  member_pool_ = std::make_unique<ThreadPool>(config_.min_workers);
  orchestrators_ = std::make_unique<ThreadPool>(config_.max_inflight);
  desk_.resized(0, config_.min_workers);
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

ForecastHandle ForecastService::submit(const ServiceRequest& request) {
  const auto issues = workflow::validate(request.forecast);
  std::lock_guard<std::mutex> lk(mu_);
  drop_cancelled_locked();  // before the desk snapshots its load
  const double now = now_s();
  Receipt receipt;
  if (stopping_) {
    receipt = desk_.refuse(
        now, {RejectReason::kShuttingDown,
              "service is shutting down and no longer accepts requests"});
  } else if (!issues.empty()) {
    receipt = desk_.refuse(
        now, {RejectReason::kInvalidRequest, workflow::describe(issues)});
  } else {
    receipt = desk_.admit(
        now, {request.priority, request.deadline_s, request.expected_cost_s,
              workflow::forecast_work_units(request.forecast)});
  }
  auto rec = std::make_shared<RequestRecord>(receipt.id, request);
  if (receipt.rejection) {
    rec->rejection = std::move(*receipt.rejection);
    rec->state = RequestState::kRejected;
    return ForecastHandle(rec);
  }
  queued_.emplace(rec->id, rec);
  dispatch_locked();
  return ForecastHandle(rec);
}

void ForecastService::drop_cancelled_locked() {
  // A handle seals a queued request without the service lock; its queue
  // slot is released here, before anything reads the queue.
  for (auto it = queued_.begin(); it != queued_.end();) {
    if (it->second->cancel.load(std::memory_order_relaxed)) {
      desk_.withdraw(it->first);
      it = queued_.erase(it);
    } else {
      ++it;
    }
  }
}

void ForecastService::dispatch_locked() {
  const double now = now_s();
  while (const auto id = desk_.start(now)) {
    std::shared_ptr<RequestRecord> rec = std::move(queued_.at(*id));
    queued_.erase(*id);
    bool cancelled;
    {
      std::lock_guard<std::mutex> rlk(rec->mu);
      cancelled = terminal(rec->state);
      if (!cancelled) rec->state = RequestState::kRunning;
    }
    if (cancelled) {
      // Sealed by its handle since the last drop_cancelled_locked().
      desk_.finish(*id, RequestState::kCancelled, now);
      continue;
    }
    running_.emplace(*id, rec);
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
  std::optional<esse::ForecastResult> result;
  std::exception_ptr err;
  {
    telemetry::ScopedTimer span(config_.sink, "service.request_s");
    try {
      result = execute_forecast(rec->forecast, *member_pool_, hooks);
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (config_.elastic) update_demand(rec->id, 0);  // hand slots back
  RequestState final_state;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    if (err) {
      rec->state = RequestState::kFailed;
      rec->error = err;
    } else if (!result) {
      rec->state = RequestState::kCancelled;
    } else {
      rec->state = RequestState::kDone;
      rec->result = std::move(*result);
      rec->has_result = true;
    }
    final_state = rec->state;
  }
  rec->cv.notify_all();
  {
    std::lock_guard<std::mutex> lk(mu_);
    desk_.finish(rec->id, final_state, now_s());
    running_.erase(rec->id);
    drop_cancelled_locked();
    dispatch_locked();
  }
  cv_.notify_all();
}

void ForecastService::update_demand(std::uint64_t id,
                                    std::size_t workers_wanted) {
  std::size_t current = 0;
  std::size_t target = 0;
  {
    std::lock_guard<std::mutex> lk(demand_mu_);
    if (workers_wanted == 0) {
      demands_.erase(id);
    } else {
      demands_[id] = workers_wanted;
    }
    if (!member_pool_) return;
    std::size_t total = 0;
    for (const auto& [rid, want] : demands_) total += want;
    target = std::clamp(std::max(total, std::size_t{1}), config_.min_workers,
                        config_.max_workers);
    current = member_pool_->thread_count();
    if (target == current) return;
    member_pool_->resize(target);
    if (config_.sink) {
      config_.sink->gauge_set("service.workers", static_cast<double>(target));
      config_.sink->event("service.workers", now_s(),
                          static_cast<double>(target));
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  desk_.resized(current, target);
}

void ForecastService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return stopped_ || desk_.idle(); });
}

void ForecastService::shutdown() {
  std::vector<std::shared_ptr<RequestRecord>> queued_now;
  std::vector<std::shared_ptr<RequestRecord>> running_now;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [id, rec] : queued_) {
      desk_.withdraw(id);
      queued_now.push_back(std::move(rec));
    }
    queued_.clear();
    for (const auto& [id, rec] : running_) running_now.push_back(rec);
  }
  cv_.notify_all();
  // Abandon the queue first, then abort the running set: the cores
  // observe the cancel flag at their next wait tick and drain their own
  // tasks off the shared pool.
  for (const auto& rec : queued_now) seal(rec, RequestState::kCancelled);
  for (const auto& rec : running_now) {
    rec->cancel.store(true, std::memory_order_relaxed);
  }
  // Joining the orchestrator pool waits out every in-flight run_request,
  // each of which tears down its own backend (cancel, then drain) before
  // returning — only then is the member pool safe to join. The
  // queue is empty, so no finishing request dispatches another.
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
  return static_cast<std::size_t>(
      std::count_if(queued_.begin(), queued_.end(), [](const auto& kv) {
        return !kv.second->cancel.load(std::memory_order_relaxed);
      }));
}

std::size_t ForecastService::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return desk_.inflight();
}

std::size_t ForecastService::workers() const {
  std::lock_guard<std::mutex> lk(demand_mu_);
  return member_pool_ ? member_pool_->thread_count() : 0;
}

ServiceStats ForecastService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return desk_.stats();
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
  // One-shot mode: a private single-request service whose pool is pinned
  // at cycle.threads workers (min = max, so demand never resizes it).
  // The request has no deadline, so admission only checks the queue.
  ServiceConfig sc;
  const std::size_t workers =
      std::max<std::size_t>(request.config.cycle.threads, 1);
  sc.min_workers = sc.max_workers = workers;
  sc.max_inflight = 1;
  ForecastService svc(sc);
  ForecastHandle handle = svc.submit({.forecast = request});
  return handle.take_result();
}

}  // namespace essex::service
