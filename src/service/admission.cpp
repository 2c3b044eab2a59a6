#include "service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace essex::service {

namespace {

/// Safety multiplier on the estimated service time before comparing
/// against the deadline (absorbs estimate noise and queue jitter).
constexpr double kRuntimeSafety = 1.25;

}  // namespace

std::string to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kRejected: return "rejected";
  }
  return "unknown";
}

std::string to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kDeadlineInfeasible: return "deadline-infeasible";
    case RejectReason::kInvalidRequest: return "invalid-request";
    case RejectReason::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

void RuntimeEstimator::observe(double service_time_s, double work_units) {
  if (service_time_s < 0.0 || !(work_units > 0.0)) return;
  const double per_unit = service_time_s / work_units;
  per_unit_ = samples_ == 0
                  ? per_unit
                  : (1.0 - alpha_) * per_unit_ + alpha_ * per_unit;
  ++samples_;
}

std::optional<Rejection> AdmissionController::decide(
    const AdmissionTicket& ticket, const ServerLoad& load,
    const RuntimeEstimator& estimator) const {
  if (load.queued >= policy_.max_queued) {
    std::ostringstream os;
    os << "request queue at capacity (" << load.queued << "/"
       << policy_.max_queued << " queued)";
    return Rejection{RejectReason::kQueueFull, os.str()};
  }
  if (std::isfinite(ticket.deadline_s)) {
    const double cost = ticket.expected_cost_s > 0.0
                            ? ticket.expected_cost_s
                            : estimator.estimate_s(ticket.work_units);
    // No cost signal at all: admit optimistically rather than guess.
    if (cost > 0.0) {
      const std::size_t slots = std::max<std::size_t>(load.max_inflight, 1);
      // Requests this one must wait out: everything queued at its
      // priority or higher plus the running set, served `slots` at a
      // time.
      const auto ahead =
          static_cast<double>(load.queued_ahead + load.inflight);
      const double wait_s = std::ceil(ahead / static_cast<double>(slots)) *
                            cost * kRuntimeSafety;
      const double finish_s = load.now_s + wait_s +
                              cost * kRuntimeSafety;
      if (finish_s > ticket.deadline_s) {
        std::ostringstream os;
        os << "deadline infeasible: estimated finish t=" << finish_s
           << "s (now " << load.now_s << "s + wait " << wait_s
           << "s + run " << cost * kRuntimeSafety
           << "s) past deadline t=" << ticket.deadline_s << "s";
        return Rejection{RejectReason::kDeadlineInfeasible, os.str()};
      }
    }
  }
  return std::nullopt;
}

std::optional<RequestQueue::Entry> RequestQueue::pop() {
  if (entries_.empty()) return std::nullopt;
  Entry best = *entries_.begin();
  entries_.erase(entries_.begin());
  return best;
}

bool RequestQueue::erase(std::uint64_t id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t RequestQueue::count_at_or_above(int priority) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.priority >= priority;
      }));
}

RequestDesk::RequestDesk(AdmissionPolicy policy, std::size_t max_inflight,
                         telemetry::Sink* sink)
    : controller_(policy), max_inflight_(max_inflight), sink_(sink) {}

Receipt RequestDesk::refuse(double now_s, Rejection rejection) {
  ++stats_.submitted;
  const std::uint64_t id = next_id_++;
  switch (rejection.reason) {
    case RejectReason::kQueueFull: ++stats_.rejected_queue_full; break;
    case RejectReason::kDeadlineInfeasible: ++stats_.rejected_deadline; break;
    case RejectReason::kInvalidRequest: ++stats_.rejected_invalid; break;
    case RejectReason::kShuttingDown: ++stats_.rejected_shutdown; break;
  }
  if (sink_) {
    sink_->count("service.rejected");
    sink_->count("service.rejected." + to_string(rejection.reason));
    sink_->event("service.request.rejected", now_s,
                 static_cast<double>(id));
  }
  return {id, std::move(rejection)};
}

Receipt RequestDesk::admit(double now_s, const AdmissionTicket& ticket) {
  // A NaN deadline ties with every other in the queue's ordering, which
  // would drop the entry as a duplicate.
  if (std::isnan(ticket.deadline_s)) {
    return refuse(now_s, {RejectReason::kInvalidRequest,
                          "deadline must be a number (+inf = none)"});
  }
  const ServerLoad load{now_s, queue_.size(),
                        queue_.count_at_or_above(ticket.priority), inflight_,
                        max_inflight_};
  if (auto rej = controller_.decide(ticket, load, estimator_)) {
    return refuse(now_s, std::move(*rej));
  }
  ++stats_.submitted;
  const std::uint64_t id = next_id_++;
  queue_.push({id, ticket.priority, ticket.deadline_s});
  bookings_.emplace(id, Booking{ticket, now_s});
  ++stats_.admitted;
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  if (sink_) {
    sink_->count("service.admitted");
    sink_->gauge_set("service.queued", static_cast<double>(queue_.size()));
    sink_->event("service.request.queued", now_s, static_cast<double>(id));
  }
  return {id, std::nullopt};
}

std::optional<std::uint64_t> RequestDesk::start(double now_s) {
  if (inflight_ >= max_inflight_) return std::nullopt;
  const auto entry = queue_.pop();
  if (!entry) return std::nullopt;
  ++inflight_;
  bookings_.at(entry->id).started_s = now_s;
  if (sink_) {
    sink_->event("service.request.start", now_s,
                 static_cast<double>(entry->id));
    sink_->gauge_set("service.inflight", static_cast<double>(inflight_));
  }
  return entry->id;
}

bool RequestDesk::withdraw(std::uint64_t id) {
  if (!queue_.erase(id)) return false;
  bookings_.erase(id);
  ++stats_.cancelled;
  if (sink_) sink_->count("service.cancelled");
  return true;
}

Booking RequestDesk::finish(std::uint64_t id, RequestState state,
                            double now_s) {
  const auto it = bookings_.find(id);
  ESSEX_ASSERT(it != bookings_.end() && inflight_ > 0,
               "finish of a request that never started");
  Booking b = it->second;
  bookings_.erase(it);
  --inflight_;
  b.finished_s = now_s;
  const bool missed = state == RequestState::kDone && !b.deadline_met();
  switch (state) {
    case RequestState::kDone:
      ++stats_.completed;
      if (missed) ++stats_.deadline_missed;
      estimator_.observe(b.finished_s - b.started_s, b.ticket.work_units);
      break;
    case RequestState::kFailed: ++stats_.failed; break;
    default: ++stats_.cancelled; break;
  }
  if (sink_) {
    sink_->count("service." + to_string(state));
    if (missed) sink_->count("service.deadline_missed");
    sink_->observe("service.queue_wait_s", b.started_s - b.submitted_s);
    sink_->observe("service.latency_s", b.finished_s - b.submitted_s);
    sink_->event("service.request." + to_string(state), b.finished_s,
                 static_cast<double>(id));
    sink_->gauge_set("service.inflight", static_cast<double>(inflight_));
  }
  return b;
}

void RequestDesk::resized(std::size_t from, std::size_t to) {
  if (from != 0 && to > from) ++stats_.pool_grow_events;
  if (from != 0 && to < from) ++stats_.pool_shrink_events;
  stats_.peak_workers = std::max(stats_.peak_workers, to);
}

}  // namespace essex::service
