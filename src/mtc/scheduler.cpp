#include "mtc/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace essex::mtc {

SchedulerParams sge_params() { return SchedulerParams{}; }

SchedulerParams condor_params(double negotiation_interval_s) {
  SchedulerParams p;
  p.negotiation_interval_s = negotiation_interval_s;
  p.dispatch_latency_s = 2.0;  // claiming handshake
  return p;
}

// ---- JobContext ---------------------------------------------------------

JobContext::JobContext(ClusterScheduler& sched, JobId id,
                       std::size_t node_index)
    : sched_(sched),
      id_(id),
      node_index_(node_index),
      rng_(sched.params_.faults.seed, id) {}

double JobContext::cpu_speed() const { return node().cpu_speed; }

const NodeSpec& JobContext::node() const {
  return sched_.cluster_.nodes[node_index_];
}

void JobContext::compute(double cpu_seconds_at_unit_speed,
                         std::function<void()> next) {
  ESSEX_REQUIRE(cpu_seconds_at_unit_speed >= 0, "negative compute time");
  const double wall = cpu_seconds_at_unit_speed / cpu_speed();
  auto self = shared_from_this();
  // Failure injection: the job may die part-way through this segment.
  if (sched_.params_.faults.segment.probability > 0.0 &&
      rng_.uniform() < sched_.params_.faults.segment.probability) {
    const double frac = sched_.params_.faults.segment.fraction;
    sched_.sim_.after(wall * frac, [self, wall, frac] {
      if (!self->alive_) return;
      self->sched_.records_[self->id_].cpu_seconds += wall * frac;
      self->fail();
    });
    return;
  }
  sched_.sim_.after(wall, [self, wall, next = std::move(next)] {
    if (!self->alive_) return;
    self->sched_.records_[self->id_].cpu_seconds += wall;
    next();
  });
}

void JobContext::transfer(BandwidthResource& resource, double bytes,
                          std::function<void()> next) {
  const SimTime begin = sched_.sim_.now();
  auto self = shared_from_this();
  resource.start_transfer(bytes,
                          [self, begin, next = std::move(next)] {
                            if (!self->alive_) return;
                            self->sched_.records_[self->id_].io_seconds +=
                                self->sched_.sim_.now() - begin;
                            next();
                          });
}

void JobContext::busy_wait(double seconds, std::function<void()> next) {
  ESSEX_REQUIRE(seconds >= 0, "negative busy wait");
  auto self = shared_from_this();
  sched_.sim_.after(seconds, [self, seconds, next = std::move(next)] {
    if (!self->alive_) return;
    self->sched_.records_[self->id_].cpu_seconds += seconds;
    next();
  });
}

void JobContext::wait(double seconds, std::function<void()> next) {
  ESSEX_REQUIRE(seconds >= 0, "negative wait");
  auto self = shared_from_this();
  sched_.sim_.after(seconds, [self, seconds, next = std::move(next)] {
    if (!self->alive_) return;
    self->sched_.records_[self->id_].io_seconds += seconds;
    next();
  });
}

void JobContext::finish() {
  if (!alive_ || finished_) return;
  finished_ = true;
  sched_.job_done(id_, JobStatus::kDone);
}

void JobContext::fail() {
  if (!alive_ || finished_) return;
  finished_ = true;
  sched_.job_done(id_, JobStatus::kFailed);
}

// ---- ClusterScheduler ---------------------------------------------------

ClusterScheduler::ClusterScheduler(Simulator& sim, ClusterSpec cluster,
                                   SchedulerParams params)
    : sim_(sim),
      cluster_(std::move(cluster)),
      params_(params),
      outage_rng_(params.faults.seed, 0xFA177ULL) {
  nfs_ = std::make_unique<BandwidthResource>(
      sim_, cluster_.nfs_capacity_bps, cluster_.name + "-nfs");
  busy_cores_.resize(cluster_.nodes.size(), 0);
  node_down_.resize(cluster_.nodes.size(), false);
  // Nodes reserved by other users contribute no schedulable cores.
  for (std::size_t i = 0; i < cluster_.nodes.size(); ++i) {
    if (cluster_.nodes[i].reserved_by_others)
      busy_cores_[i] = cluster_.nodes[i].cores;
    else
      schedulable_cores_ += cluster_.nodes[i].cores;
  }
}

void ClusterScheduler::advance_occupancy() {
  const SimTime t = sim_.now();
  busy_core_seconds_ +=
      static_cast<double>(held_cores_) * (t - occupancy_since_);
  occupancy_since_ = t;
}

double ClusterScheduler::busy_core_seconds() const {
  return busy_core_seconds_ +
         static_cast<double>(held_cores_) * (sim_.now() - occupancy_since_);
}

void ClusterScheduler::note_queue_depth() {
  if (!telem_) return;
  telem_->gauge_set("sched.queue_depth",
                    static_cast<double>(queue_.size()));
  telem_->event("sched.queue_depth", sim_.now(),
                static_cast<double>(queue_.size()));
}

JobId ClusterScheduler::submit(JobBody body, std::size_t cores) {
  ESSEX_REQUIRE(body != nullptr, "job body must be callable");
  ESSEX_REQUIRE(cores >= 1, "a job needs at least one core");
  std::size_t max_node_cores = 0;
  for (const auto& n : cluster_.nodes)
    max_node_cores = std::max(max_node_cores, n.cores);
  ESSEX_REQUIRE(cores <= max_node_cores,
                "no node is large enough for this job");
  const JobId id = records_.size();
  JobRecord rec;
  rec.id = id;
  rec.cores = cores;
  // Submission overheads serialise on the master script.
  const double overhead = params_.use_job_arrays
                              ? params_.array_submit_overhead_s
                              : params_.submit_overhead_s;
  submit_ready_at_ = std::max(submit_ready_at_, sim_.now()) + overhead;
  rec.submitted = submit_ready_at_;
  records_.push_back(rec);
  contexts_.push_back(nullptr);
  if (telem_) telem_->count("sched.jobs_submitted");
  sim_.at(submit_ready_at_,
          [this, id, cores, body = std::move(body)]() mutable {
    queue_.push_back({id, std::move(body), cores});
    note_queue_depth();
    maybe_schedule_outage();
    if (params_.negotiation_interval_s > 0) {
      if (!negotiation_scheduled_) {
        negotiation_scheduled_ = true;
        const double interval = params_.negotiation_interval_s;
        const double next_cycle =
            (std::floor(sim_.now() / interval) + 1.0) * interval;
        sim_.at(next_cycle, [this] { negotiation_cycle(); });
      }
    } else {
      try_dispatch();
    }
  });
  return id;
}

std::vector<JobId> ClusterScheduler::submit_array(
    std::vector<JobBody> bodies) {
  std::vector<JobId> ids;
  ids.reserve(bodies.size());
  for (auto& b : bodies) ids.push_back(submit(std::move(b)));
  return ids;
}

void ClusterScheduler::cancel(JobId id) {
  ESSEX_REQUIRE(id < records_.size(), "cancel: unknown job id");
  JobRecord& rec = records_[id];
  if (rec.status == JobStatus::kQueued) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        queue_.erase(it);
        break;
      }
    }
    rec.status = JobStatus::kCancelled;
    rec.finished = sim_.now();
    if (telem_) {
      telem_->count("sched.jobs_cancelled");
      note_queue_depth();
    }
    if (hook_) hook_(rec);
    return;
  }
  if (rec.status == JobStatus::kRunning) {
    auto& ctx = contexts_[id];
    if (ctx) ctx->alive_ = false;
    job_done(id, JobStatus::kCancelled);
  }
}

void ClusterScheduler::set_completion_hook(CompletionHook hook) {
  hook_ = std::move(hook);
}

const JobRecord& ClusterScheduler::record(JobId id) const {
  ESSEX_REQUIRE(id < records_.size(), "record: unknown job id");
  return records_[id];
}

std::size_t ClusterScheduler::free_cores() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cluster_.nodes.size(); ++i)
    n += cluster_.nodes[i].cores - busy_cores_[i];
  return n;
}

std::optional<std::size_t> ClusterScheduler::find_node_for(
    std::size_t cores) const {
  // Prefer faster nodes (SGE load formulas typically do).
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < cluster_.nodes.size(); ++i) {
    if (node_down_[i]) continue;
    if (busy_cores_[i] + cores > cluster_.nodes[i].cores) continue;
    if (!best || cluster_.nodes[i].cpu_speed >
                     cluster_.nodes[*best].cpu_speed) {
      best = i;
    }
  }
  return best;
}

std::optional<std::pair<std::size_t, std::size_t>>
ClusterScheduler::find_dispatchable() const {
  for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
    const auto node = find_node_for(queue_[pos].cores);
    if (node) return std::make_pair(pos, *node);
    if (params_.strict_fifo) return std::nullopt;  // head blocks the queue
  }
  return std::nullopt;
}

void ClusterScheduler::dispatch_at(std::size_t queue_pos,
                                   std::size_t node_index) {
  Pending p = std::move(
      queue_[queue_pos]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(queue_pos));
  advance_occupancy();
  busy_cores_[node_index] += p.cores;
  held_cores_ += p.cores;
  ++running_;
  JobRecord& rec = records_[p.id];
  rec.status = JobStatus::kRunning;
  rec.node_index = node_index;
  if (telem_) {
    telem_->count("sched.jobs_dispatched");
    // Queue wait: job visible to the dispatcher → matched to a node. For
    // Condor dispatch this is dominated by the negotiation-cycle wait the
    // paper blames for its 10–20 % penalty (§5.2.1).
    const double wait = sim_.now() - rec.submitted;
    telem_->observe("sched.queue_wait_s", wait);
    if (params_.negotiation_interval_s > 0)
      telem_->observe("sched.negotiation_wait_s", wait);
    note_queue_depth();
  }
  auto ctx = std::shared_ptr<JobContext>(
      new JobContext(*this, p.id, node_index));
  contexts_[p.id] = ctx;
  sim_.after(params_.dispatch_latency_s,
             [this, id = p.id, ctx, body = std::move(p.body)] {
               if (!ctx->alive_) return;
               records_[id].started = sim_.now();
               body(*ctx);
             });
}

void ClusterScheduler::try_dispatch() {
  while (!queue_.empty()) {
    const auto match = find_dispatchable();
    if (!match) return;
    dispatch_at(match->first, match->second);
  }
}

void ClusterScheduler::negotiation_cycle() {
  if (telem_) telem_->count("sched.negotiation_cycles");
  // Match as many pending jobs as free cores allow, then sleep a cycle.
  while (!queue_.empty()) {
    const auto match = find_dispatchable();
    if (!match) break;
    dispatch_at(match->first, match->second);
  }
  if (!queue_.empty() || running_ > 0) {
    sim_.after(params_.negotiation_interval_s,
               [this] { negotiation_cycle(); });
  } else {
    negotiation_scheduled_ = false;
  }
}

void ClusterScheduler::release_cores(std::size_t node_index,
                                     std::size_t cores) {
  ESSEX_ASSERT(busy_cores_[node_index] >= cores, "releasing idle cores");
  ESSEX_ASSERT(held_cores_ >= cores, "releasing more cores than held");
  advance_occupancy();
  busy_cores_[node_index] -= cores;
  held_cores_ -= cores;
}

void ClusterScheduler::job_done(JobId id, JobStatus status) {
  JobRecord& rec = records_[id];
  ESSEX_ASSERT(rec.status == JobStatus::kRunning,
               "job_done on a non-running job");
  rec.status = status;
  rec.finished = sim_.now();
  release_cores(rec.node_index, rec.cores);
  --running_;
  contexts_[id] = nullptr;
  if (telem_) {
    switch (status) {
      case JobStatus::kDone: telem_->count("sched.jobs_done"); break;
      case JobStatus::kFailed: telem_->count("sched.jobs_failed"); break;
      case JobStatus::kEvicted: telem_->count("sched.jobs_evicted"); break;
      default: telem_->count("sched.jobs_cancelled"); break;
    }
    telem_->count("sched.cpu_seconds", rec.cpu_seconds);
    telem_->count("sched.io_seconds", rec.io_seconds);
    if (status == JobStatus::kDone)
      telem_->observe("sched.job_utilisation", rec.cpu_utilization());
  }
  if (hook_) hook_(rec);
  // SGE reassigns immediately; Condor waits for the next cycle (already
  // scheduled by negotiation_cycle()).
  if (params_.negotiation_interval_s <= 0) {
    try_dispatch();
  }
}

// ---- Node outages -------------------------------------------------------

void ClusterScheduler::maybe_schedule_outage() {
  if (params_.faults.outage.mtbf_s <= 0.0 || outage_scheduled_) return;
  outage_scheduled_ = true;
  const double gap =
      outage_rng_.exponential(1.0 / params_.faults.outage.mtbf_s);
  sim_.after(gap, [this] { outage_event(); });
}

void ClusterScheduler::outage_event() {
  outage_scheduled_ = false;
  // Pause while idle so the event queue can drain; submit() resumes us.
  if (queue_.empty() && running_ == 0) return;
  std::vector<std::size_t> up;
  for (std::size_t i = 0; i < cluster_.nodes.size(); ++i) {
    if (!node_down_[i] && !cluster_.nodes[i].reserved_by_others)
      up.push_back(i);
  }
  if (!up.empty()) {
    take_node_down(up[outage_rng_.uniform_index(up.size())]);
  }
  maybe_schedule_outage();
}

void ClusterScheduler::take_node_down(std::size_t node_index) {
  node_down_[node_index] = true;
  if (telem_) {
    telem_->count("sched.node_outages");
    telem_->event("sched.node_outage", sim_.now(),
                  static_cast<double>(node_index));
  }
  std::vector<JobId> victims;
  for (const auto& rec : records_) {
    if (rec.status == JobStatus::kRunning && rec.node_index == node_index)
      victims.push_back(rec.id);
  }
  for (JobId id : victims) {
    auto& ctx = contexts_[id];
    if (ctx) ctx->alive_ = false;
    job_done(id, JobStatus::kEvicted);
  }
  sim_.after(params_.faults.outage.duration_s, [this, node_index] {
    node_down_[node_index] = false;
    if (telem_) telem_->count("sched.node_recoveries");
    if (params_.negotiation_interval_s <= 0) try_dispatch();
  });
}

}  // namespace essex::mtc
