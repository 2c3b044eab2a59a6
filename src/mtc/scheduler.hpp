// ESSEX: batch-scheduler models (paper §5.2, SGE vs Condor).
//
// ClusterScheduler owns core allocation on a ClusterSpec and dispatches
// queued jobs according to either policy:
//
//  * SGE-like: event-driven — "the transition was immediate" when a core
//    frees; small per-job dispatch latency only.
//  * Condor-like: pending jobs are matched only at negotiation-cycle
//    boundaries — the paper attributes Condor's measured 10–20 % lower
//    throughput to exactly this reassignment wait.
//
// Job bodies are continuation-passing programs over a JobContext that
// exposes cancellable compute/transfer primitives, so the ESSE workflow
// can cancel queued *and* running members on convergence (§4.1).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mtc/cluster.hpp"
#include "mtc/fault.hpp"
#include "mtc/job.hpp"
#include "mtc/sim.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::mtc {

class ClusterScheduler;

/// Per-job execution context: cancellable primitives that accumulate the
/// job's cpu/io accounting. All continuations are dropped silently if the
/// job has been killed. Instances are shared-pointer managed so pending
/// simulator events keep a killed job's context alive until they drain.
class JobContext : public std::enable_shared_from_this<JobContext> {
 public:
  /// CPU speed of the node this job landed on.
  double cpu_speed() const;
  const NodeSpec& node() const;
  std::size_t node_index() const { return node_index_; }

  /// Burn `cpu_seconds_at_unit_speed / cpu_speed()` of simulated time,
  /// then continue.
  void compute(double cpu_seconds_at_unit_speed,
               std::function<void()> next);

  /// Move `bytes` through a shared resource (NFS server, gateway link),
  /// accounting the elapsed time as I/O.
  void transfer(BandwidthResource& resource, double bytes,
                std::function<void()> next);

  /// Busy time that does not scale with CPU speed (buffered local-
  /// filesystem handling); accounted as busy, not I/O wait.
  void busy_wait(double seconds, std::function<void()> next);

  /// Wait without consuming CPU (accounted as I/O).
  void wait(double seconds, std::function<void()> next);

  /// Mark the job complete; frees the core and fires the scheduler's
  /// completion hook. Must be called exactly once unless killed.
  void finish();

  /// Mark the job failed (failure injection); frees the core.
  void fail();

  bool alive() const { return alive_; }

 private:
  friend class ClusterScheduler;
  JobContext(ClusterScheduler& sched, JobId id, std::size_t node_index);

  ClusterScheduler& sched_;
  JobId id_;
  std::size_t node_index_;
  bool alive_ = true;
  bool finished_ = false;
  /// Per-job failure-injection stream, keyed (faults.seed, job id):
  /// enabling injection never perturbs any other stochastic draw, and
  /// job k draws the same stream regardless of scheduling order.
  Rng rng_;
};

/// Scheduling policy parameters.
struct SchedulerParams {
  /// Master-side cost of each job submission; job arrays amortise this
  /// ("for both SGE and Condor we used job arrays to lessen the load on
  /// the scheduler").
  double submit_overhead_s = 0.5;
  double array_submit_overhead_s = 0.02;
  bool use_job_arrays = true;
  /// Time from match to job start on the node.
  double dispatch_latency_s = 0.5;
  /// Condor: > 0 enables cycle-based matching every this many seconds;
  /// 0 = SGE-like event-driven dispatch.
  double negotiation_interval_s = 0.0;
  /// Strict FIFO: a queued multi-core job that does not fit blocks the
  /// queue. false = the dispatcher may backfill later jobs that fit.
  bool strict_fifo = false;
  /// Failure injection (per-job deaths, node outages).
  FaultInjection faults;
};

/// SGE-like defaults.
SchedulerParams sge_params();

/// Condor-like defaults (negotiation cycle tuned per §5.2.1: the paper
/// "tweaked the configuration files to diminish this difference").
SchedulerParams condor_params(double negotiation_interval_s = 240.0);

/// The cluster batch system model.
class ClusterScheduler {
 public:
  using JobBody = std::function<void(JobContext&)>;
  using CompletionHook = std::function<void(const JobRecord&)>;

  ClusterScheduler(Simulator& sim, ClusterSpec cluster,
                   SchedulerParams params);

  /// Queue a job; `body` runs on a node when dispatched. `cores` > 1
  /// reserves that many cores on a *single* node for the job's duration
  /// (the paper's §7 "massive ensembles of small (2-3 task) MPI jobs").
  JobId submit(JobBody body, std::size_t cores = 1);

  /// Queue a whole array at once (one submit overhead for the array).
  std::vector<JobId> submit_array(std::vector<JobBody> bodies);

  /// Cancel a queued job, or kill a running one (core freed immediately).
  void cancel(JobId id);

  /// Hook fired at every job completion/failure/cancellation.
  void set_completion_hook(CompletionHook hook);

  const JobRecord& record(JobId id) const;
  const std::vector<JobRecord>& records() const { return records_; }

  /// Shared NFS/file-server resource of this cluster.
  BandwidthResource& nfs() { return *nfs_; }

  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_; }
  std::size_t free_cores() const;

  const ClusterSpec& cluster() const { return cluster_; }
  Simulator& sim() { return sim_; }
  const SchedulerParams& params() const { return params_; }

  /// Attach a telemetry sink (nullable). The scheduler then records
  /// `sched.*` counters (jobs submitted/dispatched/done/failed/cancelled,
  /// cpu/io seconds), histograms (`sched.queue_wait_s`,
  /// `sched.job_utilisation`, `sched.negotiation_wait_s` under Condor
  /// dispatch) and a `sched.queue_depth` gauge + event stream, all
  /// stamped with simulated time.
  void set_telemetry(telemetry::Sink* sink) { telem_ = sink; }
  telemetry::Sink* telemetry() const { return telem_; }

  /// Core-seconds occupied by this scheduler's jobs so far (integral of
  /// held cores over simulated time, up to now). Divide by elapsed time ×
  /// schedulable_cores() for fleet utilisation.
  double busy_core_seconds() const;
  /// Cores not permanently reserved by other users.
  std::size_t schedulable_cores() const { return schedulable_cores_; }

  /// Aggregate utilisation statistics per job kind are derived by the
  /// caller from records(); the scheduler only keeps raw lifecycles.

 private:
  friend class JobContext;

  void try_dispatch();            // SGE path (event driven)
  void negotiation_cycle();       // Condor path
  void dispatch_at(std::size_t queue_pos, std::size_t node_index);
  /// Queue position + node able to host it (respecting FIFO/backfill);
  /// nullopt when nothing fits.
  std::optional<std::pair<std::size_t, std::size_t>> find_dispatchable()
      const;
  std::optional<std::size_t> find_node_for(std::size_t cores) const;
  void release_cores(std::size_t node_index, std::size_t cores);
  void job_done(JobId id, JobStatus status);
  void advance_occupancy();
  void note_queue_depth();
  /// Node-outage process (faults.outage.mtbf_s > 0): a fleet-level Poisson
  /// clock takes random nodes down for faults.outage.duration_s, evicting
  /// their running jobs. Pauses while the scheduler is idle so the
  /// simulator's event queue can drain.
  void maybe_schedule_outage();
  void outage_event();
  void take_node_down(std::size_t node_index);

  Simulator& sim_;
  ClusterSpec cluster_;
  SchedulerParams params_;
  std::unique_ptr<BandwidthResource> nfs_;
  std::vector<std::size_t> busy_cores_;  // per node
  struct Pending {
    JobId id;
    JobBody body;
    std::size_t cores;
  };
  std::deque<Pending> queue_;
  std::vector<JobRecord> records_;
  std::vector<std::shared_ptr<JobContext>> contexts_;  // by id, running only
  std::size_t running_ = 0;
  CompletionHook hook_;
  Rng outage_rng_;
  std::vector<bool> node_down_;
  bool outage_scheduled_ = false;
  bool negotiation_scheduled_ = false;
  SimTime submit_ready_at_ = 0.0;  // master busy until (submit overheads)
  telemetry::Sink* telem_ = nullptr;
  std::size_t schedulable_cores_ = 0;
  std::size_t held_cores_ = 0;           // cores held by our jobs, now
  double busy_core_seconds_ = 0.0;       // ∫ held_cores dt
  SimTime occupancy_since_ = 0.0;
};

}  // namespace essex::mtc
