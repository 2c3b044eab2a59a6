// ESSEX: ESSE workflow drivers over the DES (paper Figs. 3 & 4, §5.2.1).
//
// Two drivers share a calibrated workload shape and a cluster scheduler:
//
//  * run_serial_esse (Fig. 3): stage barriers — the perturb/forecast
//    loop must finish before the diff loop starts, diff before SVD; on a
//    failed convergence test the pool is enlarged and the stages repeat.
//  * run_parallel_esse (Fig. 4): the modelled member work of the one
//    Fig.-4 loop, workflow::EnsembleOrchestrator, which the real runner
//    (service/runner_core) drives too. This driver supplies the job body,
//    a differ that absorbs results in completion order on the head node,
//    timed SVD/convergence checks over the latest safe snapshot, the
//    deadline and the §5 metrics; the orchestrator owns the pool,
//    milestones, cancel-on-convergence and staged growth toward Nmax.
//
// Convergence inside the DES is *modelled* (no real fields exist here): a
// pluggable predicate maps the diffed member count to converged/not, so
// benches can set "converges at 600 members" and study the execution
// behaviour the paper measured.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/member_ledger.hpp"
#include "mtc/cluster.hpp"
#include "mtc/fault.hpp"
#include "mtc/job.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::workflow {

/// Workflow configuration shared by both drivers.
struct EsseWorkflowConfig {
  mtc::EsseJobShape shape;
  mtc::InputStaging staging = mtc::InputStaging::kPrestageLocal;
  std::size_t initial_members = 600;  ///< N
  double pool_headroom = 1.1;         ///< M = headroom × N (parallel only)
  double growth = 2.0;                ///< N → growth·N on failed test
  std::size_t max_members = 1200;     ///< Nmax
  /// Members diffed at which the modelled convergence test succeeds.
  std::size_t converge_at = 600;
  /// Members between successive SVD/convergence checks.
  std::size_t svd_stride = 50;
  CancelPolicy cancel_policy = CancelPolicy::kCancelImmediately;
  /// Recovery policy applied by the parallel driver's fault layer:
  /// retry/backoff on failure or eviction, per-task timeouts, straggler
  /// speculation. Failure *injection* lives in SchedulerParams::faults.
  mtc::FaultPolicy fault;
  /// Forecast deadline Tmax (seconds of simulated time; 0 = none).
  double deadline_s = 0.0;
  /// Index of the master/head node (runs differ + SVD).
  std::size_t master_node = 0;
  /// Optional telemetry sink (nullable, not owned). The driver attaches
  /// it to the scheduler (`sched.*` series) and records the `workflow.*`
  /// metrics the §5 benches report — makespan, pert CPU utilisation,
  /// member counts, SVD runs, NFS bytes, core utilisation — plus
  /// `workflow.svd_run` / `workflow.converged` event streams in
  /// simulated time.
  telemetry::Sink* sink = nullptr;
};

/// Everything the benches report. The inherited tally holds the
/// distinct members issued to the pool and how each one ended (the
/// testkit scenario oracle checks it conserves on every run), plus the
/// fault layer's attempt tallies; the serial driver, with no fault
/// layer, counts its failed and evicted jobs as `attempts_failed`.
struct WorkflowMetrics : MemberTally {
  double makespan_s = 0;            ///< workflow start → all results used
  double converged_at_s = 0;        ///< time the convergence test passed
  std::size_t attempts_cancelled = 0;  ///< incl. timed-out, losing backups
  std::size_t members_diffed = 0;
  std::size_t svd_runs = 0;
  bool converged = false;
  bool deadline_hit = false;
  double pert_cpu_utilization = 0;  ///< mean over completed members
  double wasted_cpu_seconds = 0;    ///< compute burnt by cancelled members
  double nfs_bytes_moved = 0;
  double svd_idle_wait_s = 0;       ///< SVD time spent waiting for data
};

/// Run the Fig. 3 serial workflow to completion in the DES. The
/// scheduler must be freshly constructed (no other jobs).
WorkflowMetrics run_serial_esse(mtc::Simulator& sim,
                                mtc::ClusterScheduler& sched,
                                const EsseWorkflowConfig& config);

/// Run the Fig. 4 parallel (MTC) workflow to completion in the DES.
WorkflowMetrics run_parallel_esse(mtc::Simulator& sim,
                                  mtc::ClusterScheduler& sched,
                                  const EsseWorkflowConfig& config);

/// Fan out `n_jobs` independent acoustic singletons (§5.2.1: "more than
/// 6000 ocean acoustics realizations - each ... approximately 3 minutes")
/// and return (makespan, completed count).
struct FanoutMetrics {
  double makespan_s = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
};
FanoutMetrics run_acoustics_fanout(mtc::Simulator& sim,
                                   mtc::ClusterScheduler& sched,
                                   const mtc::EsseJobShape& shape,
                                   std::size_t n_jobs);

}  // namespace essex::workflow
