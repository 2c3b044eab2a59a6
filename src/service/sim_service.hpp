// ESSEX: SimForecastService — the ForecastService's DES twin.
//
// The soak-scale questions about a forecast server — does admission hold
// the queue bounded over thousands of requests, what is the p95
// submit-to-result latency under mixed priorities and deadlines, do
// member-slot budgets rebalance cleanly as tenants come and go — cannot
// be asked of the real server with real 25-minute PE forecasts. This twin
// runs the SAME request bookkeeping (RequestDesk: admission, queue,
// estimator, tallies, `service.*` telemetry) and the same pool cap and
// grow-or-stop rule (workflow::EnsemblePool) over the DES
// ClusterScheduler in simulated time, with the member *cost* modelled by
// the calibrated EsseJobShape and convergence modelled by converge_at —
// exactly the modelled-convergence idea of the Fig.-4 DES driver.
//
// Elasticity here is the DES rendering of "workers join/leave without
// restart": each running request holds a member-slot budget (how many
// member jobs it may keep in flight on the cluster); the service
// rebalances budgets whenever the tenant set changes, and a request under
// deadline pressure shrinks its own ensemble target through
// EnsembleSizeController::shrink() — graceful degradation instead of a
// blown deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/member_ledger.hpp"
#include "esse/convergence.hpp"
#include "esse/multilevel.hpp"
#include "mtc/job.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "service/admission.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::service {

/// Server knobs of the DES twin (admission shared with the real server).
struct SimServiceConfig {
  AdmissionPolicy admission;
  /// Requests running concurrently; the rest wait in the priority queue.
  std::size_t max_inflight = 4;
  /// Per-member cost model (pert + pemodel CPU seconds at unit speed).
  mtc::EsseJobShape shape;
  /// Telemetry (nullable, not owned): `service.*` series stamped with
  /// simulated seconds — the same names the real server records.
  telemetry::Sink* sink = nullptr;
};

/// One simulated tenant request: ensemble geometry + service terms.
struct SimRequestSpec {
  std::size_t initial_members = 8;
  double growth = 2.0;
  std::size_t max_members = 32;
  std::size_t min_members = 2;
  /// Members completed at which the modelled convergence test passes.
  std::size_t converge_at = 16;
  int priority = 0;
  /// Absolute deadline in simulated seconds; +inf = none.
  double deadline_s = std::numeric_limits<double>::infinity();
  double expected_cost_s = 0.0;  ///< admission cost hint (0 = estimator)
  std::string label;
  // -- Multilevel member mix (DES rendering of esse::MultilevelParams) --
  /// 1 = single-fidelity (fields below ignored). With levels > 1 the
  /// member plan is fixed: members_per_level jobs per level, fine level
  /// first, dispatched level-major — no ensemble growth or deadline
  /// shrink (the plan IS the budget, mirroring the real runner). A
  /// level-l member costs MultilevelParams::cost_ratio(l) = 2^(−3l) of a
  /// fine one: factor-2 horizontal coarsening under an advective CFL
  /// (¼ points × ½ steps per level).
  std::size_t levels = 1;
  /// Planned members per level, fine (level 0) first; size == levels.
  /// Every member job, fine or coarse, reserves one core.
  std::vector<std::size_t> members_per_level;
};

/// Terminal record of one request (admitted or rejected).
struct SimRequestOutcome {
  std::uint64_t id = 0;
  RequestState state = RequestState::kRejected;
  Rejection rejection;  ///< meaningful when state == kRejected
  int priority = 0;
  std::string label;
  double submitted_s = 0.0;
  double started_s = 0.0;
  double finished_s = 0.0;
  /// How each dispatched member job ended; conserves at finalisation (the
  /// zero-leak invariant). Failed and evicted jobs are lost members.
  MemberLedger ledger;
  /// Per-level completion counts (fine first); empty when levels == 1.
  std::vector<std::size_t> members_completed_per_level;
  bool converged = false;
  /// Finished below the original convergence goal (deadline shrink).
  bool degraded = false;
  bool deadline_met = true;

  double latency_s() const { return finished_s - submitted_s; }
};

/// The DES forecast server. Drive it from simulator events: schedule
/// submit() calls at arrival times, then run the simulator; every
/// admitted request executes as member jobs on the ClusterScheduler.
class SimForecastService {
 public:
  SimForecastService(mtc::Simulator& sim, mtc::ClusterScheduler& sched,
                     SimServiceConfig config);

  /// Admit or reject at the current simulated time. Rejections are
  /// recorded as terminal outcomes immediately. Returns the request id.
  std::uint64_t submit(const SimRequestSpec& spec);

  /// No request queued or running.
  bool idle() const { return desk_.idle(); }

  /// Terminal outcomes in finalisation order (rejections included).
  const std::vector<SimRequestOutcome>& outcomes() const {
    return outcomes_;
  }
  ServiceStats stats() const { return desk_.stats(); }
  const RuntimeEstimator& estimator() const { return desk_.estimator(); }

  /// Finalised outcomes whose member ledger does not conserve: 0 iff no
  /// member job leaked.
  long long leaked_members() const;

 private:
  struct Active {
    SimRequestSpec spec;
    std::uint64_t id = 0;
    esse::MultilevelParams plan;  ///< level layout and per-level costs
    workflow::EnsemblePool pool;  ///< cap and grow-or-stop rule
    std::size_t goal = 0;   ///< members needed to finish (may shrink)
    std::size_t slots = 0;  ///< member-slot budget (elasticity)
    MemberLedger ledger;
    std::size_t outstanding = 0;  ///< member jobs on the cluster now
    std::vector<std::size_t> completed_per_level;  ///< sized when levels > 1
    std::vector<mtc::JobId> live_jobs;  ///< this request's cluster jobs
    bool finishing = false;  ///< goal met/abandoned; draining cancels
    bool degraded = false;

    Active(const SimRequestSpec& s,
           const esse::EnsembleSizeController::Params& ensemble,
           esse::MultilevelParams p, double headroom)
        : spec(s),
          plan(std::move(p)),
          pool(ensemble, headroom,
               plan.enabled() ? plan.total_members() : 0) {}
  };

  void pump();  ///< start queued requests while inflight slots remain
  void start(std::uint64_t id);
  void fill(Active& a);
  void submit_member(Active& a);
  void on_member_done(std::uint64_t request_id, std::size_t level,
                      mtc::JobStatus status);
  void maybe_shrink_for_deadline(Active& a);
  void begin_finish(Active& a);
  void finalize(std::uint64_t id);
  void rebalance_slots();

  mtc::Simulator& sim_;
  mtc::ClusterScheduler& sched_;
  SimServiceConfig config_;

  RequestDesk desk_;
  std::map<std::uint64_t, SimRequestSpec> queued_specs_;
  std::map<std::uint64_t, Active> active_;
  std::map<mtc::JobId, std::uint64_t> job_owner_;
  /// Hierarchy level of each live member job: resolution (and the
  /// exactly-once accounting behind it) is per (level, member).
  std::map<mtc::JobId, std::size_t> job_level_;
  std::vector<SimRequestOutcome> outcomes_;
};

}  // namespace essex::service
