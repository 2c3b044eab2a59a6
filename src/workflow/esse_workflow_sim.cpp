#include "workflow/esse_workflow_sim.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "esse/convergence.hpp"
#include "mtc/execution_backend.hpp"

namespace essex::workflow {

namespace {

/// kSpareNearFinish spares a running member once it has used this
/// fraction of its expected runtime.
constexpr double kSpareFraction = 0.9;

using mtc::ClusterScheduler;
using mtc::JobContext;
using mtc::JobId;
using mtc::JobRecord;
using mtc::JobStatus;
using mtc::Simulator;
using mtc::TaskOutcome;

/// Per-member accounting collected by the drivers.
struct MemberStats {
  double pert_cpu = 0;   ///< busy part of the pert phase (wall s)
  double pert_io = 0;    ///< blocked part of the pert phase (wall s)
  bool completed = false;
};

/// Shared context the job bodies write into. Owned by the drivers.
struct BodyEnv {
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::vector<MemberStats> stats;
  std::function<void(std::size_t)> on_output_home;  // may be empty
};

/// The singleton job body (paper Fig. 3/4 "Pert" + "Forecast"):
/// stage input → pert (cpu + local-fs busy part) → pemodel → copy-back.
ClusterScheduler::JobBody make_member_body(std::shared_ptr<BodyEnv> env,
                                           std::size_t member) {
  return [env, member](JobContext& ctx) {
    // The pert phase starts when the job starts: input staging is part
    // of it (that is exactly what the paper's 20 % utilisation measures).
    const double t_pert_start = env->sched.sim().now();
    auto after_input = [env, member, &ctx, t_pert_start]() {
      const mtc::EsseJobShape& sh = env->cfg.shape;
      ctx.compute(sh.pert_cpu_s, [env, member, &ctx, t_pert_start] {
        const mtc::EsseJobShape& sh2 = env->cfg.shape;
        ctx.busy_wait(sh2.pert_fs_s, [env, member, &ctx, t_pert_start] {
          const mtc::EsseJobShape& sh3 = env->cfg.shape;
          // pert done: split its wall time into busy vs blocked for the
          // utilisation metric (§5.2.1's ≈20 % → ≈100 %).
          MemberStats& ms = env->stats[member];
          ms.pert_cpu = sh3.pert_cpu_s / ctx.cpu_speed() + sh3.pert_fs_s;
          ms.pert_io =
              (env->sched.sim().now() - t_pert_start) - ms.pert_cpu;
          ctx.compute(sh3.pemodel_cpu_s, [env, member, &ctx] {
            ctx.transfer(env->sched.nfs(), env->cfg.shape.output_bytes,
                         [env, member, &ctx] {
                           env->stats[member].completed = true;
                           ctx.finish();
                           if (env->on_output_home)
                             env->on_output_home(member);
                         });
          });
        });
      });
    };

    switch (env->cfg.staging) {
      case mtc::InputStaging::kNfsDirect:
        // Shared input files read over NFS: contended with every other
        // concurrently-starting singleton.
        ctx.transfer(env->sched.nfs(), env->cfg.shape.input_bytes,
                     after_input);
        break;
      case mtc::InputStaging::kOpenDapRemote: {
        // §5.3.2: hundreds of per-variable requests against one central
        // OpenDAP server — request latency on top of the shared read.
        const double latency =
            static_cast<double>(env->cfg.shape.opendap_requests) *
            env->cfg.shape.opendap_request_latency_s;
        ctx.wait(latency, [env, &ctx, after_input] {
          ctx.transfer(env->sched.nfs(), env->cfg.shape.input_bytes,
                       after_input);
        });
        break;
      }
      case mtc::InputStaging::kPrestageLocal:
        // Prestaged: the inputs already sit on the local disk, their
        // read cost is inside pert's local-fs busy part.
        after_input();
        break;
    }
  };
}

/// The ensemble-size schedule N → growth·N → … → Nmax both drivers
/// follow (the DES drivers have no shrink floor of their own).
esse::EnsembleSizeController::Params sizer_params(
    const EsseWorkflowConfig& cfg) {
  return {cfg.initial_members, cfg.growth, cfg.max_members};
}

double head_speed(const ClusterScheduler& sched,
                  const EsseWorkflowConfig& cfg) {
  ESSEX_REQUIRE(cfg.master_node < sched.cluster().nodes.size(),
                "master node index out of range");
  return sched.cluster().nodes[cfg.master_node].cpu_speed;
}

/// Mean busy fraction of the pert phase over the members that ran it.
double pert_utilization(const std::vector<MemberStats>& stats) {
  double util_sum = 0;
  std::size_t util_n = 0;
  for (const auto& s : stats) {
    if (s.pert_cpu > 0) {
      util_sum += s.pert_cpu / std::max(s.pert_cpu + s.pert_io, 1e-9);
      ++util_n;
    }
  }
  return util_n ? util_sum / static_cast<double>(util_n) : 0;
}

void fill_serial_metrics(const ClusterScheduler& sched,
                         const std::vector<JobId>& member_jobs,
                         const std::vector<MemberStats>& stats,
                         WorkflowMetrics& m) {
  // One job per member and no retry layer: the job's status is the
  // member's final outcome, and a failed or evicted job is a lost member.
  m.members_submitted = member_jobs.size();
  for (JobId id : member_jobs) {
    const JobRecord& r = sched.record(id);
    const TaskOutcome outcome = r.status == JobStatus::kQueued ||
                                        r.status == JobStatus::kRunning
                                    ? TaskOutcome::kCancelled
                                    : mtc::to_outcome(r.status);
    mtc::record_final(m, outcome);
    if (outcome == TaskOutcome::kCancelled) {
      ++m.attempts_cancelled;
      // Wasted work = core occupancy of a killed member (its partial
      // segments burnt real node time even though cpu accounting only
      // credits completed segments).
      if (r.started > 0) m.wasted_cpu_seconds += r.finished - r.started;
    } else if (outcome != TaskOutcome::kDone) {
      ++m.attempts_failed;
    }
  }
  m.pert_cpu_utilization = pert_utilization(stats);
}

/// Publish the workflow's §5 figures into the telemetry session so the
/// benches/tests read them out of recorded metrics, not driver fields.
void publish_workflow_metrics(telemetry::Sink* sink,
                              const ClusterScheduler& sched,
                              const WorkflowMetrics& m) {
  if (!sink) return;
  sink->gauge_set("workflow.makespan_s", m.makespan_s);
  sink->gauge_set("workflow.converged", m.converged ? 1.0 : 0.0);
  sink->gauge_set("workflow.converged_at_s", m.converged_at_s);
  sink->gauge_set("workflow.deadline_hit", m.deadline_hit ? 1.0 : 0.0);
  sink->gauge_set("workflow.pert_cpu_utilization", m.pert_cpu_utilization);
  sink->gauge_set("workflow.wasted_cpu_seconds", m.wasted_cpu_seconds);
  sink->gauge_set("workflow.svd_idle_wait_s", m.svd_idle_wait_s);
  sink->count("workflow.members_completed",
              static_cast<double>(m.members_done));
  sink->count("workflow.members_cancelled",
              static_cast<double>(m.attempts_cancelled));
  sink->count("workflow.members_failed",
              static_cast<double>(m.attempts_failed));
  sink->count("workflow.members_diffed",
              static_cast<double>(m.members_diffed));
  sink->count("workflow.svd_runs", static_cast<double>(m.svd_runs));
  sink->count("workflow.nfs_bytes_moved", m.nfs_bytes_moved);
  sink->count("workflow.members_retried", static_cast<double>(m.retries));
  sink->count("workflow.members_evicted",
              static_cast<double>(m.evictions));
  sink->count("workflow.members_lost",
              static_cast<double>(m.members_lost));
  sink->gauge_set("workflow.degraded", m.degraded ? 1.0 : 0.0);
  const double denom =
      m.makespan_s * static_cast<double>(sched.schedulable_cores());
  sink->gauge_set("workflow.core_utilisation",
                  denom > 0 ? sched.busy_core_seconds() / denom : 0.0);
}

// ---- serial driver (Fig. 3) --------------------------------------------

struct SerialDriver : std::enable_shared_from_this<SerialDriver> {
  Simulator& sim;
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::shared_ptr<BodyEnv> env;
  WorkflowMetrics metrics;
  std::vector<JobId> member_jobs;
  esse::EnsembleSizeController sizer;
  std::size_t submitted = 0;
  std::size_t landed_this_round = 0;
  std::size_t expected_this_round = 0;
  std::size_t diffed_total = 0;
  bool done = false;

  SerialDriver(Simulator& s, ClusterScheduler& c,
               const EsseWorkflowConfig& config)
      : sim(s), sched(c), cfg(config), sizer(sizer_params(config)) {
    env = std::make_shared<BodyEnv>(BodyEnv{sched, cfg, {}, nullptr});
    env->stats.resize(cfg.max_members + 1);
  }

  void start() {
    if (cfg.sink) sched.set_telemetry(cfg.sink);
    launch_round();
  }

  void launch_round() {
    // Fig. 3 bottleneck 1: the perturb/forecast loop must fully finish
    // (including failures) before the diff loop may start.
    const std::size_t round_target = sizer.target();
    expected_this_round = round_target - submitted;
    landed_this_round = 0;
    auto self = shared_from_this();
    sched.set_completion_hook([self](const JobRecord&) {
      ++self->landed_this_round;
      if (self->landed_this_round == self->expected_this_round)
        self->diff_stage();
    });
    std::vector<ClusterScheduler::JobBody> bodies;
    for (std::size_t m = submitted; m < round_target; ++m) {
      bodies.push_back(make_member_body(env, m));
    }
    submitted = round_target;
    auto ids = sched.submit_array(std::move(bodies));
    member_jobs.insert(member_jobs.end(), ids.begin(), ids.end());
  }

  void diff_stage() {
    // Diff every completed-but-undiffed member, strictly serially on the
    // master (Fig. 3 bottleneck 2: "the same file is written to").
    std::size_t completed = 0;
    for (const auto& s : env->stats)
      if (s.completed) ++completed;
    const std::size_t new_members = completed - diffed_total;
    const double diff_time = static_cast<double>(new_members) *
                             cfg.shape.diff_cpu_s / head_speed(sched, cfg);
    diffed_total = completed;
    auto self = shared_from_this();
    sim.after(diff_time, [self] { self->svd_stage(); });
  }

  void svd_stage() {
    // Fig. 3 bottleneck 3: the SVD waits for the diff loop.
    ++metrics.svd_runs;
    if (cfg.sink)
      cfg.sink->event("workflow.svd_run", sim.now(),
                      static_cast<double>(diffed_total));
    auto self = shared_from_this();
    sim.after(cfg.shape.svd_seconds(diffed_total, head_speed(sched, cfg)),
              [self] { self->convergence_stage(); });
  }

  void convergence_stage() {
    metrics.members_diffed = diffed_total;
    if (diffed_total >= cfg.converge_at) {
      metrics.converged = true;
      metrics.converged_at_s = sim.now();
      if (cfg.sink)
        cfg.sink->event("workflow.converged", sim.now(),
                        static_cast<double>(diffed_total));
      finish();
      return;
    }
    if (sizer.at_max()) {
      finish();  // Nmax reached without convergence
      return;
    }
    // Loop back: N → N₂ and run members N+1 … N₂ (Fig. 3).
    sizer.grow();
    launch_round();
  }

  void finish() {
    if (done) return;
    done = true;
    metrics.makespan_s = sim.now();
    sched.set_completion_hook(nullptr);
    fill_serial_metrics(sched, member_jobs, env->stats, metrics);
    metrics.nfs_bytes_moved = sched.nfs().bytes_moved();
    publish_workflow_metrics(cfg.sink, sched, metrics);
  }
};

// ---- parallel driver (Fig. 4) ------------------------------------------

/// The modelled member work of the Fig.-4 loop: members are simulated
/// jobs, the differ a head-node queue absorbing outputs in completion
/// order (§4.1's fix for bottleneck 2), and a check an svd_seconds timer
/// over everything diffed, converged once that reaches converge_at.
struct ParallelDriver final : MemberWork,
                              std::enable_shared_from_this<ParallelDriver> {
  Simulator& sim;
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::shared_ptr<BodyEnv> env;
  WorkflowMetrics metrics;

  std::size_t diffed = 0;
  std::size_t diff_pending = 0;  // outputs waiting for the differ
  bool differ_busy = false;
  double svd_free_since = -1.0;  // SVD idle since (< 0: no diff yet)

  std::unique_ptr<mtc::SimExecutionBackend> backend;
  std::unique_ptr<EnsembleOrchestrator> orch;  // last: torn down first

  ParallelDriver(Simulator& s, ClusterScheduler& c,
                 const EsseWorkflowConfig& config)
      : sim(s), sched(c), cfg(config) {
    env = std::make_shared<BodyEnv>(BodyEnv{sched, cfg, {}, nullptr});
    env->stats.resize(cfg.max_members + 1);
  }

  void start() {
    if (cfg.sink) sched.set_telemetry(cfg.sink);
    // Expected single-attempt runtime at unit speed — the calibrated
    // EsseJobShape timings — anchors timeouts and straggler scans.
    const double expected_runtime =
        cfg.shape.pert_cpu_s + cfg.shape.pert_fs_s + cfg.shape.pemodel_cpu_s;
    backend = std::make_unique<mtc::SimExecutionBackend>(
        sched,
        [body_env = env](std::size_t member, std::size_t /*attempt*/) {
          return make_member_body(body_env, member);
        },
        expected_runtime);
    orch = std::make_unique<EnsembleOrchestrator>(
        *backend, *this,
        EnsembleOrchestrator::Params{
            EnsemblePool(sizer_params(cfg), cfg.pool_headroom),
            cfg.svd_stride, cfg.cancel_policy, cfg.fault, cfg.sink});
    auto self = shared_from_this();
    env->on_output_home = [self](std::size_t) { self->on_member_output(); };
    orch->start();
    if (cfg.deadline_s > 0) {
      sim.at(cfg.deadline_s, [self] {
        if (!self->orch->finished()) {
          self->metrics.deadline_hit = true;
          self->orch->finish();
        }
      });
    }
  }

  void on_member_output() {
    if (orch->finished()) return;
    ++diff_pending;
    pump_differ();
  }

  void pump_differ() {
    if (differ_busy || diff_pending == 0 || orch->finished()) return;
    differ_busy = true;
    --diff_pending;
    auto self = shared_from_this();
    sim.after(cfg.shape.diff_cpu_s / head_speed(sched, cfg), [self] {
      self->differ_busy = false;
      ++self->diffed;
      if (self->svd_free_since < 0) self->svd_free_since = self->sim.now();
      self->orch->pump();
      self->pump_differ();
    });
  }

  std::size_t milestone_count() const override { return diffed; }
  std::size_t absorbed() const override { return diffed; }

  std::optional<bool> check(std::size_t /*c*/) override {
    // Time the SVD sat waiting for data, up to convergence.
    if (!metrics.converged) {
      metrics.svd_idle_wait_s += sim.now() - svd_free_since;
    }
    const std::size_t n = diffed;  // the "safe file" snapshot
    ++metrics.svd_runs;
    if (cfg.sink)
      cfg.sink->event("workflow.svd_run", sim.now(),
                      static_cast<double>(n));
    auto self = shared_from_this();
    sim.after(cfg.shape.svd_seconds(n, head_speed(sched, cfg)), [self, n] {
      if (self->orch->finished()) return;
      self->svd_free_since = self->sim.now();
      const bool converged = n >= self->cfg.converge_at;
      if (converged && !self->metrics.converged) {
        self->metrics.converged = true;
        self->metrics.converged_at_s = self->sim.now();
        if (self->cfg.sink)
          self->cfg.sink->event("workflow.converged", self->sim.now(),
                                static_cast<double>(n));
      }
      self->orch->check_done(converged);
    });
    return std::nullopt;
  }

  void wake() override { orch->pump(); }

  void pool_changed(const EnsemblePool& pool, bool grown) override {
    if (grown && cfg.sink)
      cfg.sink->event("workflow.pool_grown", sim.now(),
                      static_cast<double>(pool.target()));
  }

  bool near_finish(const mtc::TaskReport& r) const override {
    const double expected =
        (cfg.shape.pert_cpu_s + cfg.shape.pemodel_cpu_s) / r.node_speed +
        cfg.shape.pert_fs_s;
    return sim.now() - r.started >= kSpareFraction * expected;
  }

  void finished() override {
    // Break the shared_ptr cycle through the job bodies so the driver is
    // reclaimed once run_parallel_esse returns.
    env->on_output_home = nullptr;
    metrics.makespan_s = sim.now();
    metrics.members_diffed = diffed;
    static_cast<MemberTally&>(metrics) = orch->tally();
    // Cancelled (incl. timed-out and losing speculative) and evicted
    // attempts burnt core time; every job here is a member attempt.
    for (const JobRecord& r : sched.records()) {
      if (r.status == JobStatus::kDone || r.status == JobStatus::kFailed)
        continue;
      if (r.status != JobStatus::kEvicted) ++metrics.attempts_cancelled;
      if (r.started > 0) metrics.wasted_cpu_seconds += r.finished - r.started;
    }
    metrics.pert_cpu_utilization = pert_utilization(env->stats);
    metrics.nfs_bytes_moved = sched.nfs().bytes_moved();
    publish_workflow_metrics(cfg.sink, sched, metrics);
    if (cfg.sink) {
      cfg.sink->gauge_set(
          "fault.degradation",
          static_cast<double>(metrics.members_lost) /
              static_cast<double>(orch->pool().target()));
    }
  }
};

}  // namespace

WorkflowMetrics run_serial_esse(mtc::Simulator& sim,
                                mtc::ClusterScheduler& sched,
                                const EsseWorkflowConfig& config) {
  auto driver = std::make_shared<SerialDriver>(sim, sched, config);
  driver->start();
  sim.run();
  driver->finish();  // no-op when already finished
  return driver->metrics;
}

WorkflowMetrics run_parallel_esse(mtc::Simulator& sim,
                                  mtc::ClusterScheduler& sched,
                                  const EsseWorkflowConfig& config) {
  auto driver = std::make_shared<ParallelDriver>(sim, sched, config);
  driver->start();
  sim.run();
  ESSEX_ASSERT(driver->orch->finished(),
               "the simulation ran dry before the ensemble concluded");
  return driver->metrics;
}

FanoutMetrics run_acoustics_fanout(mtc::Simulator& sim,
                                   mtc::ClusterScheduler& sched,
                                   const mtc::EsseJobShape& shape,
                                   std::size_t n_jobs) {
  ESSEX_REQUIRE(n_jobs >= 1, "need at least one acoustics job");
  FanoutMetrics metrics;
  std::size_t landed = 0;
  sched.set_completion_hook([&](const mtc::JobRecord& rec) {
    ++landed;
    if (rec.status == JobStatus::kDone) ++metrics.completed;
    if (rec.status == JobStatus::kFailed) ++metrics.failed;
    if (landed == n_jobs) metrics.makespan_s = sim.now();
  });
  // §5.2.1: "in this case no job arrays were used" — plain singletons.
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sched.submit([&shape, &sched](JobContext& ctx) {
      ctx.compute(shape.acoustics_cpu_s, [&ctx, &shape, &sched] {
        ctx.transfer(sched.nfs(), shape.acoustics_output_bytes,
                     [&ctx] { ctx.finish(); });
      });
    });
  }
  sim.run();
  sched.set_completion_hook(nullptr);
  return metrics;
}

}  // namespace essex::workflow
