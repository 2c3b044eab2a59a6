// Fault recovery on the paper-scale run (§4 point 3, §5.2): the Fig. 4
// parallel ESSE workflow under node outages and per-job failure
// injection, recovered by the unified fault layer (retry/backoff,
// straggler re-execution, graceful degradation).
//
// Acceptance series: a 600-member run on the home cluster where node
// outages evict well over 5 % of the ensemble must complete with zero
// lost members at < 2x the failure-free makespan. Series land in
// results/ (CSV + telemetry JSON).
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/esse_workflow_sim.hpp"

int main() {
  using namespace essex;
  using namespace essex::workflow;

  auto base_cfg = [] {
    EsseWorkflowConfig cfg;
    cfg.shape = mtc::EsseJobShape{};  // calibrated §5.2 timings
    cfg.staging = mtc::InputStaging::kPrestageLocal;
    cfg.initial_members = 600;
    cfg.converge_at = 600;
    cfg.max_members = 1200;
    cfg.svd_stride = 50;
    cfg.pool_headroom = 1.1;
    cfg.master_node = 117;
    return cfg;
  };
  auto run_cfg = [](const EsseWorkflowConfig& cfg,
                    mtc::SchedulerParams sparams) {
    mtc::Simulator sim;
    mtc::ClusterScheduler sched(sim, mtc::make_home_cluster(15), sparams);
    return run_parallel_esse(sim, sched, cfg);
  };

  // Failure-free reference makespan.
  const WorkflowMetrics base = run_cfg(base_cfg(), mtc::sge_params());

  Table t("fault recovery: 600-member parallel ESSE, home cluster");
  t.set_header({"scenario", "converged", "makespan (min)", "overhead x",
                "failed", "evicted", "retried", "speculative", "lost",
                "degraded"});
  auto add_row = [&](const std::string& name, const WorkflowMetrics& m) {
    t.add_row({name, m.converged ? "yes" : "no",
               Table::num(m.makespan_s / 60.0, 1),
               Table::num(m.makespan_s / base.makespan_s, 2),
               std::to_string(m.attempts_failed),
               std::to_string(m.evictions),
               std::to_string(m.retries),
               std::to_string(m.speculative_launched),
               std::to_string(m.members_lost),
               m.degraded ? "yes" : "no"});
  };
  add_row("failure-free", base);

  // --- node outages (glide-in lease loss / EC2 instance loss) -----------------
  // The acceptance scenario: a fleet-level Poisson outage clock frequent
  // enough to evict > 5 % of the 600 members mid-run.
  telemetry::Sink outage_sink("bench_fault_recovery.outages");
  WorkflowMetrics outage;
  {
    EsseWorkflowConfig cfg = base_cfg();
    cfg.sink = &outage_sink;
    mtc::SchedulerParams sp = mtc::sge_params();
    sp.faults.outage.mtbf_s = 240.0;  // one node down every ~4 min
    sp.faults.outage.duration_s = 600.0;
    sp.faults.seed = 42;
    outage = run_cfg(cfg, sp);
    add_row("node outages (mtbf 4min)", outage);
  }

  // --- per-job failure injection sweep ----------------------------------------
  for (double p : {0.05, 0.10, 0.20}) {
    EsseWorkflowConfig cfg = base_cfg();
    mtc::SchedulerParams sp = mtc::sge_params();
    sp.faults.segment.probability = p;
    add_row("job failures p=" + Table::num(p, 2), run_cfg(cfg, sp));
  }

  // --- combined: outages + failures + heterogeneity (stragglers) --------------
  {
    EsseWorkflowConfig cfg = base_cfg();
    cfg.fault.straggler_min_samples = 32;
    mtc::SchedulerParams sp = mtc::sge_params();
    sp.faults.segment.probability = 0.05;
    sp.faults.outage.mtbf_s = 300.0;
    sp.faults.seed = 7;
    mtc::Simulator sim;
    mtc::ClusterSpec spec = mtc::make_home_cluster(15);
    // Table-1 heterogeneity: a handful of hosts at 1/4 speed.
    for (std::size_t i = 0; i < 4; ++i) spec.nodes[i].cpu_speed = 0.25;
    mtc::ClusterScheduler sched(sim, spec, sp);
    add_row("outages+failures+slow hosts", run_parallel_esse(sim, sched, cfg));
  }

  t.print(std::cout);
  t.write_csv("results/bench_fault_recovery.csv");
  telemetry::write_sessions_json(
      "results/bench_fault_recovery.telemetry.json", {&outage_sink});

  // Acceptance criteria for the outage scenario.
  const double overhead = outage.makespan_s / base.makespan_s;
  const bool enough_evictions =
      outage.evictions * 20 >= 600;  // >= 5 % of the ensemble
  const bool ok = outage.converged && enough_evictions &&
                  outage.members_lost == 0 && overhead < 2.0;
  std::cout << "\nacceptance: evicted=" << outage.evictions
            << " (need >= 30), lost=" << outage.members_lost
            << ", overhead=" << Table::num(overhead, 2) << "x (need < 2)"
            << " -> " << (ok ? "PASS" : "FAIL") << '\n'
            << "series in results/bench_fault_recovery.csv, telemetry in "
               "results/bench_fault_recovery.telemetry.json\n";
  return ok ? 0 : 1;
}
