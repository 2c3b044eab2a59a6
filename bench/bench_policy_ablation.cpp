// Ablation of the §4/§4.1 design choices the paper argues for:
//   (1) failure tolerance — "failures ... are not catastrophic";
//   (2) cancel-on-convergence policy — cancel vs use-all vs spare;
//   (3) pool headroom — "make sure that there is no point ... where the
//       pipeline of results drains and the SVD calculation has to wait".
#include <iostream>

#include "common/table.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/esse_workflow_sim.hpp"

int main() {
  using namespace essex;
  using namespace essex::workflow;

  auto base_cfg = [] {
    EsseWorkflowConfig cfg;
    cfg.shape = mtc::EsseJobShape{};
    cfg.staging = mtc::InputStaging::kPrestageLocal;
    cfg.initial_members = 600;
    cfg.converge_at = 600;
    cfg.max_members = 1200;
    cfg.svd_stride = 50;
    cfg.master_node = 117;
    return cfg;
  };
  auto run_cfg = [](const EsseWorkflowConfig& cfg,
                    mtc::SchedulerParams sparams) {
    mtc::Simulator sim;
    mtc::ClusterScheduler sched(sim, mtc::make_home_cluster(15), sparams);
    return run_parallel_esse(sim, sched, cfg);
  };

  // --- (1) failure tolerance ------------------------------------------------
  Table f("ablation 1: failure tolerance (sec 4, point 3)");
  f.set_header({"failure prob", "converged", "makespan (min)", "failed",
                "diffed"});
  for (double p : {0.0, 0.05, 0.10, 0.20}) {
    EsseWorkflowConfig cfg = base_cfg();
    cfg.pool_headroom = 1.3;  // headroom absorbs the failures
    mtc::SchedulerParams sp = mtc::sge_params();
    sp.faults.segment.probability = p;
    const WorkflowMetrics m = run_cfg(cfg, sp);
    f.add_row({Table::num(p, 2), m.converged ? "yes" : "no",
               Table::num(m.makespan_s / 60.0, 1),
               std::to_string(m.attempts_failed),
               std::to_string(m.members_diffed)});
  }
  f.print(std::cout);
  f.write_csv("results/bench_policy_failures.csv");

  // --- (2) cancellation policies ---------------------------------------------
  Table c("\nablation 2: cancel-on-convergence policy (sec 4.1)");
  c.set_header({"policy", "makespan (min)", "diffed", "cancelled",
                "wasted cpu (core-h)"});
  struct P {
    CancelPolicy policy;
    const char* name;
  };
  for (const P p : {P{CancelPolicy::kCancelImmediately, "cancel-now"},
                    P{CancelPolicy::kUseAllFinished, "use-all-finished"},
                    P{CancelPolicy::kSpareNearFinish, "spare-near-finish"}}) {
    EsseWorkflowConfig cfg = base_cfg();
    cfg.pool_headroom = 1.5;  // enough in-flight work to matter
    cfg.cancel_policy = p.policy;
    const WorkflowMetrics m = run_cfg(cfg, mtc::sge_params());
    c.add_row({p.name, Table::num(m.makespan_s / 60.0, 1),
               std::to_string(m.members_diffed),
               std::to_string(m.attempts_cancelled),
               Table::num(m.wasted_cpu_seconds / 3600.0, 1)});
  }
  c.print(std::cout);
  c.write_csv("results/bench_policy_cancel.csv");

  // --- (3) pool headroom -------------------------------------------------------
  Table h("\nablation 3: pool headroom M/N (sec 4.1 last para)");
  h.set_header({"headroom", "makespan (min)", "svd idle wait (min)",
                "wasted cpu (core-h)"});
  for (double hr : {1.0, 1.1, 1.25, 1.5, 2.0}) {
    EsseWorkflowConfig cfg = base_cfg();
    cfg.converge_at = 900;  // forces growth: headroom earns its keep
    cfg.pool_headroom = hr;
    const WorkflowMetrics m = run_cfg(cfg, mtc::sge_params());
    h.add_row({Table::num(hr, 2), Table::num(m.makespan_s / 60.0, 1),
               Table::num(m.svd_idle_wait_s / 60.0, 1),
               Table::num(m.wasted_cpu_seconds / 3600.0, 1)});
  }
  h.print(std::cout);
  h.write_csv("results/bench_policy_headroom.csv");
  return 0;
}
