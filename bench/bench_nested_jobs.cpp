// Explores §7's future workload: "massive ensembles of small (2-3 task)
// MPI jobs" — how the home-cluster scheduler copes with multi-core
// members, the fragmentation they cause on dual/quad-core nodes, and
// what backfill recovers.
#include <algorithm>
#include <iostream>

#include "common/table.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"

int main() {
  using namespace essex;
  using namespace essex::mtc;

  const double member_cpu_s = 1537.0;  // pert + pemodel
  const std::size_t members = 600;

  auto run_case = [&](std::size_t cores_per_job, bool strict_fifo) {
    Simulator sim;
    SchedulerParams p = sge_params();
    p.strict_fifo = strict_fifo;
    ClusterScheduler sched(sim, make_home_cluster(15), p);
    double last = 0;
    std::size_t done = 0;
    sched.set_completion_hook([&](const JobRecord& r) {
      last = std::max(last, r.finished);
      ++done;
    });
    for (std::size_t m = 0; m < members; ++m) {
      // An n-core member finishes n× faster (ideal small-MPI scaling).
      sched.submit(
          [member_cpu_s, cores_per_job](JobContext& ctx) {
            ctx.compute(member_cpu_s / static_cast<double>(cores_per_job),
                        [&ctx] { ctx.finish(); });
          },
          cores_per_job);
    }
    sim.run();
    return std::pair<double, std::size_t>{last, done};
  };

  Table t("sec 7: 600 members as small MPI jobs on the home cluster");
  t.set_header({"cores/member", "dispatch", "makespan (min)",
                "vs 1-core", "note"});
  const double base = run_case(1, false).first;
  t.add_row({"1", "backfill", Table::num(base / 60.0, 1), "1.000x",
             "today's singletons"});
  for (std::size_t c : {2UL, 3UL, 4UL}) {
    for (bool strict : {false, true}) {
      const auto [mk, done] = run_case(c, strict);
      std::string note;
      if (c == 3) note = "wastes 1 core per dual-core... node pair";
      if (c == 4) note = "only the 285/head nodes fit 4-core jobs";
      t.add_row({std::to_string(c), strict ? "strict-fifo" : "backfill",
                 Table::num(mk / 60.0, 1),
                 Table::num(mk / base, 2) + "x", note});
    }
  }
  t.print(std::cout);
  t.write_csv("results/bench_nested_jobs.csv");

  // Mixed workload: the regime where FIFO vs backfill actually separates
  // — wide jobs block narrow ones behind them under strict FIFO.
  auto run_mixed = [&](bool strict_fifo) {
    Simulator sim;
    SchedulerParams p = sge_params();
    p.strict_fifo = strict_fifo;
    ClusterScheduler sched(sim, make_home_cluster(15), p);
    std::vector<JobId> acoustics_ids;
    for (std::size_t m = 0; m < 300; ++m) {
      sched.submit(
          [member_cpu_s](JobContext& ctx) {
            ctx.compute(member_cpu_s / 3.0, [&ctx] { ctx.finish(); });
          },
          3);
      acoustics_ids.push_back(sched.submit(
          [](JobContext& ctx) {
            ctx.compute(180.0, [&ctx] { ctx.finish(); });  // acoustics
          },
          1));
    }
    sim.run();
    double acoustics_done = 0;
    for (JobId id : acoustics_ids)
      acoustics_done = std::max(acoustics_done, sched.record(id).finished);
    return acoustics_done;
  };
  // The wide members dominate the overall makespan either way; the
  // casualty of strict FIFO is the *narrow* work stuck behind a blocked
  // 3-core head-of-queue.
  Table mixed("mixed 3-core members + 1-core acoustics: FIFO vs backfill");
  mixed.set_header({"dispatch", "acoustics all done (min)"});
  const double bf = run_mixed(false);
  const double ff = run_mixed(true);
  mixed.add_row({"backfill", Table::num(bf / 60.0, 1)});
  mixed.add_row({"strict-fifo", Table::num(ff / 60.0, 1)});
  mixed.print(std::cout);
  mixed.write_csv("results/bench_nested_jobs_mixed.csv");
  std::cout << "\nshape: 2-core members map cleanly onto the dual-socket "
               "nodes; 3-core members fragment them (a dual-core node "
               "cannot host one at all) and 4-core members strand on the "
               "three quad-core replacements — exactly the scheduler "
               "stress the paper wants to study, with backfill the only "
               "mitigation.\n";
  return 0;
}
