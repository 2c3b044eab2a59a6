// The one Fig.-4 loop, driven on a tiny deterministic DES: a scripted
// MemberWork over a SimExecutionBackend on a 2-node ClusterScheduler.
// Covers the milestone schedule, both growth triggers, the fixed
// multilevel plan, cancel-on-convergence and the zero-stride refusal.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mtc/cluster.hpp"
#include "mtc/execution_backend.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::workflow {
namespace {

/// 2 nodes × 2 cores at unit speed.
mtc::ClusterSpec two_nodes() {
  mtc::ClusterSpec spec;
  spec.name = "pair";
  spec.nfs_capacity_bps = 1e9;
  for (int i = 0; i < 2; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = 2;
    n.cpu_speed = 1.0;
    spec.nodes.push_back(n);
  }
  return spec;
}

/// A member computes for one simulated second and is absorbed as it
/// lands (or held back until release()). A check converges once its
/// milestone reaches `converge_at`, at once or after a 0.5 s timer.
struct ScriptedWork final : MemberWork {
  struct PoolEvent {
    std::size_t cap;
    bool grown;
    std::size_t resolved_before;  ///< members resolved when it moved
  };

  mtc::Simulator sim;
  mtc::ClusterScheduler sched{sim, two_nodes(), mtc::sge_params()};
  mtc::SimExecutionBackend backend{
      sched,
      [this](std::size_t member, std::size_t) {
        return [this, member](mtc::JobContext& ctx) {
          ctx.compute(1.0, [this, member, &ctx] {
            land(member);
            ctx.finish();
          });
        };
      },
      1.0};
  std::unique_ptr<EnsembleOrchestrator> orch;

  std::size_t converge_at = std::numeric_limits<std::size_t>::max();
  bool async_checks = false;
  bool hold = false;  ///< buffer landed members until release()
  bool spare_all = false;

  std::size_t absorbed_n = 0;
  std::size_t held = 0;
  std::vector<std::size_t> checks;  ///< milestones, in check order
  bool check_running = false;
  bool overlapping_checks = false;
  std::vector<PoolEvent> pool_events;
  std::size_t finished_calls = 0;

  void run(EnsembleOrchestrator::Params params) {
    orch = std::make_unique<EnsembleOrchestrator>(backend, *this,
                                                  std::move(params));
    orch->start();
    sim.run();
  }

  void land(std::size_t) {
    if (hold) {
      ++held;
      return;
    }
    ++absorbed_n;
    orch->pump();
  }

  void release() {
    absorbed_n += held;
    held = 0;
    orch->pump();
  }

  std::size_t milestone_count() const override { return absorbed_n; }
  std::size_t absorbed() const override { return absorbed_n; }

  std::optional<bool> check(std::size_t c) override {
    if (check_running) overlapping_checks = true;
    checks.push_back(c);
    const bool converged = c >= converge_at;
    if (!async_checks) return converged;
    check_running = true;
    sim.after(0.5, [this, converged] {
      check_running = false;
      orch->check_done(converged);
    });
    return std::nullopt;
  }

  void wake() override { orch->pump(); }

  void pool_changed(const EnsemblePool& pool, bool grown) override {
    const std::size_t resolved =
        orch ? orch->tally().members_done + orch->tally().members_lost : 0;
    pool_events.push_back({pool.cap(), grown, resolved});
  }

  bool near_finish(const mtc::TaskReport&) const override {
    return spare_all;
  }

  void finished() override { ++finished_calls; }
};

EnsembleOrchestrator::Params params(std::size_t initial, std::size_t nmax,
                                    double headroom, std::size_t stride,
                                    std::size_t fixed_total = 0) {
  esse::EnsembleSizeController::Params ensemble;
  ensemble.initial = initial;
  ensemble.growth = 2.0;
  ensemble.max_members = nmax;
  mtc::FaultPolicy fault;
  fault.speculate = false;
  return {EnsemblePool(ensemble, headroom, fixed_total), stride,
          CancelPolicy::kCancelImmediately, fault, nullptr};
}

TEST(EnsembleOrchestrator, MilestonesRunInOrderWhenAbsorptionJumps) {
  // All eight members land before any is absorbed, then absorption jumps
  // 0 → 8: the checks at 2, 4, 6 and 8 still run one at a time, in order.
  ScriptedWork w;
  w.hold = true;
  w.async_checks = true;
  w.sim.at(10.0, [&w] { w.release(); });
  w.run(params(8, 8, 1.0, 2));
  EXPECT_EQ(w.checks, (std::vector<std::size_t>{2, 4, 6, 8}));
  EXPECT_FALSE(w.overlapping_checks);
  EXPECT_TRUE(w.orch->finished());
  EXPECT_EQ(w.finished_calls, 1u);
  EXPECT_EQ(w.orch->tally().members_done, 8u);
}

TEST(EnsembleOrchestrator, GrowsAtACheckBeforeThePoolDrains) {
  // N = 4, M = 4, stride 2: the first check sees 2 + 2 >= 4 and grows to
  // 8 while members are still running (§4.1).
  ScriptedWork w;
  w.run(params(4, 8, 1.0, 2));
  ASSERT_EQ(w.pool_events.size(), 2u);
  EXPECT_EQ(w.pool_events[0].cap, 4u);
  EXPECT_FALSE(w.pool_events[0].grown);
  EXPECT_EQ(w.pool_events[1].cap, 8u);
  EXPECT_TRUE(w.pool_events[1].grown);
  EXPECT_LT(w.pool_events[1].resolved_before, 4u);
  EXPECT_EQ(w.orch->tally().members_submitted, 8u);
  EXPECT_FALSE(w.orch->converged());
}

TEST(EnsembleOrchestrator, GrowsWhenThePoolDrainsShortOfAMilestone) {
  // Stride 8 > M = 4: no check can run until the drained pool grows.
  ScriptedWork w;
  w.run(params(4, 8, 1.0, 8));
  ASSERT_EQ(w.pool_events.size(), 2u);
  EXPECT_TRUE(w.pool_events[1].grown);
  EXPECT_EQ(w.pool_events[1].resolved_before, 4u);
  EXPECT_EQ(w.checks, (std::vector<std::size_t>{8}));
  const MemberTally t = w.orch->tally();
  EXPECT_EQ(t.members_submitted, 8u);
  EXPECT_EQ(t.members_done, 8u);
  EXPECT_TRUE(t.conserves());
}

TEST(EnsembleOrchestrator, FixedMultilevelPlanNeverGrows) {
  ScriptedWork w;
  w.run(params(4, 16, 2.0, 2, /*fixed_total=*/6));
  ASSERT_EQ(w.pool_events.size(), 1u);
  EXPECT_EQ(w.pool_events[0].cap, 6u);
  EXPECT_EQ(w.orch->pool().target(), 4u);
  const MemberTally t = w.orch->tally();
  EXPECT_EQ(t.members_submitted, 6u);
  EXPECT_EQ(t.members_done, 6u);
  EXPECT_TRUE(w.orch->finished());
}

TEST(EnsembleOrchestrator, CancelOnConvergenceResolvesEveryMemberOnce) {
  for (const CancelPolicy policy :
       {CancelPolicy::kCancelImmediately, CancelPolicy::kUseAllFinished,
        CancelPolicy::kSpareNearFinish}) {
    SCOPED_TRACE(static_cast<int>(policy));
    ScriptedWork w;
    w.converge_at = 4;
    w.async_checks = true;
    w.spare_all = true;
    EnsembleOrchestrator::Params p = params(8, 16, 2.0, 2);
    p.cancel_policy = policy;
    w.run(std::move(p));
    ASSERT_TRUE(w.orch->converged());
    const MemberTally t = w.orch->tally();
    EXPECT_EQ(t.members_submitted, 16u);
    EXPECT_GT(t.members_cancelled_final, 0u);
    EXPECT_EQ(t.members_lost, 0u);
    EXPECT_TRUE(t.conserves()) << to_string(t);
    EXPECT_EQ(w.finished_calls, 1u);
    if (policy != CancelPolicy::kCancelImmediately) {
      // Every finished member is absorbed, and the last check (a drain
      // check when members landed after the deciding one) covers them.
      EXPECT_EQ(w.absorbed_n, t.members_done);
      EXPECT_EQ(w.checks.back(), w.absorbed_n);
    }
  }
}

TEST(EnsembleOrchestrator, ZeroStrideIsRefusedBeforeAnyMemberRuns) {
  ScriptedWork w;
  EXPECT_THROW(w.run(params(4, 8, 1.0, 0)), PreconditionError);
  EXPECT_TRUE(w.sched.records().empty());
  EXPECT_TRUE(w.pool_events.empty());
}

TEST(EnsemblePool, GrowOrStopRule) {
  esse::EnsembleSizeController::Params ensemble{8, 2.0, 16};
  EnsemblePool pool(ensemble, 1.25);
  EXPECT_EQ(pool.cap(), 10u);
  EXPECT_FALSE(pool.grow_at_check(7, 2));  // 9 < 10: not yet
  EXPECT_TRUE(pool.grow_at_check(8, 2));
  EXPECT_EQ(pool.target(), 16u);
  EXPECT_FALSE(pool.grow_on_drain());  // at Nmax
  EnsemblePool plan(ensemble, 1.25, 12);
  EXPECT_EQ(plan.cap(), 12u);
  EXPECT_FALSE(plan.grow_on_drain());
  EXPECT_THROW(EnsemblePool(ensemble, 0.5), PreconditionError);
}

}  // namespace
}  // namespace essex::workflow
