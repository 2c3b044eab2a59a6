// Tests of the multilevel (multi-fidelity) ensemble subsystem
// (DESIGN.md §15): GridHierarchy geometry and transfer operators, the
// MultilevelParams layout/weight/cost arithmetic, validation of member
// mixes, the bitwise collapse of a degenerate multilevel run onto the
// single-level estimator, and the satellite fixes that ride along —
// work-unit admission (heterogeneous request costs must not poison the
// runtime estimator) and RequestQueue tie ordering. Labelled
// `multilevel` (CI runs `ctest -L multilevel` in the default and tsan
// jobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "esse/multilevel.hpp"
#include "esse/repro.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "ocean/hierarchy.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"
#include "service/admission.hpp"
#include "service/determinism_probe.hpp"
#include "service/forecast_service.hpp"
#include "service/sim_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ocean::Grid3D gyre_grid(std::size_t nx = 12, std::size_t ny = 10,
                        std::size_t nz = 3) {
  return ocean::make_double_gyre_scenario(nx, ny, nz).grid;
}

// ---- GridHierarchy geometry -----------------------------------------------------

TEST(GridHierarchy, GeometryFollowsCeilDivision) {
  const ocean::GridHierarchy h(gyre_grid(), 3, 2);
  ASSERT_EQ(h.levels(), 3u);
  EXPECT_EQ(h.grid(0).nx(), 12u);
  EXPECT_EQ(h.grid(0).ny(), 10u);
  EXPECT_EQ(h.grid(1).nx(), 6u);
  EXPECT_EQ(h.grid(1).ny(), 5u);
  EXPECT_EQ(h.grid(2).nx(), 3u);
  EXPECT_EQ(h.grid(2).ny(), 3u);  // ceil(5/2)
  // Every level keeps the fine z-levels; spacing doubles per level.
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(h.grid(l).nz(), h.grid(0).nz());
  }
  EXPECT_DOUBLE_EQ(h.grid(1).dx_km(), 2.0 * h.grid(0).dx_km());
  EXPECT_DOUBLE_EQ(h.grid(2).dx_km(), 4.0 * h.grid(0).dx_km());
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(h.packed_size(l), ocean::OceanState::packed_size(h.grid(l)));
  }
}

TEST(GridHierarchy, RejectsOverdeepHierarchies) {
  // 12×10 coarsens 12→6→3→2: the fourth level breaks the 3×3 minimum.
  EXPECT_NO_THROW(ocean::GridHierarchy(gyre_grid(), 3, 2));
  EXPECT_THROW(ocean::GridHierarchy(gyre_grid(), 4, 2), PreconditionError);
}

TEST(GridHierarchy, ConstantFieldRestrictsAndProlongatesBitwise) {
  const ocean::GridHierarchy h(gyre_grid(), 3, 2);
  const ocean::Grid3D& fine = h.grid(0);
  const std::size_t points = fine.points();
  const std::size_t hp = fine.horizontal_points();
  la::Vector x(h.packed_size(0), 0.0);
  const double field_value[4] = {1.5, 34.25, -0.375, 0.0625};
  for (std::size_t f = 0; f < 4; ++f) {
    std::fill(x.begin() + f * points, x.begin() + (f + 1) * points,
              field_value[f]);
  }
  std::fill(x.begin() + 4 * points, x.end(), 9.25);  // ssh

  for (std::size_t level = 1; level < h.levels(); ++level) {
    const la::Vector xc = h.restrict_state(x, level);
    const std::size_t cpoints = h.grid(level).points();
    const std::size_t chp = h.grid(level).horizontal_points();
    ASSERT_EQ(xc.size(), h.packed_size(level));
    for (std::size_t f = 0; f < 4; ++f) {
      for (std::size_t i = 0; i < cpoints; ++i) {
        ASSERT_EQ(xc[f * cpoints + i], field_value[f])
            << "level " << level << " field " << f << " cell " << i;
      }
    }
    for (std::size_t i = 0; i < chp; ++i) {
      ASSERT_EQ(xc[4 * cpoints + i], 9.25);
    }
    // Lerp-form bilinear: p + t·(q − p) with p == q returns p exactly,
    // so the constant prolongates back bitwise.
    const la::Vector xf = h.prolong_state(xc, level);
    ASSERT_EQ(xf.size(), x.size());
    for (std::size_t i = 0; i < xf.size(); ++i) {
      ASSERT_EQ(xf[i], x[i]) << "level " << level << " entry " << i;
    }
    (void)hp;
  }
}

// ---- adjoint consistency (property) ---------------------------------------------

// ---- MultilevelParams layout / weights / costs ----------------------------------

TEST(MultilevelParams, LevelMajorLayoutAndOffsets) {
  esse::MultilevelParams ml;
  ml.levels = 3;
  ml.members_per_level = {4, 6, 8};
  EXPECT_TRUE(ml.enabled());
  EXPECT_EQ(ml.total_members(), 18u);
  EXPECT_EQ(ml.level_of(0), 0u);
  EXPECT_EQ(ml.level_of(3), 0u);
  EXPECT_EQ(ml.level_of(4), 1u);
  EXPECT_EQ(ml.level_of(9), 1u);
  EXPECT_EQ(ml.level_of(10), 2u);
  EXPECT_EQ(ml.level_of(17), 2u);
}

TEST(MultilevelParams, DefaultWeightsPoolLikeOneBigEnsemble) {
  esse::MultilevelParams ml;
  ml.levels = 2;
  ml.members_per_level = {6, 18};
  // w_l ∝ n_l  ⇒  s_l = sqrt(w_l (N−1)/(n_l−1)) close to but not exactly
  // 1 (the −1's differ); the weights themselves normalise.
  EXPECT_DOUBLE_EQ(ml.weight(0) + ml.weight(1), 1.0);
  EXPECT_DOUBLE_EQ(ml.weight(0), 0.25);
  EXPECT_GT(ml.column_weight(0), 1.0);   // 6 members carry weight 1/4
  EXPECT_LT(ml.column_weight(1), 1.15);  // 18 members carry weight 3/4
}

TEST(MultilevelParams, DegenerateSingleUsedLevelHasUnitColumnWeight) {
  esse::MultilevelParams ml;
  ml.levels = 2;
  ml.members_per_level = {12, 0};
  // All members on one level: w = 1, n_l == N_tot, s_l == 1.0 *exactly* —
  // the bitwise-collapse guarantee hangs on this.
  EXPECT_EQ(ml.column_weight(0), 1.0);
}

TEST(MultilevelParams, CostRatiosDefaultToCflScaling) {
  esse::MultilevelParams ml;
  ml.levels = 3;
  ml.coarsen = 2;
  ml.members_per_level = {4, 8, 16};
  EXPECT_DOUBLE_EQ(ml.cost_ratio(0), 1.0);
  EXPECT_DOUBLE_EQ(ml.cost_ratio(1), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(ml.cost_ratio(2), 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(ml.total_cost_units(), 4.0 + 1.0 + 0.25);
}

// ---- validation -----------------------------------------------------------------

workflow::ParallelRunnerConfig valid_ml_config() {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.multilevel.levels = 2;
  cfg.cycle.multilevel.members_per_level = {4, 8};
  return cfg;
}

bool has_issue(const std::vector<workflow::ValidationIssue>& issues,
               const std::string& field) {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const workflow::ValidationIssue& i) {
                       return i.field.find(field) != std::string::npos;
                     });
}

TEST(MultilevelValidation, AcceptsAWellFormedMix) {
  EXPECT_TRUE(workflow::validate(valid_ml_config()).empty());
}

TEST(MultilevelValidation, RejectsMalformedMemberMixes) {
  auto cfg = valid_ml_config();
  cfg.cycle.multilevel.members_per_level = {4};  // size != levels
  EXPECT_TRUE(has_issue(workflow::validate(cfg), "members_per_level"));

  cfg = valid_ml_config();
  cfg.cycle.multilevel.members_per_level = {4, 1};  // 1-member level
  EXPECT_TRUE(has_issue(workflow::validate(cfg), "members_per_level"));

  cfg = valid_ml_config();
  cfg.cycle.multilevel.level_weights = {0.5};  // size mismatch
  EXPECT_TRUE(has_issue(workflow::validate(cfg), "level_weights"));

  // Non-finite weights: an infinite level weight turns column_weight()
  // into NaN, so validation must catch them up front.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& w :
       {std::vector<double>{inf, 1.0}, std::vector<double>{1.0, nan}}) {
    cfg = valid_ml_config();
    cfg.cycle.multilevel.level_weights = w;
    EXPECT_TRUE(has_issue(workflow::validate(cfg), "level_weights"));
  }
}

TEST(MultilevelValidation, RejectsCompositionWithLocalization) {
  auto cfg = valid_ml_config();
  cfg.cycle.localization.enabled = true;
  cfg.cycle.localization.radius_km = 40.0;
  EXPECT_TRUE(has_issue(workflow::validate(cfg), "multilevel"));
}

TEST(MultilevelValidation, RejectsHierarchiesTheGridCannotCarry) {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 3.0, 4, 0.99, 6, /*seed=*/11);
  auto cfg = valid_ml_config();
  cfg.cycle.multilevel.levels = 4;  // 12→6→3→2 breaks the 3×3 minimum
  cfg.cycle.multilevel.members_per_level = {4, 4, 4, 4};
  const auto issues = workflow::validate(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});
  EXPECT_TRUE(has_issue(issues, "multilevel.levels"));
}

// ---- telescoping identity: degenerate multilevel == single-level ---------------

TEST(Multilevel, CollapsesBitwiseOntoSingleLevelWhenAllMembersAreFine) {
  // levels == 2 with every member on the fine level: column weights are
  // exactly 1.0, no coarse model ever runs, and the forecast product
  // must digest identically to the plain single-level run with the same
  // member budget.
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 3.0, 8, 0.99, 6, /*seed=*/11);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 12};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  cfg.svd_min_new_members = 4;
  const esse::ForecastResult single = service::run_parallel_forecast(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});

  cfg.cycle.multilevel.levels = 2;
  cfg.cycle.multilevel.members_per_level = {12, 0};
  const esse::ForecastResult collapsed = service::run_parallel_forecast(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});

  EXPECT_EQ(esse::forecast_digest(collapsed), esse::forecast_digest(single));
}

// ---- the mixed-resolution runner end to end -------------------------------------

TEST(Multilevel, MixedResolutionForecastProducesAFineGridProduct) {
  const esse::ForecastResult res = service::golden_multilevel_forecast(2);
  const std::size_t fine_m = ocean::OceanState::packed_size(gyre_grid());
  EXPECT_EQ(res.central_forecast.size(), fine_m);
  EXPECT_EQ(res.forecast_subspace.dim(), fine_m);
  EXPECT_GT(res.forecast_subspace.rank(), 0u);
  EXPECT_GE(res.members_run, 8u);   // at least the fine level
  EXPECT_LE(res.members_run, 24u);  // never beyond the fixed plan
  EXPECT_FALSE(res.convergence_history.empty());
}

// ---- satellite 1: work-unit admission -------------------------------------------

TEST(WorkUnitEstimator, TracksCostPerUnitNotRawSeconds) {
  service::RuntimeEstimator est(0.2);
  est.observe(1.0, 1000.0);  // small request: 1 s for 1k units
  EXPECT_DOUBLE_EQ(est.per_unit_s(), 1e-3);
  est.observe(1000.0, 1.0e6);  // large request, same per-unit cost
  EXPECT_DOUBLE_EQ(est.per_unit_s(), 1e-3);
  // Scaling back up by the ticket size recovers each runtime.
  EXPECT_DOUBLE_EQ(est.estimate_s(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(est.estimate_s(1.0e6), 1000.0);
  est.observe(5.0, 0.0);   // nonsense units: ignored
  est.observe(-1.0, 10.0); // negative time: ignored
  EXPECT_DOUBLE_EQ(est.per_unit_s(), 1e-3);
  EXPECT_EQ(est.samples(), 2u);
}

TEST(WorkUnitEstimator, SmallRequestBurstDoesNotFlipLargeAdmission) {
  // The regression this PR fixes: a global EWMA over *raw* service
  // times let a burst of cheap requests drag the estimate down, so a
  // large request sailed past a deadline it could never meet (and one
  // big completion made the estimator reject feasible small requests).
  // Deadlines are checked against 1.25× the estimate: 1.25 s for the
  // small request, 1250 s for the large one.
  const service::AdmissionController ctrl(service::AdmissionPolicy{});
  service::RuntimeEstimator est(0.2);
  service::ServerLoad idle;
  idle.now_s = 0.0;
  idle.max_inflight = 1;

  const double small_units = 1.0e3;   // runs in ~1 s
  const double large_units = 1.0e6;   // runs in ~1000 s

  service::AdmissionTicket small;
  small.deadline_s = 10.0;
  small.work_units = small_units;
  service::AdmissionTicket large;
  large.deadline_s = 10.0;  // infeasible for a 1000 s request
  large.work_units = large_units;

  for (int round = 0; round < 8; ++round) {
    // Interleave small and large completions; per-unit cost is stable.
    est.observe(1.0, small_units);
    est.observe(1000.0, large_units);
    EXPECT_FALSE(ctrl.decide(small, idle, est).has_value())
        << "round " << round << ": small request became infeasible";
    const auto rej = ctrl.decide(large, idle, est);
    ASSERT_TRUE(rej.has_value())
        << "round " << round << ": infeasible large request admitted";
    EXPECT_EQ(rej->reason, service::RejectReason::kDeadlineInfeasible);
  }
  // A large request with a realistic deadline is still admitted.
  large.deadline_s = 2000.0;
  EXPECT_FALSE(ctrl.decide(large, idle, est).has_value());
}

// ---- satellite 2: RequestQueue tie ordering -------------------------------------

TEST(RequestQueueTie, EqualPriorityAndDeadlineEntriesPopFifo) {
  // Shuffled insertion of ids whose (priority, deadline) all tie — and
  // whose caller-supplied seq fields all collide at 0, the case the old
  // std::set comparator silently dropped. push() stamps arrival order
  // itself, so every entry survives and pops FIFO.
  std::vector<std::uint64_t> ids = {5, 2, 9, 1, 7, 4, 8, 3, 6, 10};
  service::RequestQueue q;
  for (std::uint64_t id : ids) q.push({id, /*priority=*/3, kInf, 0});
  ASSERT_EQ(q.size(), ids.size()) << "tied entries were dropped on insert";
  EXPECT_EQ(q.count_at_or_above(3), ids.size());
  for (std::uint64_t expected : ids) {
    const auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->id, expected);  // arrival order, not id order
  }
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueueTie, PriorityAndDeadlineStillDominateArrival) {
  service::RequestQueue q;
  q.push({1, 0, kInf, 0});
  q.push({2, 5, kInf, 0});    // higher priority beats earlier arrival
  q.push({3, 5, 100.0, 0});   // earlier deadline beats arrival within 5
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 1u);
}

// ---- DES: coarse members pack into idle slots -----------------------------------

mtc::ClusterSpec small_cluster(std::size_t nodes, std::size_t cores) {
  mtc::ClusterSpec spec;
  spec.name = "ml";
  for (std::size_t i = 0; i < nodes; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

TEST(SimServiceMultilevel, CoarseMembersRunAndAccountPerLevel) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, small_cluster(4, 2), mtc::sge_params());
  service::SimServiceConfig cfg;
  service::SimForecastService svc(sim, sched, cfg);
  service::SimRequestSpec spec;
  spec.levels = 2;
  spec.members_per_level = {4, 12};
  spec.converge_at = 16;
  spec.max_members = 16;
  sim.at(0.0, [&] { svc.submit(spec); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 1u);
  const service::SimRequestOutcome& out = svc.outcomes()[0];
  EXPECT_EQ(out.state, service::RequestState::kDone);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.ledger.members_done, 16u);
  ASSERT_EQ(out.members_completed_per_level.size(), 2u);
  EXPECT_EQ(out.members_completed_per_level[0], 4u);
  EXPECT_EQ(out.members_completed_per_level[1], 12u);
  EXPECT_EQ(svc.leaked_members(), 0);
  // The estimator was fed the plan's work units, not a raw count.
  EXPECT_EQ(svc.estimator().samples(), 1u);
  EXPECT_GT(svc.estimator().per_unit_s(), 0.0);
}

TEST(SimServiceMultilevel, CheaperCoarsePlanFinishesFasterThanAllFine) {
  // Same total member count; the multilevel mix at cost ratio 1/8 must
  // beat the all-fine plan on simulated wall-clock — the DES rendering
  // of the Fig.-2 CPU-seconds reduction.
  auto run_one = [](bool multilevel) {
    mtc::Simulator sim;
    mtc::ClusterScheduler sched(sim, small_cluster(2, 2),
                                mtc::sge_params());
    service::SimServiceConfig cfg;
    service::SimForecastService svc(sim, sched, cfg);
    service::SimRequestSpec spec;
    spec.converge_at = 16;
    spec.max_members = 16;
    spec.initial_members = 16;
    if (multilevel) {
      spec.levels = 2;
      spec.members_per_level = {4, 12};
    }
    sim.at(0.0, [&] { svc.submit(spec); });
    sim.run();
    return svc.outcomes().at(0).latency_s();
  };
  const double fine_s = run_one(false);
  const double ml_s = run_one(true);
  EXPECT_LT(ml_s, fine_s);
}

TEST(SimServiceMultilevel, MalformedMixIsRejectedNotAborted) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, small_cluster(2, 2), mtc::sge_params());
  service::SimForecastService svc(sim, sched, service::SimServiceConfig{});
  service::SimRequestSpec bad;
  bad.levels = 2;
  bad.members_per_level = {4};  // size != levels
  sim.at(0.0, [&] { svc.submit(bad); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 1u);
  EXPECT_EQ(svc.outcomes()[0].state, service::RequestState::kRejected);
  EXPECT_NE(
      svc.outcomes()[0].rejection.message.find("members_per_level"),
      std::string::npos);
}

// ---- work-unit accounting on real requests --------------------------------------

TEST(ForecastWorkUnits, MultilevelPlansAreDiscountedByCostRatios) {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 3.0, 4, 0.99, 6, /*seed=*/11);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.ensemble = {8, 2.0, 24};
  const double single = workflow::forecast_work_units(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});

  cfg.cycle.multilevel.levels = 2;
  cfg.cycle.multilevel.members_per_level = {8, 16};
  const double ml = workflow::forecast_work_units(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});
  // 24 planned members either way, but 16 of the multilevel ones cost
  // 1/8 of a fine member: 8 + 16/8 = 10 fine-member units vs 24.
  EXPECT_GT(single, 0.0);
  EXPECT_DOUBLE_EQ(ml / single, 10.0 / 24.0);
}

}  // namespace
}  // namespace essex
