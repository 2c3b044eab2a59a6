// Tests: the EC2 autoscaler and the tangent-linear subspace forecast.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "esse/cycle.hpp"
#include "esse/tangent.hpp"
#include "mtc/autoscaler.hpp"
#include "ocean/monterey.hpp"

namespace essex {
namespace {

// ---- autoscaler -----------------------------------------------------------------

TEST(Autoscaler, CompletesAllMembers) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 20;
  const auto r = mtc::run_autoscaled_batch(shape, 160, p);
  EXPECT_EQ(r.members_done, 160u);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_LE(r.peak_instances, 20u);
  EXPECT_GT(r.cost_usd, 0.0);
}

TEST(Autoscaler, RespectsInstanceCap) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 5;
  const auto r = mtc::run_autoscaled_batch(shape, 400, p);
  EXPECT_EQ(r.members_done, 400u);
  EXPECT_LE(r.peak_instances, 5u);
}

TEST(Autoscaler, CheaperThanOversizedFixedFleetOnSmallBatch) {
  // 40 members on c1.xlarge (8 slots): an oversized 20-instance fixed
  // fleet burns 20 instance-hours; the autoscaler boots ~5.
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 20;
  const auto scaled = mtc::run_autoscaled_batch(shape, 40, p);
  const auto fixed =
      mtc::run_fixed_fleet_batch(shape, 40, mtc::ec2_c1_xlarge(), 20);
  EXPECT_EQ(fixed.members_done, 40u);
  EXPECT_LT(scaled.cost_usd, fixed.cost_usd);
  // And not catastrophically slower (boot latency only).
  EXPECT_LT(scaled.makespan_s, fixed.makespan_s * 2.0);
}

TEST(Autoscaler, FixedFleetMatchesHandComputedMakespan) {
  mtc::EsseJobShape shape;
  const mtc::InstanceType inst = mtc::ec2_c1_xlarge();
  // 80 members on 2 instances × 8 slots = 5 sequential rounds.
  const auto r = mtc::run_fixed_fleet_batch(shape, 80, inst, 2, 0.0);
  const double job = inst.pert_seconds(shape) + inst.pemodel_seconds(shape);
  EXPECT_NEAR(r.makespan_s, 5.0 * job, 1.0);
  EXPECT_EQ(r.members_done, 80u);
}

TEST(Autoscaler, ValidatesArguments) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_m1_small();
  p.max_instances = 0;
  EXPECT_THROW(mtc::run_autoscaled_batch(shape, 10, p), PreconditionError);
  EXPECT_THROW(
      mtc::run_fixed_fleet_batch(shape, 0, mtc::ec2_m1_small(), 1),
      PreconditionError);
}

// ---- tangent-linear forecast -------------------------------------------------------

struct TangentFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(16, 14, 4));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = esse::bootstrap_subspace(*model, sc->initial, 0.0, 6.0, 10,
                                        0.99, 6, /*seed=*/77);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace subspace;
};

TEST_F(TangentFixture, UsesRankPlusOneModelRuns) {
  auto tf = esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0);
  EXPECT_EQ(tf.model_runs, subspace.rank() + 1);
  EXPECT_GT(tf.forecast_subspace.rank(), 0u);
  EXPECT_EQ(tf.central_forecast.size(), subspace.dim());
}

TEST_F(TangentFixture, AgreesWithEnsembleSubspaceOnShortHorizon) {
  // Over a short horizon the deterministic mode propagation and the
  // noise-free ensemble must span nearly the same subspace.
  auto tf = esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0,
                                   1.0, 1, 0.999, 6);
  esse::CycleParams cp;
  cp.forecast_hours = 3.0;
  cp.ensemble = {16, 2.0, 16};
  cp.convergence = {0.999999, 64};  // run all members
  cp.max_rank = 6;
  cp.stochastic_members = false;  // same noise-free regime
  cp.variance_fraction = 0.999;
  esse::ForecastResult fr = esse::run_uncertainty_forecast(
      *model, sc->initial, subspace, 0.0, cp);
  const double rho =
      esse::subspace_similarity(tf.forecast_subspace, fr.forecast_subspace);
  EXPECT_GT(rho, 0.8);
}

TEST_F(TangentFixture, ThreadedAndSerialAgree) {
  auto serial =
      esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0, 1.0, 1);
  auto threaded =
      esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0, 1.0, 3);
  const double rho = esse::subspace_similarity(serial.forecast_subspace,
                                               threaded.forecast_subspace);
  EXPECT_NEAR(rho, 1.0, 1e-9);
}

TEST_F(TangentFixture, ValidatesArguments) {
  EXPECT_THROW(esse::tangent_forecast(*model, sc->initial, subspace, 0.0,
                                      3.0, /*epsilon=*/0.0),
               PreconditionError);
  EXPECT_THROW(esse::tangent_forecast(*model, sc->initial, subspace, 0.0,
                                      /*forecast_hours=*/0.0),
               PreconditionError);
}

}  // namespace
}  // namespace essex
