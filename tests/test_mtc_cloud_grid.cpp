// Unit tests: Grid-site catalogue (Table 1), EC2 catalogue (Table 2) and
// the billing meter (§5.4.2 worked example).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mtc/cloud.hpp"
#include "mtc/grid_site.hpp"
#include "mtc/job.hpp"

namespace essex::mtc {
namespace {

const EsseJobShape kShape{};  // calibrated defaults

// ---- Table 1 (grid sites) ------------------------------------------------------

TEST(GridSites, LocalRowMatchesPaper) {
  GridSite local = local_as_site();
  EXPECT_NEAR(local.pert_seconds(kShape), 6.21, 0.01);
  EXPECT_NEAR(local.pemodel_seconds(kShape), 1531.33, 0.01);
}

TEST(GridSites, PurdueRowMatchesPaper) {
  GridSite purdue = purdue_site();
  EXPECT_NEAR(purdue.pert_seconds(kShape), 6.25, 0.02);
  EXPECT_NEAR(purdue.pemodel_seconds(kShape), 1107.40, 0.02);
}

TEST(GridSites, OrnlRowMatchesPaper) {
  GridSite ornl = ornl_site();
  EXPECT_NEAR(ornl.pert_seconds(kShape), 67.83, 0.05);
  EXPECT_NEAR(ornl.pemodel_seconds(kShape), 1823.99, 0.05);
}

TEST(GridSites, OrnlPertIsFilesystemBound) {
  // The paper: "The slow pert performance for ORNL appears to be partly
  // related to the PVFS2 filesystem used." — the fs factor dominates.
  GridSite ornl = ornl_site();
  EXPECT_GT(ornl.fs_factor, 10.0);
  // Its CPU is also slower than local, but only modestly.
  EXPECT_GT(ornl.cpu_speed, 0.7);
  EXPECT_LT(ornl.cpu_speed, 1.0);
}

TEST(GridSites, PurdueFasterCpuThanLocal) {
  EXPECT_GT(purdue_site().cpu_speed, 1.3);
}

TEST(GridSites, Table1HasThreeRowsInPaperOrder) {
  auto sites = table1_sites();
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].name, "ORNL");
  EXPECT_EQ(sites[1].name, "Purdue");
  EXPECT_EQ(sites[2].name, "local");
}

TEST(GridSites, QueueWaitRespectsAdvanceReservation) {
  GridSite s = ornl_site();
  Rng rng(5);
  EXPECT_GT(s.sample_queue_wait(rng), 0.0);
  s.advance_reservation = true;
  EXPECT_DOUBLE_EQ(s.sample_queue_wait(rng), 0.0);
}

TEST(GridSites, HeterogeneousFinishOrder) {
  // Paper §5.3.3: "perturbation 900 may very well finish well before
  // number 700" — a late block on a fast site beats an early block on a
  // slow one.
  GridSite slow = ornl_site();
  GridSite fast = purdue_site();
  const double member_700_on_slow =
      slow.pert_seconds(kShape) + slow.pemodel_seconds(kShape);
  const double member_900_on_fast =
      fast.pert_seconds(kShape) + fast.pemodel_seconds(kShape);
  EXPECT_LT(member_900_on_fast, member_700_on_slow);
}

// ---- Table 2 (EC2 instances) -----------------------------------------------------

struct InstanceExpect {
  const char* name;
  double pert;
  double pemodel;
  double cores;
};

// Names each case after its instance type. Without this, gtest prints the
// raw bytes of the struct, whose `name` pointer changes from run to run, so
// the discovered test names would not be stable.
void PrintTo(const InstanceExpect& e, std::ostream* os) { *os << e.name; }

class Ec2Table2 : public ::testing::TestWithParam<InstanceExpect> {};

TEST_P(Ec2Table2, ModelReproducesMeasuredTimes) {
  const auto& e = GetParam();
  for (const auto& inst : table2_instances()) {
    if (inst.name != e.name) continue;
    EXPECT_NEAR(inst.pert_seconds(kShape), e.pert, 0.05) << inst.name;
    EXPECT_NEAR(inst.pemodel_seconds(kShape), e.pemodel, 0.05) << inst.name;
    EXPECT_DOUBLE_EQ(inst.effective_cores, e.cores);
    return;
  }
  FAIL() << "instance " << e.name << " missing from the catalogue";
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Ec2Table2,
    ::testing::Values(InstanceExpect{"m1.small", 13.53, 2850.14, 0.5},
                      InstanceExpect{"m1.large", 9.33, 1817.13, 2},
                      InstanceExpect{"m1.xlarge", 9.14, 1860.81, 4},
                      InstanceExpect{"c1.medium", 9.80, 1008.11, 2},
                      InstanceExpect{"c1.xlarge", 6.67, 1030.42, 8}));

TEST(Ec2Catalogue, SmallInstanceIsHalfCoreThrottled) {
  InstanceType t = ec2_m1_small();
  // cpu_speed ≈ 0.5 × (2.6 GHz / 2.4 GHz): the paper's 50% cap reading.
  EXPECT_NEAR(t.cpu_speed, 0.5 * 2.6 / 2.4, 0.01);
}

TEST(Ec2Catalogue, ComputeInstancesBeatStandardOnPemodel) {
  EXPECT_LT(ec2_c1_xlarge().pemodel_seconds(kShape),
            ec2_m1_xlarge().pemodel_seconds(kShape));
}

TEST(Ec2Catalogue, EightSlotXlargeHasBestPerDollarThroughput) {
  // c1.xlarge: 8 slots at 1030 s for $0.80/h beats m1.small's 1 slot.
  const InstanceType big = ec2_c1_xlarge();
  const InstanceType small = ec2_m1_small();
  const double big_members_per_dollar =
      static_cast<double>(big.schedulable_slots) /
      big.pemodel_seconds(kShape) / big.price_per_hour;
  const double small_members_per_dollar =
      1.0 / small.pemodel_seconds(kShape) / small.price_per_hour;
  EXPECT_GT(big_members_per_dollar, small_members_per_dollar);
}

// ---- billing ------------------------------------------------------------------------

TEST(Billing, PaperWorkedExampleIs33_95) {
  // §5.4.2: 1.5 GB in ×0.1 + 10.56 GB out ×0.17 + 2 hr × 20 × 0.8.
  const double cost = ec2_campaign_cost(1.5, 960, 11.0, 2.0, 20, 0.80);
  EXPECT_NEAR(cost, 33.95, 0.01);
}

TEST(Billing, HourlyRoundingCharges2HoursFor1Hour1Sec) {
  BillingMeter m;
  m.charge_instances(3601.0, 1, 0.80);  // 1 h 1 s
  EXPECT_NEAR(m.compute_cost(), 1.60, 1e-9);
  EXPECT_NEAR(m.instance_hours(), 2.0, 1e-9);
}

TEST(Billing, ExactHourBillsExactlyOneHour) {
  BillingMeter m;
  m.charge_instances(3600.0, 1, 0.80);
  EXPECT_NEAR(m.instance_hours(), 1.0, 1e-9);
  EXPECT_NEAR(m.compute_cost(), 0.80, 1e-9);
}

TEST(Billing, FpNoiseInWholeHoursDoesNotBillAnExtraHour) {
  // (0.1 + 0.2) h × 10 campaigns accumulates to 3.0000000000000004 in
  // binary floating point. Ceiling that noisy figure used to bill 4
  // hours for 3 hours of usage; the tolerant ceiling bills 3, while a
  // real overage (3601 s, tested above) still rounds up.
  const double hours = (0.1 + 0.2) * 10.0;
  ASSERT_GT(hours, 3.0);  // the round-off this regression test is about
  BillingMeter m;
  m.charge_instance_hours(hours, 1, 1.0);
  EXPECT_NEAR(m.instance_hours(), 3.0, 1e-9);
  EXPECT_NEAR(m.compute_cost(), 3.0, 1e-9);
}

TEST(Billing, CampaignCostUsesWallHoursWithoutARoundTrip) {
  // The paper's worked example, but with a wall-hours figure carrying
  // one ulp of accumulated noise ((0.1 + 0.2) × 10): the campaign must
  // bill 3 hours per instance, not 4.
  const double cost =
      ec2_campaign_cost(1.5, 960, 11.0, (0.1 + 0.2) * 10.0, 20, 0.80);
  EXPECT_NEAR(cost, 0.15 + 1.7952 + 3.0 * 20 * 0.80, 0.01);
}

TEST(Billing, TransferPricingPerGb) {
  BillingMeter m;
  m.charge_transfer_in(2e9);
  m.charge_transfer_out(3e9);
  EXPECT_NEAR(m.transfer_in_cost(), 0.20, 1e-9);
  EXPECT_NEAR(m.transfer_out_cost(), 0.51, 1e-9);
  EXPECT_NEAR(m.total(), 0.71, 1e-9);
}

TEST(Billing, ReservedDiscountDividesComputeOnly) {
  BillingMeter m;
  m.charge_instances(7200.0, 20, 0.80);  // $32
  m.charge_transfer_in(1.5e9);           // $0.15
  const double reserved = m.total_reserved();
  EXPECT_NEAR(reserved, 32.0 / 3.2 + 0.15, 1e-9);
  // "more than a factor of 3" cheaper on the cpu side.
  EXPECT_LT(reserved, m.total() / 2.0);
}

TEST(Billing, RejectsNegativeCharges) {
  BillingMeter m;
  EXPECT_THROW(m.charge_instances(-1.0, 1, 0.8), PreconditionError);
  EXPECT_THROW(m.charge_transfer_in(-1.0), PreconditionError);
  EXPECT_THROW(m.charge_transfer_out(-1.0), PreconditionError);
}

TEST(Billing, ZeroSecondsCostsNothing) {
  BillingMeter m;
  m.charge_instances(0.0, 20, 0.80);
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

// ---- job shape -------------------------------------------------------------------------

TEST(JobShape, SvdCostGrowsQuadratically) {
  EsseJobShape sh;
  const double t100 = sh.svd_seconds(100);
  const double t200 = sh.svd_seconds(200);
  EXPECT_GT(t200 - sh.svd_base_s, 3.5 * (t100 - sh.svd_base_s));
  // Faster master node shortens it.
  EXPECT_LT(sh.svd_seconds(100, 2.0), t100);
}

TEST(JobShape, EnumToStringsAreStable) {
  EXPECT_EQ(to_string(JobStatus::kDone), "done");
  EXPECT_EQ(to_string(OutputTransfer::kPullPaced), "pull-paced");
}

}  // namespace
}  // namespace essex::mtc
