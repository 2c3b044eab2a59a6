// The scenario-matrix harness (DESIGN.md §11): every cell of
// {backend} × {scheduler} × {I/O staging} × {fault regime} × {N} runs an
// end-to-end Fig.-4 gyre workflow and is checked against the four
// invariant oracles; the serial-vs-MTC differential oracle then
// cross-validates the two pipelines from five distinct seeds. Labelled
// `scenario` — ctest -L scenario runs exactly this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "testkit/differential.hpp"
#include "testkit/scenario.hpp"

namespace tk = essex::testkit;

TEST(ScenarioMatrix, CoversAtLeastTwentyFourDistinctCombos) {
  const auto specs = tk::scenario_matrix();
  std::set<std::string> names;
  for (const auto& s : specs) names.insert(s.name());
  EXPECT_EQ(names.size(), specs.size()) << "duplicate scenario cells";
  EXPECT_GE(names.size(), 24u);
}

class ScenarioOracleTest : public ::testing::TestWithParam<tk::ScenarioSpec> {
};

TEST_P(ScenarioOracleTest, AllInvariantOraclesHold) {
  const tk::ScenarioSpec& spec = GetParam();
  const tk::ScenarioOutcome out = tk::run_scenario(spec);

  EXPECT_TRUE(out.ok()) << out.failures(spec);

  // The run must have been substantial enough for the oracles to bite.
  EXPECT_GT(out.des.members_submitted, 0u);
  EXPECT_FALSE(out.des_svd_sizes.empty());
  EXPECT_GT(out.science.members_run, 0u);
  EXPECT_GT(out.observations_used, 0u);
  ASSERT_EQ(out.oracles.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioOracleTest,
    ::testing::ValuesIn(tk::scenario_matrix()),
    [](const ::testing::TestParamInfo<tk::ScenarioSpec>& info) {
      std::string n = info.param.name();
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

class DifferentialOracleTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DifferentialOracleTest, SerialAndMtcPipelinesAgree) {
  const tk::DifferentialReport rep =
      tk::run_differential_oracle(GetParam(), /*threads=*/3);
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_GT(rep.serial_members, 0u);
  EXPECT_EQ(rep.serial_members, rep.mtc_members);
  EXPECT_EQ(rep.central_max_abs_diff, 0.0);
  EXPECT_GE(rep.subspace_rho, 1.0 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(FiveSeeds, DifferentialOracleTest,
                         ::testing::Values(0xE55E0001ULL, 0xE55E0002ULL,
                                           0xE55E0003ULL, 0xE55E0004ULL,
                                           0xE55E0005ULL));
