// Golden replay harness for the determinism contract (DESIGN.md §10).
//
// The real Fig. 4 runner must produce bitwise-identical forecast
// products — central state, subspace (= covariance file bytes), std-dev
// map, ρ history, canonical member count — for a fixed seed, no matter
// how many worker threads run the ensemble or in what order members are
// absorbed. The suite replays one canonical run at threads ∈ {1, 4, 8}
// and under two adversarially shuffled arrival schedules, and pins the
// digest against the checked-in golden value. Labelled `determinism`:
// CI runs it in both the default and -fsanitize=thread jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/digest.hpp"
#include "esse/repro.hpp"
#include "linalg/simd.hpp"
#include "service/determinism_probe.hpp"

#ifndef ESSEX_GOLDEN_DIR
#define ESSEX_GOLDEN_DIR "."
#endif

namespace essex::service {
namespace {

// The digests are identical runs of real multi-second forecasts; compute
// each distinct schedule once and share across the assertions below.
const std::string& digest_threads1() {
  static const std::string d = golden_digest(1);
  return d;
}

const std::string& digest_threads4() {
  static const std::string d = golden_digest(4);
  return d;
}

TEST(Determinism, ThreadCountDoesNotChangeTheForecast) {
  EXPECT_EQ(digest_threads1(), digest_threads4());
  EXPECT_EQ(digest_threads1(), golden_digest(8));
}

TEST(Determinism, DispatchTierDoesNotChangeTheForecast) {
  // The SIMD determinism contract (DESIGN.md §13): the golden digest is
  // one value across the scalar, SSE2 and AVX2 kernel tiers, at every
  // thread count — the vector kernels reproduce the canonical reduction
  // shape bit for bit, they don't merely approximate it.
  const std::string baseline = digest_threads1();  // computed pre-force
  for (const la::simd::Level level :
       {la::simd::Level::kScalar, la::simd::Level::kSse2,
        la::simd::Level::kAvx2}) {
    la::simd::ScopedLevel force(level);
    SCOPED_TRACE(la::simd::level_name(la::simd::active_level()));
    EXPECT_EQ(golden_digest(1), baseline);
    EXPECT_EQ(golden_digest(4), baseline);
    EXPECT_EQ(golden_digest(8), baseline);
  }
}

TEST(Determinism, AdversarialArrivalSchedulesDoNotChangeTheForecast) {
  // Schedule A: stall early member ids so high ids are absorbed first —
  // the reverse of the natural submission order.
  const std::string reversed = golden_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((23 - id % 24) / 4));
  });
  EXPECT_EQ(reversed, digest_threads1());

  // Schedule B: pseudo-random stalls, decorrelated from the id order.
  const std::string shuffled = golden_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  EXPECT_EQ(shuffled, digest_threads1());
}

TEST(Determinism, TiledForecastIsThreadAndArrivalInvariant) {
  // The localized run (sharded differ reductions, DESIGN.md §14) obeys
  // the same contract as the global one: one digest across thread counts
  // and adversarial arrival schedules. It is asserted self-consistent,
  // not pinned — the checked-in golden digest belongs to the untiled
  // run, which the localization redesign must leave untouched (the
  // MatchesCheckedInGoldenDigest test below).
  const std::string baseline = golden_tiled_digest(1);
  EXPECT_EQ(golden_tiled_digest(4), baseline);
  const std::string shuffled = golden_tiled_digest(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  EXPECT_EQ(shuffled, baseline);
  // And localization genuinely changed the product: same seed, different
  // update, different digest.
  EXPECT_NE(baseline, digest_threads1());
}

TEST(Determinism, MultilevelForecastIsThreadAndArrivalInvariant) {
  // The multilevel run (mixed-resolution members, DESIGN.md §15) obeys
  // the same contract: pooled coarse columns are pre-scaled from planned
  // counts and absorbed in canonical (level, member) id order, so one
  // digest across thread counts and adversarial arrival schedules. Like
  // the tiled variant it is self-consistent, not pinned — the checked-in
  // golden digest belongs to the single-level run, which levels == 1
  // must leave bitwise untouched (MatchesCheckedInGoldenDigest).
  const std::string baseline = golden_multilevel_digest(1);
  EXPECT_EQ(golden_multilevel_digest(4), baseline);
  const std::string shuffled =
      golden_multilevel_digest(4, [](std::size_t id) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((id * 37 + 11) % 7));
      });
  EXPECT_EQ(shuffled, baseline);
  // And the coarse members genuinely changed the product: same seed,
  // different estimator, different digest.
  EXPECT_NE(baseline, digest_threads1());
}

TEST(Determinism, AnalysisMethodIsThreadAndArrivalInvariant) {
  // Every registered filter obeys the §10 contract end to end: one
  // analysis digest per method across thread counts {1, 4, 8} and
  // adversarial member-arrival schedules. Observation-assembly shuffle
  // invariance is additionally demanded of the ESRF — the one filter
  // whose algorithm is order-dependent, pinned by canonical content
  // ordering; the batch-form filters consume the set in the given order,
  // so a shuffle legitimately permutes their reduction order. One golden
  // forecast feeds all four methods per schedule, so this costs four
  // forecast runs, not sixteen.
  const auto baseline = golden_analysis_digests(1);
  ASSERT_EQ(baseline.size(), esse::analysis_method_registry().size());
  // Distinct filters must produce distinct products on the same data —
  // equal digests would mean the dispatch is wired to one method.
  EXPECT_NE(baseline.at(esse::AnalysisMethod::kSubspaceKalman),
            baseline.at(esse::AnalysisMethod::kMultiModel));

  const auto threads8 = golden_analysis_digests(8);
  // Adversarial member-arrival schedule, natural observation order: the
  // golden forecast is arrival-invariant and the analysis is a pure
  // function of it, so every method's digest must hold.
  const auto arrival = golden_analysis_digests(4, [](std::size_t id) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((id * 37 + 11) % 7));
  });
  // Adversarial observation-assembly shuffle: only the ESRF — whose
  // serial sweep analyze() pins to canonical content order — must hold.
  const auto obs_shuffled =
      golden_analysis_digests(4, {}, /*obs_order_seed=*/0x0b5e7a11ULL);
  for (const auto& [method, digest] : baseline) {
    SCOPED_TRACE(esse::to_string(method));
    EXPECT_EQ(threads8.at(method), digest);
    EXPECT_EQ(arrival.at(method), digest);
    if (method == esse::AnalysisMethod::kEsrf) {
      EXPECT_EQ(obs_shuffled.at(method), digest);
    }
  }
}

TEST(Determinism, MatchesCheckedInAnalysisMethodDigests) {
  const std::string path =
      std::string(ESSEX_GOLDEN_DIR) + "/analysis_methods.sha256";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open())
      << "missing golden digest file " << path
      << " — regenerate with: bench_determinism --write-golden";
  std::map<std::string, std::string> golden;
  std::string hex, key;
  while (f >> hex >> key) golden[key] = hex;
  const auto digests = golden_analysis_digests(4);
  for (const auto& [method, digest] : digests) {
    const std::string k =
        std::string(kGoldenRunKey) + "-" + esse::to_string(method);
    const auto it = golden.find(k);
    ASSERT_NE(it, golden.end()) << "golden file has no entry for " << k;
    EXPECT_EQ(digest, it->second)
        << "method " << esse::to_string(method)
        << " no longer reproduces its checked-in digest. If the numerics "
           "changed intentionally, regenerate with: bench_determinism "
           "--write-golden (see DESIGN.md §10/§16).";
  }
}

TEST(Determinism, SerializedProductIsSelfConsistent) {
  const esse::ForecastResult res = golden_forecast(2);
  const std::string bytes = esse::serialize_forecast_product(res);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.substr(0, 8), "ESSEXRPR");
  EXPECT_EQ(esse::forecast_digest(res), sha256_hex(bytes));
  // The digest really does ignore the MTC accounting: two results that
  // differ only in execution records serialize identically.
  esse::ForecastResult jittered = res;
  ASSERT_TRUE(jittered.mtc.has_value());
  jittered.mtc->svd_runs += 17;
  jittered.mtc->retries += 3;
  EXPECT_EQ(esse::forecast_digest(jittered), esse::forecast_digest(res));
}

TEST(Determinism, MatchesCheckedInGoldenDigest) {
  const std::string path =
      std::string(ESSEX_GOLDEN_DIR) + "/determinism.sha256";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open())
      << "missing golden digest file " << path
      << " — regenerate with: bench_determinism --write-golden";
  // sha256sum line format: "<hex>  <key>".
  std::map<std::string, std::string> golden;
  std::string hex, key;
  while (f >> hex >> key) golden[key] = hex;
  const auto it = golden.find(kGoldenRunKey);
  ASSERT_NE(it, golden.end())
      << "golden file has no entry for " << kGoldenRunKey;
  EXPECT_EQ(digest_threads4(), it->second)
      << "the seeded forecast no longer reproduces the checked-in golden "
         "digest. If the numerics changed intentionally, regenerate with: "
         "bench_determinism --write-golden (see DESIGN.md §10).";
}

}  // namespace
}  // namespace essex::service
