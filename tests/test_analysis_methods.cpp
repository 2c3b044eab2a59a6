// The analysis-method cross-validation harness (DESIGN.md §16).
//
// Both AnalysisMethods behind the unified analyze() entry point are held
// to the same contract: every method must be bitwise invariant to the
// worker-thread count, the multi-model combiner must be exactly
// "subspace Kalman on the pseudo-augmented set", and no method may ever
// inflate the posterior trace above the prior. Labelled `analysis`: CI
// runs it in both the default and tsan jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/error_subspace.hpp"
#include "esse/cycle.hpp"
#include "esse/obs_set.hpp"
#include "esse/repro.hpp"
#include "ocean/monterey.hpp"
#include "testkit/differential.hpp"
#include "testkit/generators.hpp"

namespace essex::testkit {
namespace {

// Identity-stencil observations of every `stride`-th state element,
// derived deterministically from the generated case: values straddle the
// truth, variances stay ≥ 0.04 so every case is well-conditioned (no
// near-singular innovation covariances to launder round-off through).
esse::ObsSet make_obs_for(const SurrogatePair& sp, std::size_t stride = 3) {
  std::vector<esse::ObsEntry> entries;
  for (std::size_t i = 0; i < sp.truth.size(); i += stride) {
    esse::ObsEntry e;
    e.stencil = {{i, 1.0}};
    e.value = sp.truth[i] + 0.1 * (static_cast<double>(i % 3) - 1.0);
    e.variance = 0.04 + 0.01 * static_cast<double>(i % 5);
    entries.push_back(std::move(e));
  }
  return esse::ObsSet(std::move(entries));
}

double rms_diff(const la::Vector& a, const la::Vector& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return a.empty() ? 0.0 : std::sqrt(acc / static_cast<double>(a.size()));
}

// Well-conditioned generation knobs shared by the properties: full-rank
// spectra, modest dims.
SubspaceOpts equivalence_opts() {
  SubspaceOpts opts;
  opts.dim_lo = 8;
  opts.dim_hi = 40;
  opts.rank_lo = 1;
  opts.rank_hi = 6;
  opts.sigma_hi = 2.0;
  return opts;
}

// A generated case together with the method under test; shrinks walk
// both toward the simplest still-failing combination.
struct MethodCase {
  SurrogatePair pair;
  esse::AnalysisMethod method = esse::AnalysisMethod::kSubspaceKalman;
};

Gen<MethodCase> gen_method_case() {
  const Gen<SurrogatePair> pair_gen = gen_surrogate_pair(equivalence_opts());
  const Gen<esse::AnalysisMethod> method_gen = gen_analysis_method();
  Gen<MethodCase> g;
  g.create = [pair_gen, method_gen](Rng& rng) {
    MethodCase c;
    c.pair = pair_gen.create(rng);
    c.method = method_gen.create(rng);
    return c;
  };
  g.shrink = [pair_gen, method_gen](const MethodCase& c) {
    std::vector<MethodCase> cands;
    for (esse::AnalysisMethod& m : method_gen.shrink(c.method)) {
      MethodCase copy = c;
      copy.method = m;
      cands.push_back(std::move(copy));
    }
    for (SurrogatePair& sp : pair_gen.shrink(c.pair)) {
      MethodCase copy = c;
      copy.pair = std::move(sp);
      cands.push_back(std::move(copy));
    }
    return cands;
  };
  g.describe = [pair_gen, method_gen](const MethodCase& c) {
    return pair_gen.describe(c.pair) + ", " + method_gen.describe(c.method);
  };
  return g;
}

esse::AnalysisOptions options_for(const MethodCase& c,
                                  std::size_t threads = 1) {
  esse::AnalysisOptions options;
  options.method = c.method;
  options.threads = threads;
  if (c.method == esse::AnalysisMethod::kMultiModel)
    options.surrogate = &c.pair.surrogate;
  return options;
}

TEST(AnalysisMethods, RegistryNamesRoundTrip) {
  const auto& reg = esse::analysis_method_registry();
  ASSERT_EQ(reg.size(), 2u);
  std::set<std::string> names;
  for (const esse::AnalysisMethod m : reg) {
    EXPECT_TRUE(esse::is_registered(m));
    const std::string name = esse::to_string(m);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  // The retired values and anything else cast from an integer.
  for (const int value : {1, 2, 99})
    EXPECT_FALSE(
        esse::is_registered(static_cast<esse::AnalysisMethod>(value)));
}

TEST(AnalysisMethods, EveryMethodIsBitwiseThreadInvariant) {
  // The global path's only parallel stage (the HE build) fills disjoint
  // rows with per-entry-identical arithmetic, so threads ∈ {1, 4} must
  // give equal digests for every registered method.
  PropConfig config;
  config.name = "per-method thread invariance";
  config.cases = 48;
  const PropResult r = check<MethodCase>(
      config, gen_method_case(), [](const MethodCase& c) {
        const esse::ObsSet obs = make_obs_for(c.pair);
        const std::string serial = esse::analysis_digest(esse::analyze(
            c.pair.forecast, c.pair.subspace, obs, options_for(c, 1)));
        const std::string threaded = esse::analysis_digest(esse::analyze(
            c.pair.forecast, c.pair.subspace, obs, options_for(c, 4)));
        return serial == threaded;
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(AnalysisMethods, AnalysisNeverHurtsForAnyMethod) {
  // The shared contract clause: no registered filter may inflate the
  // posterior trace above the prior, whatever the generated spectrum,
  // bias or method.
  PropConfig config;
  config.name = "analysis never hurts (per method)";
  config.cases = 80;
  const PropResult r = check<MethodCase>(
      config, gen_method_case(), [](const MethodCase& c) {
        const esse::ObsSet obs = make_obs_for(c.pair);
        const esse::AnalysisResult res = esse::analyze(
            c.pair.forecast, c.pair.subspace, obs, options_for(c));
        return res.posterior_trace <=
               res.prior_trace * (1.0 + 1e-9) + 1e-12;
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(AnalysisMethods, AdaptersHonorTheThreadOption) {
  // Regression for the adapter gap: the linear front end once dropped
  // AnalysisOptions::threads on the floor for the global path — every
  // call ran the HE build serially no matter what the caller asked for.
  // The "analysis.threads" gauge records the worker count actually
  // used, so it is the observable.
  Rng rng(0xad4f7e2ULL);
  const Gen<SurrogatePair> gen = gen_surrogate_pair(equivalence_opts());
  const SurrogatePair sp = gen.create(rng);
  const esse::ObsSet obs = make_obs_for(sp);
  ASSERT_GE(obs.size(), 3u);

  std::vector<esse::LinearObservation> linear;
  for (const esse::ObsEntry& e : obs.entries())
    linear.push_back({e.stencil, e.value, e.variance});

  telemetry::Sink sink("analysis-threads");
  esse::AnalysisOptions options;
  options.threads = obs.size();  // every worker gets at least one row
  options.sink = &sink;
  const esse::AnalysisResult threaded = esse::analyze(
      sp.forecast, sp.subspace, esse::ObsSet::from_linear(linear), options);
  EXPECT_EQ(sink.metrics().value("analysis.threads"),
            static_cast<double>(obs.size()))
      << "the linear front end ignored AnalysisOptions::threads";

  // And the parallel HE build is bitwise-equal to the serial one,
  // through both the linear adapter and the native ObsSet entry point.
  const esse::AnalysisResult serial = esse::analyze(
      sp.forecast, sp.subspace, esse::ObsSet::from_linear(linear), {});
  EXPECT_EQ(esse::analysis_digest(threaded), esse::analysis_digest(serial));
  esse::AnalysisOptions direct = options;
  direct.sink = nullptr;
  EXPECT_EQ(
      esse::analysis_digest(
          esse::analyze(sp.forecast, sp.subspace, obs, direct)),
      esse::analysis_digest(serial));
}

TEST(AnalysisMethods, MultiModelIsKalmanOnThePseudoAugmentedSet) {
  // The combiner is *defined* as subspace Kalman over the real
  // observations plus the surrogate's pseudo-observations — pin that
  // bitwise via with_pseudo_observations().
  PropConfig config;
  config.name = "multi-model ≡ Kalman on augmented set";
  config.cases = 48;
  const PropResult r = check<SurrogatePair>(
      config, gen_surrogate_pair(equivalence_opts()),
      [](const SurrogatePair& sp) {
        const esse::ObsSet obs = make_obs_for(sp);
        esse::AnalysisOptions mm;
        mm.method = esse::AnalysisMethod::kMultiModel;
        mm.surrogate = &sp.surrogate;
        const esse::ObsSet combined =
            esse::with_pseudo_observations(sp.subspace, obs, mm);
        if (combined.size() <= obs.size())
          throw std::runtime_error("no pseudo-observations appended");
        // Real observations come first, byte-for-byte.
        for (std::size_t i = 0; i < obs.size(); ++i) {
          if (combined.entry(i).stencil != obs.entry(i).stencil ||
              combined.entry(i).value != obs.entry(i).value ||
              combined.entry(i).variance != obs.entry(i).variance)
            throw std::runtime_error("real observations were reordered");
        }
        const std::string via_method =
            esse::analysis_digest(esse::analyze(
                sp.forecast, sp.subspace, obs, mm));
        const std::string via_set = esse::analysis_digest(
            esse::analyze(sp.forecast, sp.subspace, combined));
        return via_method == via_set;
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(AnalysisMethods, MultiModelTelemetryAndPreconditions) {
  Rng rng(0x5c0ffeeULL);
  const SurrogatePair sp = gen_surrogate_pair(equivalence_opts()).create(rng);
  const esse::ObsSet obs = make_obs_for(sp);

  esse::AnalysisOptions mm;
  mm.method = esse::AnalysisMethod::kMultiModel;
  EXPECT_THROW(esse::analyze(sp.forecast, sp.subspace, obs, mm),
               PreconditionError)
      << "kMultiModel without a surrogate must be rejected";

  mm.surrogate = &sp.surrogate;
  telemetry::Sink sink("multi-model");
  mm.sink = &sink;
  esse::analyze(sp.forecast, sp.subspace, obs, mm);
  EXPECT_EQ(sink.metrics().value("analysis.method.multi_model"), 1.0);
  EXPECT_EQ(sink.metrics().value("analysis.observations"),
            static_cast<double>(obs.size()));
  const esse::ObsSet combined =
      esse::with_pseudo_observations(sp.subspace, obs, mm);
  EXPECT_EQ(sink.metrics().value("analysis.pseudo_observations"),
            static_cast<double>(combined.size() - obs.size()));
}

TEST(AnalysisMethods, OracleCrossValidatesEveryMethod) {
  // The end-to-end cross-validation on a real seeded scenario:
  // tiled-vs-global collapse at an untapered radius, and never-hurts
  // both globally and under tight localization (DESIGN.md §16).
  for (const std::uint64_t seed : {7ULL, 21ULL}) {
    for (const esse::AnalysisMethod method :
         esse::analysis_method_registry()) {
      const AnalysisMethodReport report =
          run_analysis_method_oracle(seed, method);
      ASSERT_TRUE(report.ok) << report.detail;
      EXPECT_LE(report.posterior_trace,
                report.prior_trace * (1.0 + 1e-9) + 1e-12)
          << esse::to_string(method) << " seed " << seed;
    }
  }
}

TEST(AnalysisMethods, CycleAttachesAndSerializesTheSurrogate) {
  // A kMultiModel cycle must carry the coarse companion forecast in its
  // product — exactly the vector run_surrogate_forecast() produces — and
  // the serialized product grows a SURROGAT block only then, so default
  // runs keep emitting the historical bytes (the golden digest).
  ocean::Scenario sc = ocean::make_double_gyre_scenario(8, 8, 2);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 1.0, 4, 0.99, 4, /*seed=*/5);

  esse::CycleParams params;
  params.forecast_hours = 1.0;
  params.ensemble = {4, 2.0, 8};
  params.convergence = {0.90, 4};
  params.max_rank = 4;
  const esse::ForecastResult plain = esse::run_uncertainty_forecast(
      model, sc.initial, subspace, 0.0, params);
  EXPECT_FALSE(plain.surrogate_forecast.has_value());
  EXPECT_EQ(esse::serialize_forecast_product(plain).find("SURROGAT"),
            std::string::npos);

  params.analysis.method = esse::AnalysisMethod::kMultiModel;
  const esse::ForecastResult mm = esse::run_uncertainty_forecast(
      model, sc.initial, subspace, 0.0, params);
  ASSERT_TRUE(mm.surrogate_forecast.has_value());
  EXPECT_EQ(*mm.surrogate_forecast,
            esse::run_surrogate_forecast(model, sc.initial, 0.0,
                                         params.forecast_hours,
                                         params.analysis.surrogate_bias))
      << "the attached surrogate is not the canonical companion run";
  EXPECT_NE(esse::serialize_forecast_product(mm).find("SURROGAT"),
            std::string::npos);
  // The surrogate is part of the scientific product: same cycle, a
  // biased companion, a different digest.
  esse::CycleParams biased = params;
  biased.analysis.surrogate_bias = 0.25;
  const esse::ForecastResult mm_biased = esse::run_uncertainty_forecast(
      model, sc.initial, subspace, 0.0, biased);
  EXPECT_NE(esse::forecast_digest(mm_biased), esse::forecast_digest(mm));
}

TEST(AnalysisMethods, MethodGeneratorCoversRegistryAndShrinks) {
  const Gen<esse::AnalysisMethod> gen = gen_analysis_method();
  std::set<esse::AnalysisMethod> seen;
  Rng rng(0x9e37ULL);
  for (std::size_t i = 0; i < 64; ++i) seen.insert(gen.create(rng));
  EXPECT_EQ(seen.size(), esse::analysis_method_registry().size())
      << "64 draws should cover every registered method";

  const auto from_mm = gen.shrink(esse::AnalysisMethod::kMultiModel);
  ASSERT_FALSE(from_mm.empty());
  EXPECT_EQ(from_mm.front(), esse::AnalysisMethod::kSubspaceKalman);
  EXPECT_TRUE(gen.shrink(esse::AnalysisMethod::kSubspaceKalman).empty())
      << "the reference filter is the shrink fixed point";
  EXPECT_EQ(gen.describe(esse::AnalysisMethod::kMultiModel),
            "method multi_model");
}

TEST(AnalysisMethods, SurrogatePairGeneratorKeepsItsPromises) {
  const Gen<SurrogatePair> gen = gen_surrogate_pair(equivalence_opts(), 0.5);
  Rng rng(0x7a1eULL);
  for (std::size_t i = 0; i < 16; ++i) {
    const SurrogatePair sp = gen.create(rng);
    ASSERT_EQ(sp.truth.size(), sp.subspace.dim());
    ASSERT_EQ(sp.surrogate.size(), sp.subspace.dim());
    EXPECT_LE(std::abs(sp.bias), 0.5);
    // truth − forecast lies in the subspace span: projecting and
    // re-expanding the anomaly reproduces it.
    la::Vector anomaly(sp.truth.size());
    for (std::size_t j = 0; j < anomaly.size(); ++j)
      anomaly[j] = sp.truth[j] - sp.forecast[j];
    const la::Vector back =
        sp.subspace.expand(sp.subspace.project(anomaly));
    EXPECT_LE(rms_diff(back, anomaly), 1e-9)
        << "truth anomaly escaped the prior span";
    // surrogate = truth + uniform bias, element for element.
    for (std::size_t j = 0; j < sp.truth.size(); ++j)
      ASSERT_NEAR(sp.surrogate[j] - sp.truth[j], sp.bias, 1e-12);
  }

  // Shrinking heads toward the surrogate-equals-truth, rank-1 corner.
  const SurrogatePair sp = gen.create(rng);
  if (sp.bias != 0.0) {
    const auto cands = gen.shrink(sp);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(cands.front().bias, 0.0);
    EXPECT_EQ(cands.front().surrogate, cands.front().truth);
  }
}

TEST(AnalysisMethods, FalsifiedPropertyPrintsSeedReplayBanner) {
  // The harness contract the satellites lean on: a falsified per-method
  // property must hand back one ESSEX_PROP_SEED that replays the case,
  // and the counterexample description names the method after shrinking.
  PropConfig config;
  config.name = "always-false";
  config.cases = 3;
  const PropResult r = check<MethodCase>(
      config, gen_method_case(), [](const MethodCase&) { return false; });
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("ESSEX_PROP_SEED"), std::string::npos);
  EXPECT_NE(r.message.find("method "), std::string::npos);
  // Shrinking lands on the simplest failing combination: the reference
  // filter (everything fails, so the minimum shrinks all the way down).
  EXPECT_NE(r.message.find("method subspace_kalman"), std::string::npos);
}

}  // namespace
}  // namespace essex::testkit
