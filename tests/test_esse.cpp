// Unit + property tests: the ESSE core — error subspace, similarity
// coefficient, perturbations, differ, convergence control, analysis step.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/analysis.hpp"
#include "esse/convergence.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "esse/perturbation.hpp"
#include "linalg/qr.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"
#include "obs/instruments.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"

namespace essex::esse {
namespace {

la::Matrix random_orthonormal(std::size_t m, std::size_t k, Rng& rng) {
  la::Matrix a(m, k);
  for (auto& x : a.data()) x = rng.normal();
  la::orthonormalize_columns(a);
  return a;
}

// ---- ErrorSubspace ----------------------------------------------------------

TEST(ErrorSubspace, ValidatesConstruction) {
  Rng rng(1);
  la::Matrix e = random_orthonormal(10, 3, rng);
  EXPECT_NO_THROW(ErrorSubspace(e, {3, 2, 1}));
  EXPECT_THROW(ErrorSubspace(e, {3, 2}), PreconditionError);
  EXPECT_THROW(ErrorSubspace(e, {1, 2, 3}), PreconditionError);  // ascending
  EXPECT_THROW(ErrorSubspace(e, {3, -1, 0}), PreconditionError);
}

TEST(ErrorSubspace, TotalVarianceAndFractions) {
  Rng rng(2);
  ErrorSubspace s(random_orthonormal(20, 3, rng), {2, 1, 1});
  EXPECT_DOUBLE_EQ(s.total_variance(), 6.0);
  EXPECT_NEAR(s.truncated(1).total_variance() / s.total_variance(),
              4.0 / 6.0, 1e-12);
  EXPECT_NEAR(s.truncated(3).total_variance() / s.total_variance(), 1.0,
              1e-12);
}

TEST(ErrorSubspace, FromSvdTruncatesByVarianceFraction) {
  Rng rng(3);
  la::Matrix u = random_orthonormal(30, 4, rng);
  la::Vector s{10, 1, 0.1, 0.01};
  // 10² dominates: 100 / 101.0101 ≈ 0.99 already.
  ErrorSubspace sub = ErrorSubspace::from_svd(u, s, 0.99);
  EXPECT_EQ(sub.rank(), 1u);
  ErrorSubspace all = ErrorSubspace::from_svd(u, s, 1.0);
  EXPECT_EQ(all.rank(), 4u);
  ErrorSubspace capped = ErrorSubspace::from_svd(u, s, 1.0, 2);
  EXPECT_EQ(capped.rank(), 2u);
}

TEST(ErrorSubspace, ProjectExpandRoundTripInSubspace) {
  Rng rng(4);
  ErrorSubspace s(random_orthonormal(25, 5, rng), {5, 4, 3, 2, 1});
  la::Vector coeffs{1, -2, 0.5, 0, 3};
  la::Vector x = s.expand(coeffs);
  la::Vector back = s.project(x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(back[i], coeffs[i], 1e-10);
}

TEST(ErrorSubspace, MarginalStddevMatchesExplicitCovariance) {
  Rng rng(5);
  const std::size_t m = 12, k = 3;
  la::Matrix e = random_orthonormal(m, k, rng);
  la::Vector sig{2, 1, 0.5};
  ErrorSubspace s(e, sig);
  la::Vector sd = s.marginal_stddev();
  for (std::size_t i = 0; i < m; ++i) {
    double pii = 0;
    for (std::size_t j = 0; j < k; ++j)
      pii += e(i, j) * e(i, j) * sig[j] * sig[j];
    EXPECT_NEAR(sd[i], std::sqrt(pii), 1e-12);
  }
}

TEST(ErrorSubspace, SamplesHaveRequestedCovariance) {
  Rng rng(6);
  const std::size_t m = 6;
  la::Matrix e = random_orthonormal(m, 2, rng);
  ErrorSubspace s(e, {3, 1});
  // Empirical total variance over many samples ≈ tr(P) = 10.
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    la::Vector x = s.sample(rng);
    for (double v : x) total += v * v;
  }
  EXPECT_NEAR(total / n, 10.0, 0.4);
}

TEST(ErrorSubspace, TruncatedKeepsLeadingModes) {
  Rng rng(7);
  ErrorSubspace s(random_orthonormal(15, 4, rng), {4, 3, 2, 1});
  ErrorSubspace t = s.truncated(2);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_DOUBLE_EQ(t.sigmas()[0], 4);
  EXPECT_DOUBLE_EQ(t.sigmas()[1], 3);
}

// ---- similarity ---------------------------------------------------------------

TEST(Similarity, IdenticalSubspacesScoreOne) {
  Rng rng(8);
  ErrorSubspace s(random_orthonormal(20, 4, rng), {4, 3, 2, 1});
  EXPECT_NEAR(subspace_similarity(s, s), 1.0, 1e-10);
}

TEST(Similarity, OrthogonalSubspacesScoreZero) {
  // Construct two disjoint coordinate subspaces.
  la::Matrix a(6, 2), b(6, 2);
  a(0, 0) = 1;
  a(1, 1) = 1;
  b(2, 0) = 1;
  b(3, 1) = 1;
  ErrorSubspace sa(a, {2, 1}), sb(b, {2, 1});
  EXPECT_NEAR(subspace_similarity(sa, sb), 0.0, 1e-12);
}

TEST(Similarity, SymmetricAndBounded) {
  Rng rng(9);
  ErrorSubspace a(random_orthonormal(30, 5, rng), {5, 4, 3, 2, 1});
  ErrorSubspace b(random_orthonormal(30, 3, rng), {3, 2, 1});
  const double ab = subspace_similarity(a, b);
  const double ba = subspace_similarity(b, a);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0 + 1e-12);
}

TEST(Similarity, DecaysWithRotation) {
  // Rotating one mode away from the other lowers similarity smoothly.
  la::Matrix base(4, 1);
  base(0, 0) = 1;
  ErrorSubspace sa(base, {1});
  double prev = 1.1;
  for (double angle : {0.0, 0.3, 0.6, 0.9, 1.2}) {
    la::Matrix rot(4, 1);
    rot(0, 0) = std::cos(angle);
    rot(1, 0) = std::sin(angle);
    ErrorSubspace sb(rot, {1});
    const double rho = subspace_similarity(sa, sb);
    EXPECT_LT(rho, prev);
    prev = rho;
  }
}

// ---- perturbations --------------------------------------------------------------

TEST(Perturbation, ReproducibleByIndexRegardlessOfOrder) {
  Rng rng(10);
  ErrorSubspace s(random_orthonormal(40, 5, rng), {5, 4, 3, 2, 1});
  PerturbationGenerator::Params p;
  p.seed = 99;
  PerturbationGenerator gen(s, p);
  la::Vector p7_first = gen.perturbation(7);
  la::Vector p3 = gen.perturbation(3);
  la::Vector p7_again = gen.perturbation(7);
  EXPECT_EQ(p7_first, p7_again);
  EXPECT_NE(p7_first, p3);
}

TEST(Perturbation, LiesInSubspaceWithoutWhiteNoise) {
  Rng rng(11);
  la::Matrix e = random_orthonormal(30, 3, rng);
  ErrorSubspace s(e, {3, 2, 1});
  PerturbationGenerator::Params p;
  p.white_noise = 0.0;
  PerturbationGenerator gen(s, p);
  la::Vector pert = gen.perturbation(0);
  // Residual after projecting onto the subspace must vanish.
  la::Vector coeffs = s.project(pert);
  la::Vector recon = s.expand(coeffs);
  EXPECT_NEAR(la::rms_diff(pert, recon), 0.0, 1e-10);
}

TEST(Perturbation, WhiteNoiseAddsTruncationTail) {
  Rng rng(12);
  la::Matrix e = random_orthonormal(30, 3, rng);
  ErrorSubspace s(e, {3, 2, 1});
  PerturbationGenerator::Params p;
  p.white_noise = 0.5;
  PerturbationGenerator gen(s, p);
  la::Vector pert = gen.perturbation(0);
  la::Vector recon = s.expand(s.project(pert));
  EXPECT_GT(la::rms_diff(pert, recon), 0.05);
}

TEST(Perturbation, EnsembleVarianceTracksSigmas) {
  Rng rng(13);
  const std::size_t m = 20;
  la::Matrix e = random_orthonormal(m, 2, rng);
  ErrorSubspace s(e, {2, 1});
  PerturbationGenerator gen(s, {});
  double total = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    la::Vector x = gen.perturbation(i);
    for (double v : x) total += v * v;
  }
  EXPECT_NEAR(total / n, 5.0, 0.35);  // tr(P) = 4 + 1
}

TEST(Perturbation, PerturbedStateAddsToCentral) {
  Rng rng(14);
  ErrorSubspace s(random_orthonormal(10, 2, rng), {1, 0.5});
  PerturbationGenerator gen(s, {});
  la::Vector central(10, 7.0);
  la::Vector x = gen.perturbed_state(central, 4);
  la::Vector pert = gen.perturbation(4);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(x[i], 7.0 + pert[i], 1e-12);
}

// ---- differ ----------------------------------------------------------------------

TEST(Differ, AcceptsAnyOrderRejectsDuplicates) {
  Differ d(la::Vector(5, 1.0));
  d.add_member(7, la::Vector(5, 2.0));
  d.add_member(2, la::Vector(5, 0.0));
  EXPECT_EQ(d.count(), 2u);
  EXPECT_THROW(d.add_member(7, la::Vector(5, 3.0)), PreconditionError);
  EXPECT_THROW(d.add_member(1, la::Vector(4, 0.0)), PreconditionError);
}

TEST(Differ, RejectsNonFiniteColumnsBeforeTheyReachTheStore) {
  Differ d(la::Vector(4, 1.0));
  d.add_member(0, la::Vector(4, 2.0));
  const std::uint64_t version = d.view().version;
  const la::Matrix gram = d.view().gram();
  la::Vector nan_forecast(4, 2.0);
  nan_forecast[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(d.add_member(1, nan_forecast), PreconditionError);
  la::Vector inf_anomaly(4, 0.5);
  inf_anomaly[0] = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(d.add_anomaly(1, inf_anomaly), PreconditionError);
  // A finite forecast scaled by a non-finite weight is just as poisonous.
  for (const double w : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(d.add_member(1, la::Vector(4, 3.0), w), PreconditionError);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.contiguous_count(), 1u);
  EXPECT_EQ(d.view().version, version);
  la::Matrix diff = d.view().gram();
  diff -= gram;
  EXPECT_EQ(diff.max_abs(), 0.0);
  // The id is still free: a finite retry of the member is absorbed.
  d.add_member(1, la::Vector(4, 3.0));
  EXPECT_EQ(d.count(), 2u);
}

TEST(Differ, SnapshotNormalisesBySqrtNm1) {
  Differ d(la::Vector(3, 0.0));
  d.add_member(0, {1, 0, 0});
  d.add_member(1, {0, 1, 0});
  la::Matrix a = d.view().materialize();
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_NEAR(a(0, 0), 1.0, 1e-12);  // /sqrt(1)
  d.add_member(2, {0, 0, 1});
  a = d.view().materialize();
  EXPECT_NEAR(a(0, 0), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(a.cols(), 3u);
}

TEST(Differ, SubspaceRecoversPlantedCovariance) {
  // Members drawn as central + coef * e where e is a fixed direction:
  // the dominant mode must align with e.
  Rng rng(15);
  const std::size_t m = 25;
  la::Vector e = rng.normals(m);
  la::scale(e, 1.0 / la::norm2(e));
  la::Vector central(m, 3.0);
  Differ d(central);
  for (std::size_t i = 0; i < 40; ++i) {
    la::Vector x = central;
    la::axpy(2.0 * rng.normal(), e, x);
    d.add_member(i, x);
  }
  ErrorSubspace sub = d.subspace(0.999);
  ASSERT_GE(sub.rank(), 1u);
  const double align = std::fabs(la::dot(sub.modes().col(0), e));
  EXPECT_GT(align, 0.999);
  EXPECT_NEAR(sub.sigmas()[0], 2.0, 0.5);
}

// ---- incremental Gram cache ------------------------------------------------------

// Full-recompute reference: exactly what the pre-incremental pipeline did
// at every check — a dense copy of the anomalies, from-scratch Gram SVD.
ErrorSubspace from_scratch_subspace(const Differ& d, double vf,
                                    std::size_t max_rank) {
  const la::ThinSvd svd =
      la::svd_thin(d.view().materialize(), la::SvdMethod::kGram);
  return ErrorSubspace::from_svd(svd.u, svd.s, vf, max_rank);
}

TEST(DifferIncremental, AgreesWithFromScratchAcrossInterleavedSequences) {
  Rng rng(31);
  const std::size_t m = 70;
  la::Vector central = rng.normals(m);
  Differ d(central);
  std::size_t id = 0;
  // Interleave add_member blocks with subspace checks, mixing truncation
  // settings, like the continuously-running convergence loop does.
  const std::size_t blocks[] = {2, 3, 5, 8, 13, 7};
  const double fractions[] = {0.9, 0.99, 1.0, 0.95, 0.999, 0.99};
  const std::size_t ranks[] = {0, 4, 0, 12, 3, 0};
  for (std::size_t b = 0; b < 6; ++b) {
    for (std::size_t k = 0; k < blocks[b]; ++k, ++id) {
      la::Vector x = central;
      for (auto& v : x) v += 0.7 * rng.normal();
      d.add_member(id, x);
    }
    ErrorSubspace inc = d.subspace(fractions[b], ranks[b]);
    ErrorSubspace full = from_scratch_subspace(d, fractions[b], ranks[b]);
    ASSERT_EQ(inc.rank(), full.rank());
    EXPECT_GE(subspace_similarity(inc, full), 1.0 - 1e-10);
  }
}

TEST(DifferIncremental, ParallelPathAgreesWithFromScratch) {
  Rng rng(32);
  const std::size_t m = 90;
  Differ d(la::Vector(m, 1.0));
  for (std::size_t i = 0; i < 40; ++i) {
    la::Vector x(m, 1.0);
    for (auto& v : x) v += rng.normal();
    d.add_member(i, x);
  }
  ThreadPool pool(3);
  ErrorSubspace inc = subspace_from_view(d.view(), 0.999, 0, &pool);
  ErrorSubspace full = from_scratch_subspace(d, 0.999, 0);
  EXPECT_GE(subspace_similarity(inc, full), 1.0 - 1e-10);
}

TEST(DifferIncremental, PrefixViewMatchesSmallerEnsemble) {
  Rng rng(33);
  const std::size_t m = 50;
  la::Vector central = rng.normals(m);
  Differ grown(central);
  Differ small(central);
  for (std::size_t i = 0; i < 24; ++i) {
    la::Vector x = central;
    for (auto& v : x) v += 0.5 * rng.normal();
    grown.add_member(i, x);
    if (i < 10) small.add_member(i, x);
  }
  // A 10-column prefix view of the grown differ must reproduce the
  // subspace of a differ that only ever saw those 10 members.
  ErrorSubspace via_prefix = subspace_from_view(grown.view(10), 0.99, 0);
  ErrorSubspace direct = small.subspace(0.99, 0);
  ASSERT_EQ(via_prefix.rank(), direct.rank());
  EXPECT_GE(subspace_similarity(via_prefix, direct), 1.0 - 1e-10);
}

TEST(DifferIncremental, ViewIsStableWhileDifferGrows) {
  Differ d(la::Vector(4, 0.0));
  d.add_member(0, {1, 0, 0, 0});
  d.add_member(1, {0, 1, 0, 0});
  const AnomalyView v = d.view();
  const std::uint64_t version_at_cut = d.view().version;
  d.add_member(2, {0, 0, 1, 0});
  EXPECT_EQ(v.count(), 2u);  // the prefix view never sees later appends
  EXPECT_EQ(v.version, version_at_cut);
  EXPECT_LT(v.version, d.view().version);
  const la::Matrix a = v.materialize();
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_NEAR(a(0, 0), 1.0, 1e-12);  // still normalised by √(2−1)
}

TEST(DifferIncremental, WideEnsembleFallsBackToDense) {
  // More members than state variables: n > m forces the dense path.
  Rng rng(35);
  const std::size_t m = 6;
  Differ d(la::Vector(m, 0.0));
  for (std::size_t i = 0; i < 15; ++i) d.add_member(i, rng.normals(m));
  ErrorSubspace inc = d.subspace(0.999, 0);
  ErrorSubspace full = from_scratch_subspace(d, 0.999, 0);
  EXPECT_GE(subspace_similarity(inc, full), 1.0 - 1e-10);
}

TEST(DifferIncremental, CachedGramMatchesExplicitProduct) {
  Rng rng(36);
  const std::size_t m = 30;
  Differ d(la::Vector(m, 0.0));
  for (std::size_t i = 0; i < 9; ++i) d.add_member(i, rng.normals(m));
  const AnomalyView v = d.view();
  const la::Matrix a = v.materialize();
  const la::Matrix explicit_gram = la::matmul_at_b(a, a);
  EXPECT_NEAR((v.gram() - explicit_gram).max_abs(), 0.0, 1e-12);
}

// ---- convergence -------------------------------------------------------------------

TEST(Convergence, ConvergesWhenSubspaceStopsRotating) {
  Rng rng(16);
  la::Matrix e = random_orthonormal(30, 4, rng);
  ErrorSubspace stable(e, {4, 3, 2, 1});
  ConvergenceTest::Params p;
  p.similarity_threshold = 0.97;
  p.min_members = 4;
  ConvergenceTest conv(p);
  EXPECT_FALSE(conv.update(stable, 2).has_value());  // below min_members
  EXPECT_FALSE(conv.update(stable, 8).has_value());  // first real sample
  auto rho = conv.update(stable, 16);
  ASSERT_TRUE(rho.has_value());
  EXPECT_NEAR(*rho, 1.0, 1e-9);
  EXPECT_TRUE(conv.converged());
  EXPECT_EQ(conv.history().size(), 1u);
}

TEST(Convergence, DoesNotConvergeWhileRotating) {
  Rng rng(17);
  ConvergenceTest conv({0.97, 2});
  ErrorSubspace a(random_orthonormal(30, 3, rng), {3, 2, 1});
  ErrorSubspace b(random_orthonormal(30, 3, rng), {3, 2, 1});
  conv.update(a, 4);
  auto rho = conv.update(b, 8);
  ASSERT_TRUE(rho.has_value());
  EXPECT_LT(*rho, 0.9);
  EXPECT_FALSE(conv.converged());
}

TEST(Convergence, KeepsTheLatestRecordedEstimate) {
  Rng rng(19);
  ConvergenceTest conv({0.97, 4});
  EXPECT_EQ(conv.latest_members(), 0u);
  EXPECT_THROW(conv.take_latest(), PreconditionError);
  ErrorSubspace a(random_orthonormal(20, 2, rng), {2, 1});
  ErrorSubspace b(random_orthonormal(20, 2, rng), {3, 1});
  const la::Matrix b_modes = b.modes();
  conv.update(a, 2);  // below min_members: not recorded
  EXPECT_EQ(conv.latest_members(), 0u);
  conv.update(a, 4);
  conv.update(std::move(b), 8);
  EXPECT_EQ(conv.latest_members(), 8u);

  const ErrorSubspace taken = conv.take_latest();
  EXPECT_EQ(taken.modes().data(), b_modes.data());
  EXPECT_THROW(conv.take_latest(), PreconditionError);
  // Sizes stay non-decreasing after a take; the next estimate starts over.
  EXPECT_THROW(conv.update(a, 4), PreconditionError);
  EXPECT_FALSE(conv.update(a, 12).has_value());
  EXPECT_EQ(conv.history().size(), 1u);
}

TEST(Convergence, RejectsShrinkingEnsembles) {
  Rng rng(18);
  ConvergenceTest conv({0.97, 2});
  ErrorSubspace a(random_orthonormal(10, 2, rng), {2, 1});
  conv.update(a, 8);
  EXPECT_THROW(conv.update(a, 4), PreconditionError);
}

TEST(SizeController, GrowsGeometricallyAndSaturates) {
  EnsembleSizeController c({16, 2.0, 100});
  EXPECT_EQ(c.target(), 16u);
  EXPECT_EQ(c.grow(), 32u);
  EXPECT_EQ(c.grow(), 64u);
  EXPECT_EQ(c.grow(), 100u);  // capped at Nmax
  EXPECT_EQ(c.grow(), 100u);
  EXPECT_TRUE(c.at_max());
}

TEST(SizeController, HugeGrowthSaturatesAtNmax) {
  // ceil(24 · growth) does not fit a size_t: grow() must saturate at Nmax
  // before the cast, not wrap to a small target.
  for (const double growth : {1e300, std::numeric_limits<double>::infinity()}) {
    EnsembleSizeController c({24, growth, 48});
    EXPECT_EQ(c.grow(), 48u) << growth;
    EXPECT_TRUE(c.at_max());
    EXPECT_EQ(c.grow(), 48u) << growth;
  }
}

TEST(SizeController, PoolTargetAppliesHeadroom) {
  EnsembleSizeController c({100, 2.0, 500});
  EXPECT_EQ(c.pool_target(1.25), 125u);
  EXPECT_EQ(c.pool_target(1.0), 100u);
  EnsembleSizeController tight({100, 2.0, 110});
  EXPECT_EQ(tight.pool_target(1.25), 110u);  // capped at Nmax
}

TEST(SizeController, ValidatesParams) {
  EXPECT_THROW(EnsembleSizeController({1, 2.0, 10}), PreconditionError);
  EXPECT_THROW(EnsembleSizeController({4, 1.0, 10}), PreconditionError);
  EXPECT_THROW(EnsembleSizeController({10, 2.0, 4}), PreconditionError);
}

// ---- analysis (DA step) --------------------------------------------------------------

struct AnalysisFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(20, 16, 4));
  }
  std::unique_ptr<ocean::Scenario> sc;

  ErrorSubspace make_subspace(std::size_t k, Rng& rng) const {
    const std::size_t dim = ocean::OceanState::packed_size(sc->grid);
    la::Matrix e = random_orthonormal(dim, k, rng);
    la::Vector sig(k);
    for (std::size_t j = 0; j < k; ++j)
      sig[j] = 1.0 / static_cast<double>(j + 1);
    return ErrorSubspace(e, sig);
  }
};

TEST_F(AnalysisFixture, ReducesInnovationAndVariance) {
  Rng rng(20);
  ErrorSubspace sub = make_subspace(6, rng);
  la::Vector forecast = sc->initial.pack();
  // Observations from a shifted "truth" along the first mode.
  la::Vector truth = forecast;
  la::axpy(0.8, sub.modes().col(0), truth);
  ocean::OceanState truth_state(sc->grid);
  truth_state.unpack(truth, sc->grid);
  Rng obs_rng(21);
  obs::ObservationSet set =
      obs::sst_swath(sc->grid, truth_state, 2, 0.0, 0.05, obs_rng);
  obs::ObsOperator h(sc->grid, set);

  AnalysisResult res = analyze(forecast, sub, ObsSet::from_operator(h));
  EXPECT_LT(res.posterior_innovation_rms, res.prior_innovation_rms);
  EXPECT_LT(res.posterior_trace, res.prior_trace);
  EXPECT_GT(res.posterior_trace, 0.0);
}

TEST_F(AnalysisFixture, MovesStateTowardTruth) {
  Rng rng(22);
  ErrorSubspace sub = make_subspace(4, rng);
  la::Vector forecast = sc->initial.pack();
  la::Vector truth = forecast;
  la::axpy(0.5, sub.modes().col(0), truth);
  la::axpy(-0.3, sub.modes().col(1), truth);
  ocean::OceanState truth_state(sc->grid);
  truth_state.unpack(truth, sc->grid);
  Rng obs_rng(23);
  auto set = obs::sst_swath(sc->grid, truth_state, 2, 0.0, 0.02, obs_rng);
  obs::ObsOperator h(sc->grid, set);
  AnalysisResult res = analyze(forecast, sub, ObsSet::from_operator(h));
  EXPECT_LT(la::rms_diff(res.posterior_state, truth),
            la::rms_diff(forecast, truth));
}

TEST_F(AnalysisFixture, PosteriorSubspaceStaysOrthonormal) {
  Rng rng(24);
  ErrorSubspace sub = make_subspace(5, rng);
  ocean::OceanState truth_state = sc->initial;
  Rng obs_rng(25);
  auto set = obs::sst_swath(sc->grid, truth_state, 3, 0.0, 0.1, obs_rng);
  obs::ObsOperator h(sc->grid, set);
  AnalysisResult res =
      analyze(sc->initial.pack(), sub, ObsSet::from_operator(h));
  const la::Matrix& e = res.posterior_subspace.modes();
  la::Matrix ete = la::matmul_at_b(e, e);
  for (std::size_t i = 0; i < ete.rows(); ++i)
    for (std::size_t j = 0; j < ete.cols(); ++j)
      EXPECT_NEAR(ete(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST_F(AnalysisFixture, PerfectObsDominateWeakPrior) {
  // With tiny observation noise, the analysis should fit the data.
  Rng rng(26);
  ErrorSubspace sub = make_subspace(3, rng);
  la::Vector forecast = sc->initial.pack();
  la::Vector truth = forecast;
  la::axpy(1.0, sub.modes().col(0), truth);
  ocean::OceanState truth_state(sc->grid);
  truth_state.unpack(truth, sc->grid);
  Rng obs_rng(27);
  auto set = obs::sst_swath(sc->grid, truth_state, 2, 0.0, 1e-4, obs_rng);
  obs::ObsOperator h(sc->grid, set);
  AnalysisResult res = analyze(forecast, sub, ObsSet::from_operator(h));
  EXPECT_LT(res.posterior_innovation_rms, 0.05 * res.prior_innovation_rms);
}

TEST_F(AnalysisFixture, ValidatesInputs) {
  Rng rng(28);
  ErrorSubspace sub = make_subspace(2, rng);
  obs::ObsOperator empty_h(sc->grid, {});
  EXPECT_THROW(analyze(sc->initial.pack(), sub, ObsSet::from_operator(empty_h)),
               PreconditionError);
  Rng obs_rng(29);
  auto set = obs::sst_swath(sc->grid, sc->initial, 4, 0.0, 0.1, obs_rng);
  obs::ObsOperator h(sc->grid, set);
  EXPECT_THROW(analyze(la::Vector(3), sub, ObsSet::from_operator(h)),
               PreconditionError);
}

TEST_F(AnalysisFixture, RejectsNonFiniteObservationsOnEveryPath) {
  Rng rng(30);
  ErrorSubspace sub = make_subspace(3, rng);
  const la::Vector forecast = sc->initial.pack();
  Rng obs_rng(31);
  auto set = obs::sst_swath(sc->grid, sc->initial, 4, 0.0, 0.1, obs_rng);
  const ObsSet clean = ObsSet::from_operator(obs::ObsOperator(sc->grid, set));
  ASSERT_TRUE(clean.entry(0).positioned);

  AnalysisOptions global;
  AnalysisOptions tiled;
  tiled.localization.enabled = true;
  tiled.localization.radius_km = 30.0;
  tiled.grid = &sc->grid;
  AnalysisOptions multi_model;
  multi_model.method = AnalysisMethod::kMultiModel;
  multi_model.surrogate = &forecast;
  for (const AnalysisOptions* opts : {&global, &tiled, &multi_model})
    ASSERT_NO_THROW(analyze(forecast, sub, clean, *opts));

  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<void (*)(ObsEntry&)> corruptions = {
      [](ObsEntry& e) { e.value = nan; },
      [](ObsEntry& e) { e.value = inf; },
      [](ObsEntry& e) { e.value = -inf; },
      [](ObsEntry& e) { e.stencil.front().second = nan; },
      [](ObsEntry& e) { e.variance = inf; },
      [](ObsEntry& e) { e.variance = 0.0; },
      [](ObsEntry& e) { e.x_km = nan; },
      [](ObsEntry& e) { e.y_km = -inf; },
  };
  for (std::size_t c = 0; c < corruptions.size(); ++c) {
    std::vector<ObsEntry> entries = clean.entries();
    corruptions[c](entries[entries.size() / 2]);
    const ObsSet bad(std::move(entries));
    for (const AnalysisOptions* opts : {&global, &tiled, &multi_model})
      EXPECT_THROW(analyze(forecast, sub, bad, *opts), PreconditionError)
          << "corruption " << c << ", method " << to_string(opts->method)
          << (opts->localization.enabled ? " (tiled)" : "");
  }
}

}  // namespace
}  // namespace essex::esse
