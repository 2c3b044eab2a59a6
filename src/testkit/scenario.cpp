#include "testkit/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/repro.hpp"
#include "esse/verification.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "testkit/generators.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::testkit {

std::string to_string(BackendKind v) {
  return v == BackendKind::kSim ? "sim" : "thread";
}
std::string to_string(SchedulerKind v) {
  return v == SchedulerKind::kSgeLike ? "sge" : "condor";
}
std::string to_string(IoMode v) {
  return v == IoMode::kNfsDirect ? "nfs" : "prestage";
}
std::string to_string(FaultProfile v) {
  return v == FaultProfile::kNone ? "nofault" : "evict";
}
std::string to_string(EnsembleScale v) {
  return v == EnsembleScale::kSmall ? "small" : "medium";
}

std::string ScenarioSpec::name() const {
  return to_string(backend) + "-" + to_string(scheduler) + "-" +
         to_string(io) + "-" + to_string(fault) + "-" + to_string(scale);
}

std::vector<ScenarioSpec> scenario_matrix(std::uint64_t seed) {
  std::vector<ScenarioSpec> specs;
  specs.reserve(32);
  std::uint64_t cell = 0;
  for (auto backend : {BackendKind::kSim, BackendKind::kThread}) {
    for (auto sched : {SchedulerKind::kSgeLike, SchedulerKind::kCondorLike}) {
      for (auto io : {IoMode::kNfsDirect, IoMode::kPrestaged}) {
        for (auto fault : {FaultProfile::kNone, FaultProfile::kEvictionHeavy}) {
          for (auto scale : {EnsembleScale::kSmall, EnsembleScale::kMedium}) {
            ScenarioSpec s;
            s.backend = backend;
            s.scheduler = sched;
            s.io = io;
            s.fault = fault;
            s.scale = scale;
            s.seed = case_seed(seed, cell++);
            specs.push_back(s);
          }
        }
      }
    }
  }
  return specs;
}

bool ScenarioOutcome::ok() const {
  return std::all_of(oracles.begin(), oracles.end(),
                     [](const OracleCheck& c) { return c.ok; });
}

std::string ScenarioOutcome::failures(const ScenarioSpec& spec) const {
  std::ostringstream os;
  for (const auto& c : oracles) {
    if (c.ok) continue;
    os << "[" << spec.name() << "] oracle '" << c.name << "' failed: "
       << c.detail << " (reproduce: scenario seed=0x" << std::hex << spec.seed
       << std::dec << ")\n";
  }
  return os.str();
}

namespace {

/// A small homogeneous test cluster — enough cores that the pool runs
/// genuinely parallel, small enough that DES event counts stay trivial.
mtc::ClusterSpec make_test_cluster() {
  mtc::ClusterSpec cluster;
  cluster.name = "testkit";
  for (int i = 0; i < 10; ++i) {
    mtc::NodeSpec node;
    node.name = "tk" + std::to_string(i);
    node.cores = 2;
    node.cpu_speed = 1.0;
    cluster.nodes.push_back(node);
  }
  return cluster;
}

struct DesLeg {
  workflow::WorkflowMetrics metrics;
  std::vector<double> svd_sizes;
};

DesLeg run_des_leg(const ScenarioSpec& spec) {
  mtc::Simulator sim;
  mtc::SchedulerParams sp = spec.scheduler == SchedulerKind::kSgeLike
                                ? mtc::sge_params()
                                : mtc::condor_params();
  if (spec.fault == FaultProfile::kEvictionHeavy) {
    sp.faults.segment.probability = 0.08;
    sp.faults.outage.mtbf_s = 600.0;
    sp.faults.outage.duration_s = 120.0;
  }
  sp.faults.seed = spec.seed;

  telemetry::Sink sink("testkit-des");
  mtc::ClusterScheduler sched(sim, make_test_cluster(), sp);
  sched.set_telemetry(&sink);

  workflow::EsseWorkflowConfig cfg;
  cfg.staging = spec.io == IoMode::kNfsDirect ? mtc::InputStaging::kNfsDirect
                                              : mtc::InputStaging::kPrestageLocal;
  if (spec.scale == EnsembleScale::kSmall) {
    cfg.initial_members = 12;
    cfg.converge_at = 10;
    cfg.max_members = 24;
    cfg.svd_stride = 4;
  } else {
    // Medium crosses a pool-growth boundary before converging.
    cfg.initial_members = 24;
    cfg.converge_at = 40;
    cfg.max_members = 64;
    cfg.svd_stride = 8;
  }
  cfg.fault.seed = spec.seed ^ 0x9E3779B97F4A7C15ULL;
  cfg.sink = &sink;

  DesLeg leg;
  leg.metrics = workflow::run_parallel_esse(sim, sched, cfg);
  for (const auto& ev : sink.recorder().events()) {
    if (ev.name == "workflow.svd_run") leg.svd_sizes.push_back(ev.value);
  }
  return leg;
}

struct ScienceLeg {
  esse::ForecastResult result_a;  ///< threads = 1
  std::string digest_a;
  std::string digest_b;  ///< threads = 3, same seed/config
};

esse::ForecastResult run_science_forecast(const ScenarioSpec& spec,
                                          const ocean::OceanModel& model,
                                          const ocean::Scenario& sc,
                                          const esse::ErrorSubspace& subspace,
                                          std::size_t threads) {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 2.0;
  cfg.cycle.threads = threads;
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 6;
  cfg.cycle.perturbation.seed = spec.seed ^ 0xA5A5A5A5ULL;
  cfg.cycle.ensemble = spec.scale == EnsembleScale::kSmall
                           ? esse::EnsembleSizeController::Params{8, 2.0, 24}
                           : esse::EnsembleSizeController::Params{12, 2.0, 32};
  cfg.svd_min_new_members = 4;
  if (spec.fault == FaultProfile::kEvictionHeavy) {
    // Injected failures are keyed by (member, attempt) and the real
    // runner only retries, so the retry sequence is schedule-independent
    // and the digest oracle must still hold (DESIGN.md §10).
    cfg.inject_probability = 0.15;
    cfg.inject_seed = spec.seed ^ 0xFA017ULL;
  }
  return service::run_parallel_forecast(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg});
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  ScenarioOutcome out;

  // Leg 1: the DES execution model under the scenario's scheduler, I/O
  // staging and fault knobs.
  DesLeg des = run_des_leg(spec);
  out.des = des.metrics;
  out.des_svd_sizes = des.svd_sizes;

  // Leg 2: the real Fig.-4 runner on the double gyre, twice.
  ocean::Scenario sc = ocean::make_double_gyre_scenario(10, 8, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 6, spec.seed);
  out.science = run_science_forecast(spec, model, sc, subspace, 1);
  out.digest_a = esse::forecast_digest(out.science);
  out.digest_b =
      esse::forecast_digest(run_science_forecast(spec, model, sc, subspace, 3));

  // Oracle 1: member accounting conserves on the leg owning the
  // scenario's backend dimension.
  {
    OracleCheck c{"member-accounting", true, ""};
    const bool sim = spec.backend == BackendKind::kSim;
    const MemberLedger* ledger =
        sim ? static_cast<const MemberLedger*>(&out.des)
            : (out.science.mtc ? &*out.science.mtc : nullptr);
    if (!ledger) {
      c.ok = false;
      c.detail = "science leg carries no MTC accounting";
    } else if (!ledger->conserves()) {
      c.ok = false;
      c.detail = std::string(sim ? "DES" : "thread") +
                 " leg does not conserve: " + to_string(*ledger);
    }
    out.oracles.push_back(std::move(c));
  }

  // Oracle 2: the convergence milestone sequence is monotone — DES SVD
  // sizes never shrink, and the science ρ history is checked at strictly
  // increasing ensemble sizes.
  {
    OracleCheck c{"milestones-monotone", true, ""};
    std::ostringstream detail;
    for (std::size_t i = 1; i < out.des_svd_sizes.size(); ++i) {
      if (out.des_svd_sizes[i] < out.des_svd_sizes[i - 1]) {
        c.ok = false;
        detail << "DES SVD sizes decreased at run " << i << ": "
               << out.des_svd_sizes[i - 1] << " -> " << out.des_svd_sizes[i]
               << "; ";
        break;
      }
    }
    const auto& hist = out.science.convergence_history;
    for (std::size_t i = 1; i < hist.size(); ++i) {
      if (hist[i].n_members <= hist[i - 1].n_members) {
        c.ok = false;
        detail << "science milestones not strictly increasing at check " << i
               << ": n=" << hist[i - 1].n_members << " then n="
               << hist[i].n_members;
        break;
      }
    }
    c.detail = detail.str();
    out.oracles.push_back(std::move(c));
  }

  // Oracle 3: assimilating exact observations of a synthetic truth that
  // lies along the estimated error modes must not degrade the state
  // estimate — the ESSE update interpolates toward the truth inside the
  // subspace and leaves its complement untouched.
  {
    OracleCheck c{"analysis-improves", true, ""};
    std::ostringstream detail;
    const auto& fc = out.science;
    if (fc.forecast_subspace.empty()) {
      c.ok = false;
      detail << "forecast produced an empty subspace";
    } else {
      Rng truth_rng(spec.seed ^ 0x7272757468ULL);
      la::Vector truth = fc.central_forecast;
      const la::Vector displacement = fc.forecast_subspace.sample(truth_rng);
      for (std::size_t i = 0; i < truth.size(); ++i)
        truth[i] += displacement[i];

      ObsDomain domain;
      domain.x_hi_km = 55.0;
      domain.y_hi_km = 55.0;
      domain.depth_hi_m = 180.0;
      Rng obs_rng(spec.seed ^ 0x0b5e7ULL);
      obs::ObservationSet set =
          gen_observations(domain, 12, 24).create(obs_rng);
      obs::ObsOperator probe(sc.grid, set);
      const la::Vector at_truth = probe.apply(truth);
      for (std::size_t i = 0; i < set.size(); ++i) set[i].value = at_truth[i];
      obs::ObsOperator h(sc.grid, std::move(set));
      out.observations_used = h.count();
      const esse::ObsSet obs_set = esse::ObsSet::from_operator(h);

      out.forecast_rmse =
          esse::skill(fc.central_forecast, truth, fc.central_forecast).rmse;

      // The guaranteed invariant: with exact observations and a truth
      // error inside span(E), the update contracts the error in the
      // prior-precision metric — the posterior coefficients are
      // (I + Λ^{1/2}GΛ^{1/2})⁻¹ times the prior ones, a PSD shrinkage.
      // Euclidean RMSE is only *almost* monotone (the shrinkage operator
      // is not a Euclidean contraction when G and Λ do not commute), so
      // it gets a loose relative tolerance instead of an exact one.
      const auto weighted_error = [&](const la::Vector& state) {
        la::Vector err = state;
        for (std::size_t i = 0; i < err.size(); ++i) err[i] -= truth[i];
        const la::Vector coeffs = fc.forecast_subspace.project(err);
        const la::Vector& sig = fc.forecast_subspace.sigmas();
        double s = 0.0;
        for (std::size_t i = 0; i < coeffs.size(); ++i) {
          if (sig[i] > 0.0) s += (coeffs[i] / sig[i]) * (coeffs[i] / sig[i]);
        }
        return std::sqrt(s);
      };
      const double prior_metric = weighted_error(fc.central_forecast);

      // Cross-validate every registered filter on the same cell: the
      // clauses above are theorems for each of them. The multi-model
      // combiner's surrogate is the truth itself, so its pseudo-
      // observations are exact too and the same shrinkage argument
      // applies to the combined set.
      for (const esse::AnalysisMethod method :
           esse::analysis_method_registry()) {
        esse::AnalysisOptions options;
        options.method = method;
        options.grid = &sc.grid;
        if (method == esse::AnalysisMethod::kMultiModel)
          options.surrogate = &truth;
        const esse::AnalysisResult analysis = esse::analyze(
            fc.central_forecast, fc.forecast_subspace, obs_set, options);
        const double rmse =
            esse::skill(analysis.posterior_state, truth, fc.central_forecast)
                .rmse;
        if (method == esse::AnalysisMethod::kSubspaceKalman)
          out.analysis_rmse = rmse;  // the reported (reference) skill

        const double post_metric = weighted_error(analysis.posterior_state);
        if (post_metric > prior_metric * (1.0 + 1e-9) + 1e-12) {
          c.ok = false;
          detail << esse::to_string(method)
                 << ": precision-metric error grew: " << prior_metric
                 << " -> " << post_metric << " with " << h.count()
                 << " exact observations; ";
        }
        if (rmse > out.forecast_rmse * (1.0 + 1e-3)) {
          c.ok = false;
          detail << esse::to_string(method) << ": analysis RMSE " << rmse
                 << " worse than forecast RMSE " << out.forecast_rmse
                 << " with " << h.count() << " exact observations; ";
        }
        if (analysis.posterior_trace >
            analysis.prior_trace * (1.0 + 1e-9) + 1e-12) {
          c.ok = false;
          detail << esse::to_string(method) << ": posterior trace "
                 << analysis.posterior_trace << " exceeds prior trace "
                 << analysis.prior_trace << "; ";
        }
      }
    }
    c.detail = detail.str();
    out.oracles.push_back(std::move(c));
  }

  // Oracle 4: the science digest is thread-count invariant.
  {
    OracleCheck c{"digest-thread-invariant", true, ""};
    if (out.digest_a != out.digest_b) {
      c.ok = false;
      c.detail = "threads=1 digest " + out.digest_a +
                 " != threads=3 digest " + out.digest_b;
    }
    out.oracles.push_back(std::move(c));
  }

  return out;
}

}  // namespace essex::testkit
