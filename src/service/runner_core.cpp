#include "service/runner_core.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/execution_backend.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::service {

namespace {

/// The real member work: members integrate and absorb on pool workers; a
/// check decomposes the canonical member-id prefix 0..c-1 (never
/// "whatever arrived first") on the orchestrating thread, so the ρ
/// history and the deciding milestone are pure functions of the seed and
/// configuration (DESIGN.md §10).
class RealMemberWork final : public workflow::MemberWork {
 public:
  RealMemberWork(mtc::ThreadExecutionBackend& backend, esse::Differ& differ,
                 esse::ConvergenceTest& conv, const esse::CycleParams& cp,
                 telemetry::Sink* sink, const ExecHooks& hooks)
      : backend_(backend), differ_(differ), conv_(conv), cp_(cp),
        sink_(sink), hooks_(hooks) {}

  std::size_t milestone_count() const override {
    return differ_.contiguous_count();
  }
  std::size_t absorbed() const override { return differ_.count(); }

  std::optional<bool> check(std::size_t c) override {
    // A spread needs two members, and ConvergenceTest::update records
    // nothing below min_members: skip the decomposition it would discard.
    if (c < std::max<std::size_t>(2, conv_.params().min_members))
      return false;
    ++svd_runs;
    telemetry::ScopedTimer timer(sink_, "runner.svd_s");
    // The differ's copy-free snapshot: prefix(c) is the same bytes
    // however late it is cut.
    const auto rho = conv_.update(
        esse::subspace_from_view(differ_.contiguous_view().prefix(c),
                                 cp_.variance_fraction, cp_.max_rank,
                                 nullptr, sink_),
        c);
    if (sink_ && rho) {
      sink_->event("runner.convergence", static_cast<double>(c), *rho);
    }
    return conv_.converged();
  }

  void wake() override {
    std::lock_guard<std::mutex> lk(mu_);
    ++wakes_;
    cv_.notify_all();
  }

  void pool_changed(const workflow::EnsemblePool& pool, bool) override {
    const auto cap = static_cast<double>(pool.cap());
    if (sink_) {
      sink_->gauge_set("runner.pool_size", cap);
      sink_->event("runner.pool_size", telemetry::wall_seconds(), cap);
    }
    // The service stretches the shared pool toward this request's want.
    if (hooks_.demand) hooks_.demand(pool.cap());
  }

  void finished() override {
    // Drain THIS request's tasks off the shared pool: only then may the
    // executor and the differ go out of scope. A retry is submitted by
    // the worker whose attempt failed, before that attempt retires, so
    // the drain covers it too.
    backend_.drain_tasks();
  }

  /// Wait for a wake() since the last wait; false once the request is
  /// cancelled. The bounded wait keeps cancellation responsive.
  bool wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(50),
                 [&] { return wakes_ != seen_ || hooks_.cancelled(); });
    seen_ = wakes_;
    return !hooks_.cancelled();
  }

  std::size_t svd_runs = 0;

 private:
  mtc::ThreadExecutionBackend& backend_;
  esse::Differ& differ_;
  esse::ConvergenceTest& conv_;
  const esse::CycleParams& cp_;
  telemetry::Sink* sink_;
  const ExecHooks& hooks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t wakes_ = 0;
  std::size_t seen_ = 0;
};

}  // namespace

std::optional<esse::ForecastResult> execute_forecast(
    const workflow::ForecastRequest& request, ThreadPool& pool,
    const ExecHooks& hooks) {
  const workflow::ParallelRunnerConfig& config = request.config;
  if (const auto issues = workflow::validate(request); !issues.empty())
    throw PreconditionError(workflow::describe(issues));
  esse::CycleParams cp = config.cycle;
  telemetry::Sink* sink = request.sink;
  if (sink && !cp.sink) cp.sink = sink;  // unless routed elsewhere

  const ocean::OceanModel& model = request.model;
  const la::Vector packed_initial = request.initial.pack();
  ESSEX_REQUIRE(packed_initial.size() == request.subspace.dim(),
                "initial subspace does not match the state dimension");
  const double t0_hours = request.t0_hours;

  if (hooks.cancelled()) return std::nullopt;

  // Central forecast first (also what the differ normalises against).
  la::Vector central;
  {
    telemetry::ScopedTimer timer(sink, "runner.central_s");
    central = esse::run_member(model, packed_initial, t0_hours,
                               cp.forecast_hours, false,
                               cp.perturbation.seed, 0);
  }

  esse::PerturbationGenerator pert(request.subspace, cp.perturbation);
  // Multilevel mode (DESIGN.md §15): coarse models and centrals are fixed
  // before any member runs, so a coarse anomaly column is a pure function
  // of (seed, level, member id), never of scheduling.
  const esse::MultilevelParams& mlp = cp.multilevel;
  std::optional<esse::MultilevelEnsemble> ml;
  if (mlp.enabled()) {
    telemetry::ScopedTimer timer(sink, "runner.ml_centrals_s");
    ml.emplace(model, mlp);
    ml->run_centrals(packed_initial, t0_hours, cp.forecast_hours);
  }
  // Localized requests shard the differ's store by the analysis tiling
  // (DESIGN.md §14).
  std::shared_ptr<const ocean::Tiling> tiling;
  if (cp.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(model.grid(), cp.tiling);
  esse::Differ differ(central, tiling);
  differ.set_sink(sink);  // differ.* cache counters + check latency
  esse::ConvergenceTest conv(cp.convergence);

  // The member closure: it runs one attempt of one member; throwing
  // reports TaskOutcome::kFailed and the fault layer decides whether to
  // resubmit.
  mtc::ThreadExecutionBackend backend(
      pool,
      [&](std::size_t id, std::size_t attempt,
          const std::atomic<bool>& cancelled) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        telemetry::ScopedTimer timer(sink, "runner.member_s");
        if (config.inject_probability > 0.0) {
          // Deterministic per-(member, attempt) stream — mirrors the
          // per-job RNG keying of the DES failure injection.
          Rng inject_rng(config.inject_seed, (id << 20) | attempt);
          if (inject_rng.uniform() < config.inject_probability) {
            throw std::runtime_error("injected member failure");
          }
        }
        la::Vector x0 = pert.perturbed_state(packed_initial, id);
        if (ml && id >= mlp.members_per_level[0]) {
          // Coarse member: the perturbed state restricts (linearly) to
          // the member's level, integrates there on its own RNG stream,
          // and lands as a prolongated, weight-scaled anomaly about the
          // level's central; the global id keeps the canonical order.
          const std::size_t level = mlp.level_of(id);
          la::Vector x0c = ml->hierarchy().restrict_state(x0, level);
          la::Vector xfc = esse::run_member(
              ml->model(level), x0c, t0_hours, cp.forecast_hours,
              cp.stochastic_members, cp.perturbation.seed, id);
          if (cancelled.load(std::memory_order_relaxed)) return;
          if (config.arrival_hook) config.arrival_hook(id);
          differ.add_anomaly(id, ml->fine_anomaly(level, xfc));
          if (sink) sink->count("runner.ml_coarse_members");
        } else {
          la::Vector xf = esse::run_member(model, x0, t0_hours,
                                           cp.forecast_hours,
                                           cp.stochastic_members,
                                           cp.perturbation.seed, id);
          if (cancelled.load(std::memory_order_relaxed)) return;
          if (config.arrival_hook) config.arrival_hook(id);
          differ.add_member(id, xf, ml ? mlp.column_weight(0) : 1.0);
        }
        if (sink) sink->count("runner.members_run");
      });
  RealMemberWork work(backend, differ, conv, cp, sink, hooks);
  // A failed attempt is retried at once, so the retry sequence is a pure
  // function of the (member, attempt) fates, never of scheduling
  // (DESIGN.md §10).
  const mtc::FaultPolicy retry_only{.max_retries = config.max_retries,
                                    .backoff_base_s = 0.0,
                                    .backoff_jitter = 0.0,
                                    .timeout_multiple = 0.0,
                                    .speculate = false};
  // A multilevel plan is its own pool: ids beyond it have no level.
  workflow::EnsembleOrchestrator orch(
      backend, work,
      {workflow::EnsemblePool(cp.ensemble, config.pool_headroom,
                              ml ? mlp.total_members() : 0),
       config.svd_min_new_members, workflow::CancelPolicy::kCancelImmediately,
       retry_only, sink});
  orch.start();
  while (!orch.finished()) {
    if (!work.wait()) {
      orch.finish();
      return std::nullopt;
    }
    orch.pump();
  }

  // Graceful degradation has a floor N′: a forecast may use fewer
  // members than planned, but a spread needs two survivors.
  constexpr std::size_t kMinSurvivors = 2;
  ESSEX_REQUIRE(differ.count() >= kMinSurvivors,
                "graceful degradation floor: fewer than two surviving "
                "members");
  esse::ForecastResult out;
  out.central_forecast = std::move(central);
  out.converged = conv.converged();
  if (out.converged) {
    // The deciding milestone's subspace, never the racy
    // post-cancellation member set.
    out.members_run = conv.latest_members();
    out.forecast_subspace = conv.take_latest();
  } else {
    // Drained without convergence: every absorbed member in canonical id
    // order — schedule-free, as which members survive is decided by the
    // per-(member, attempt) injection stream. When the last milestone
    // decomposed exactly that set, its subspace is the same bytes.
    out.members_run = differ.count();
    if (conv.latest_members() == differ.count() &&
        differ.contiguous_count() == differ.count()) {
      out.forecast_subspace = conv.take_latest();
    } else {
      out.forecast_subspace =
          esse::subspace_from_view(differ.view(), cp.variance_fraction,
                                   cp.max_rank, nullptr, sink);
    }
  }
  out.convergence_history = conv.history();
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    // One deterministic task after the ensemble, outside cancellation.
    telemetry::ScopedTimer timer(sink, "runner.surrogate_s");
    out.surrogate_forecast =
        esse::run_surrogate_forecast(model, request.initial, t0_hours,
                                     cp.forecast_hours,
                                     cp.analysis.surrogate_bias);
    if (sink) sink->count("runner.surrogate_runs");
  }
  esse::MtcAccounting acct;
  static_cast<MemberTally&>(acct) = orch.tally();
  acct.members_unused = acct.members_submitted - out.members_run;
  acct.svd_runs = work.svd_runs;
  if (sink) {
    sink->count("runner.members_submitted",
                static_cast<double>(acct.members_submitted));
    sink->count("runner.members_cancelled",
                static_cast<double>(acct.members_unused));
    sink->count("runner.svd_runs", static_cast<double>(acct.svd_runs));
    sink->count("runner.members_retried",
                static_cast<double>(acct.retries));
    sink->count("runner.members_lost",
                static_cast<double>(acct.members_lost));
    sink->gauge_set("runner.converged", out.converged ? 1.0 : 0.0);
    sink->gauge_set("runner.degraded", acct.degraded ? 1.0 : 0.0);
  }
  out.mtc = acct;
  return out;
}

}  // namespace essex::service
