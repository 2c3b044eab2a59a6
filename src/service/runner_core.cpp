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

namespace essex::service {

namespace {

/// Teardown in the one legal order — resolve every member and cancel
/// live attempts, join the timer thread (no retry can launch after it),
/// then drain THIS request's tasks off the shared pool — on every exit
/// path, including exceptions thrown mid-loop. Without this guard a
/// throwing SVD would unwind the differ and condition variables while
/// member workers still reference them.
struct Teardown {
  mtc::FaultTolerantExecutor& exec;
  mtc::ThreadExecutionBackend& backend;
  bool done = false;

  void run() {
    if (done) return;
    done = true;
    exec.cancel_all();
    backend.shutdown_timers();
    backend.drain_tasks();
  }
  ~Teardown() { run(); }
};

}  // namespace

ExecOutcome execute_forecast(const workflow::ForecastRequest& request,
                             ThreadPool& pool, const ExecHooks& hooks) {
  const workflow::ParallelRunnerConfig& config = request.config;
  {
    const auto issues = workflow::validate(request);
    if (!issues.empty()) {
      throw PreconditionError(workflow::describe(issues));
    }
  }
  esse::CycleParams cp = config.cycle;
  telemetry::Sink* sink = request.sink;
  // The numerics stream their convergence samples into the same session
  // unless the caller routed them elsewhere explicitly.
  if (sink && !cp.sink) cp.sink = sink;

  const auto cancelled_now = [&hooks] {
    return hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
  };

  const ocean::OceanModel& model = request.model;
  const la::Vector packed_initial = request.initial.pack();
  ESSEX_REQUIRE(packed_initial.size() == request.subspace.dim(),
                "initial subspace does not match the state dimension");
  const double t0_hours = request.t0_hours;

  ExecOutcome outcome;
  if (cancelled_now()) {
    outcome.cancelled = true;
    return outcome;
  }

  // Central forecast first (also what the differ normalises against).
  la::Vector central;
  {
    telemetry::ScopedTimer timer(sink, "runner.central_s");
    central = esse::run_member(model, packed_initial, t0_hours,
                               cp.forecast_hours, false,
                               cp.perturbation.seed, 0);
  }

  esse::PerturbationGenerator pert(request.subspace, cp.perturbation);
  // Multilevel mode (DESIGN.md §15): coarse-level models and their
  // deterministic central forecasts are fixed up front, before any
  // member runs, so every coarse anomaly column is a pure function of
  // (seed, level, member id) — never of scheduling.
  const esse::MultilevelParams& mlp = cp.multilevel;
  std::optional<esse::MultilevelEnsemble> ml;
  if (mlp.enabled()) {
    telemetry::ScopedTimer timer(sink, "runner.ml_centrals_s");
    ml.emplace(model, mlp);
    ml->run_centrals(packed_initial, t0_hours, cp.forecast_hours);
  }
  // Localized requests shard the differ's column store by the analysis
  // tiling so forecast-stage reductions use the same fixed per-tile
  // shapes the tiled analysis does (DESIGN.md §14).
  std::shared_ptr<const ocean::Tiling> tiling;
  if (cp.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(model.grid(), cp.tiling);
  esse::Differ differ(central, tiling);
  differ.set_sink(sink);  // differ.* cache counters + check latency
  esse::ConvergenceTest conv(cp.convergence);
  esse::EnsembleSizeController sizer(cp.ensemble);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t resolved = 0;  // members with a final outcome

  esse::ForecastResult out;
  esse::MtcAccounting acct;
  std::size_t submitted = 0;

  // The member closure both Fig.-4 drivers share in shape: it runs one
  // attempt of one member; throwing reports TaskOutcome::kFailed and the
  // fault layer decides whether to resubmit.
  mtc::ThreadExecutionBackend backend(
      pool,
      [&](std::size_t id, std::size_t attempt,
          const std::atomic<bool>& cancelled) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        telemetry::ScopedTimer timer(sink, "runner.member_s");
        if (config.inject.segment.probability > 0.0) {
          // Deterministic per-(member, attempt) stream — mirrors the
          // per-job RNG keying of the DES failure injection.
          Rng inject_rng(config.inject.seed, (id << 20) | attempt);
          if (inject_rng.uniform() < config.inject.segment.probability) {
            throw std::runtime_error("injected member failure");
          }
        }
        la::Vector x0 = pert.perturbed_state(packed_initial, id);
        if (ml && id >= mlp.members_per_level[0]) {
          // Coarse member: the fine perturbed state restricts to the
          // member's level (restriction is linear, so the coarse IC is
          // the restricted central plus the restricted perturbation),
          // integrates on the level's model with the member's own RNG
          // stream, and lands as a prolongated, weight-scaled anomaly
          // about the level's central — global id keeps the canonical
          // (level, member) order and exactly-once resolution.
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
          // dedups a speculative duplicate; weight 1.0 (single-level)
          // is the exact historical path.
          differ.add_member(id, xf,
                            ml ? mlp.column_weight(0) : 1.0);
        }
        if (sink) sink->count("runner.members_run");
        // Wake the orchestrator. Notifying under `mu` orders this wakeup
        // after its predicate check, so it cannot be lost.
        std::lock_guard<std::mutex> lk(mu);
        cv.notify_all();
      });
  mtc::FaultTolerantExecutor exec(backend, config.fault, sink);
  exec.set_member_hook([&](std::size_t /*member*/, mtc::TaskOutcome) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++resolved;
    }
    cv.notify_all();
  });
  Teardown teardown{exec, backend};

  auto fill_pool = [&] {
    // A multilevel plan is its own pool: no speculative headroom (ids
    // beyond the plan have no level, and column weights are derived from
    // the planned counts).
    const std::size_t cap =
        ml ? mlp.total_members() : sizer.pool_target(config.pool_headroom);
    while (submitted < cap) exec.run_member(submitted++);
    if (sink) {
      sink->gauge_set("runner.pool_size", static_cast<double>(submitted));
      sink->event("runner.pool_size", telemetry::wall_seconds(),
                  static_cast<double>(submitted));
    }
    // Tell the service how many member workers this request can use so
    // the shared pool can stretch toward it (and hand slots back later).
    if (hooks.demand) hooks.demand(cap);
  };

  fill_pool();

  // Deterministic milestone schedule: convergence is checked at ensemble
  // sizes k·svd_min_new_members over the canonical member-id prefix
  // 0..c-1, never over "whatever happened to arrive first". The SVD
  // reads a contiguous_view() — the differ's versioned, copy-free safe
  // snapshot — which may cover several newly-completed milestones at
  // once; they are processed strictly in order, so the ρ history — and
  // the milestone that declares convergence — is a pure function of the
  // seed and configuration.
  std::size_t next_check = config.svd_min_new_members;
  for (;;) {
    // Wait for the next milestone's prefix, full resolution (done, or
    // lost after its retries), or a request-level cancel. The bounded
    // wait keeps cancellation responsive without a dedicated waker.
    std::size_t resolved_now;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk, std::chrono::milliseconds(50), [&] {
        return differ.contiguous_count() >= next_check ||
               resolved >= submitted || cancelled_now();
      });
      resolved_now = resolved;
    }
    if (cancelled_now()) {
      outcome.cancelled = true;
      teardown.run();
      return outcome;
    }
    // Cut after reading `resolved`: a drained pool's view then holds
    // every member that will ever land in this growth stage.
    const esse::AnomalyView view = differ.contiguous_view();
    while (next_check <= view.count() && !conv.converged()) {
      const std::size_t c = next_check;
      next_check += config.svd_min_new_members;
      if (c < 2) continue;  // spread needs two members
      ++acct.svd_runs;
      telemetry::ScopedTimer timer(sink, "runner.svd_s");
      const auto rho = conv.update(
          esse::subspace_from_view(view.prefix(c), cp.variance_fraction,
                                   cp.max_rank, nullptr, sink),
          c);
      if (sink && rho) {
        sink->event("runner.convergence", static_cast<double>(c), *rho);
      }
    }
    if (conv.converged()) break;  // §4.1: cancel the remaining members
    if (resolved_now >= submitted) {
      // Pool drained without convergence: grow toward Nmax or stop (the
      // multilevel mix is fixed — no growth stage to fall back on).
      if (ml || sizer.at_max()) break;
      sizer.grow();
      fill_pool();
    }
  }
  // Stop launching and cancel live attempts, let running workers land,
  // then join the timer thread — only after that is it safe for the
  // executor and its hooks to go out of scope.
  teardown.run();
  const mtc::FaultStats fstats = exec.stats();

  // Graceful degradation has a floor (FaultPolicy::min_members): proceed
  // with the survivors of a faulty run, but not below N′.
  const std::size_t floor_n =
      std::max<std::size_t>(1, config.fault.min_members);
  ESSEX_REQUIRE(differ.count() >= floor_n,
                "graceful degradation floor: fewer surviving members than "
                "FaultPolicy.min_members");
  out.central_forecast = std::move(central);
  out.converged = conv.converged();
  if (out.converged) {
    // The forecast subspace is the converged milestone's — never
    // recomputed later from the racy post-cancellation member set.
    out.members_run = conv.latest_members();
    out.forecast_subspace = conv.take_latest();
  } else {
    // Drained without convergence (Nmax reached, or survivors of a
    // faulty run): the forecast covers every absorbed member in
    // canonical member-id order — still schedule-free, because which
    // members completed is decided by the deterministic per-(member,
    // attempt) injection stream, not by timing. When the last milestone
    // already decomposed exactly that set (ids 0..count-1), its subspace
    // holds the same bytes, so it is taken instead of recomputed.
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
    // The coarse companion integration is one deterministic task, run
    // after the ensemble so cancellation semantics are untouched.
    telemetry::ScopedTimer timer(sink, "runner.surrogate_s");
    out.surrogate_forecast = esse::run_surrogate_forecast(
        model, request.initial, t0_hours, cp.forecast_hours, cp.analysis);
    if (sink) sink->count("runner.surrogate_runs");
  }
  static_cast<MemberLedger&>(acct) = fstats.ledger;
  acct.members_unused = acct.members_submitted - out.members_run;
  acct.attempts_failed = fstats.attempts_failed;
  acct.retries = fstats.retries;
  acct.speculative_launched = fstats.speculative_launched;
  acct.speculative_won = fstats.speculative_won;
  acct.degraded = out.converged && acct.members_lost > 0;
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
  outcome.result = std::move(out);
  return outcome;
}

}  // namespace essex::service
