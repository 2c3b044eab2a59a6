// End-to-end benchmark of the ESSE forecast service (see README.md).
//
// Drives the real-thread service::ForecastService — submit → forecast →
// analysed product — on one of three workloads, and measures every layer
// from outside by timing calls into its public functions:
//
//   essex_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 is the timed run: request and service sinks are null, set-up
// is repeated and its median reported, and the last stdout line is the
// JSON result with the end-to-end metrics. --trace 1 is the layer run: a
// one-thread replay of the workload's first request through the Fig.-4
// layer functions (also the single-thread baseline and a bitwise check
// of the service result), then the same request stream untraced and
// traced, back to back; the last line carries the per-layer metrics.
// Every run checks its outputs and exits 1 if any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/repro.hpp"
#include "linalg/simd.hpp"
#include "metrics.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/timeline.hpp"

namespace {

using namespace essex;
using perfbench::Interval;
using perfbench::percentile;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool monterey;  ///< Monterey domain, else the double gyre
  std::size_t nx, ny, nz;
  double horizon_h;
  esse::EnsembleSizeController::Params ensemble;
  esse::ConvergenceTest::Params convergence;
  std::size_t max_rank;
  double white_noise;
  bool localized;  ///< tiled analysis + tile-sharded differ
  // Nowcast bootstrap: samples × spin-up hours, rank cap, sigma inflation.
  std::size_t boot_samples;
  double boot_spinup_h;
  std::size_t boot_rank;
  double boot_inflate;
  bool dense_sst;  ///< add an every-point SST swath to the campaign
  std::size_t max_inflight;
  /// Cores kept free of member workers. The request's orchestrator thread
  /// runs the SVD chain while members run; where that chain is the
  /// critical path it gets a core of its own instead of time slices.
  std::size_t reserved_cores;
  std::size_t seed_pool;  ///< distinct perturbation seeds, recycled
  std::size_t rate_per_s;  ///< open-loop arrivals per second; 0 = closed loop
  double service_s_per_h; ///< timeline hours → service-clock seconds

  bool open_loop() const { return rate_per_s > 0; }
};

// The open-loop arrival rate is fixed here (and in BENCHMARK.json's
// workload description), never recalibrated at run time.
const Workload kWorkloads[] = {
    {.name = "monterey_48h", .monterey = true,
     .nx = 48, .ny = 40, .nz = 6, .horizon_h = 48.0,
     .ensemble = {32, 2.0, 32}, .convergence = {0.97, 28}, .max_rank = 24,
     .white_noise = 0.01, .localized = false, .boot_samples = 24,
     .boot_spinup_h = 24.0, .boot_rank = 20, .boot_inflate = 1.0,
     .dense_sst = false, .max_inflight = 1, .reserved_cores = 0,
     .seed_pool = 3, .rate_per_s = 0, .service_s_per_h = 5.0},
    {.name = "large_localized", .monterey = true,
     .nx = 120, .ny = 100, .nz = 5, .horizon_h = 1.0,
     .ensemble = {24, 2.0, 48}, .convergence = {0.97, 16}, .max_rank = 24,
     .white_noise = 0.01, .localized = true, .boot_samples = 16,
     .boot_spinup_h = 2.0, .boot_rank = 16, .boot_inflate = 1.0,
     .dense_sst = true, .max_inflight = 1, .reserved_cores = 1,
     .seed_pool = 2, .rate_per_s = 0, .service_s_per_h = 20.0},
    {.name = "gyre_stream", .monterey = false,
     .nx = 24, .ny = 20, .nz = 4, .horizon_h = 12.0,
     .ensemble = {20, 2.0, 20}, .convergence = {0.97, 16}, .max_rank = 16,
     .white_noise = 0.0, .localized = false, .boot_samples = 16,
     .boot_spinup_h = 12.0, .boot_rank = 12, .boot_inflate = 5.0,
     .dense_sst = false, .max_inflight = 2, .reserved_cores = 0,
     .seed_pool = 4, .rate_per_s = 4, .service_s_per_h = 2.0},
};

/// Open-loop validity bound: a run whose generator fell further behind
/// its schedule than this measured the generator, not the service.
constexpr double kMaxGeneratorLagS = 0.1;

std::size_t worker_cap() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The member pool's ceiling: every core but the workload's reserved ones.
std::size_t member_workers(const Workload& w) {
  return worker_cap() > w.reserved_cores ? worker_cap() - w.reserved_cores
                                         : 1;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Set-up: scenario, model, nowcast subspace, observation campaign, service

struct Setup {
  explicit Setup(ocean::Scenario scenario) : sc(std::move(scenario)) {}

  ocean::Scenario sc;
  std::unique_ptr<ocean::OceanModel> model;
  std::optional<esse::ErrorSubspace> nowcast;
  esse::ObsSet obs;
  std::unique_ptr<service::ForecastService> svc;
};

service::ServiceConfig service_config(const Workload& w,
                                      telemetry::Sink* sink) {
  service::ServiceConfig cfg;
  cfg.min_workers = 1;
  cfg.max_workers = member_workers(w);
  cfg.max_inflight = w.max_inflight;
  cfg.elastic = true;
  cfg.sink = sink;
  return cfg;
}

std::unique_ptr<Setup> make_setup(const Workload& w) {
  auto s = std::make_unique<Setup>(
      w.monterey ? ocean::make_monterey_scenario(w.nx, w.ny, w.nz)
                 : ocean::make_double_gyre_scenario(w.nx, w.ny, w.nz));
  s->model = std::make_unique<ocean::OceanModel>(
      s->sc.grid, s->sc.params, ocean::WindForcing(s->sc.wind),
      s->sc.initial);
  const esse::ErrorSubspace raw = esse::bootstrap_subspace(
      *s->model, s->sc.initial, 0.0, w.boot_spinup_h, w.boot_samples, 0.99,
      w.boot_rank, /*seed=*/2003, worker_cap());
  la::Vector sig = raw.sigmas();
  for (auto& x : sig) x *= w.boot_inflate;
  s->nowcast.emplace(raw.modes(), sig);

  // Identical-twin truth at the forecast horizon, sampled by the campaign.
  ocean::OceanState truth = s->sc.initial;
  Rng truth_rng(2003, 1);
  s->model->run(truth, 0.0, w.horizon_h, &truth_rng);
  Rng obs_rng(9);
  obs::ObservationSet campaign;
  if (w.monterey) {
    campaign = obs::aosn_campaign(s->sc.grid, truth, obs_rng);
  } else {
    for (double frac : {0.25, 0.5, 0.75}) {
      const auto& g = s->sc.grid;
      auto cast = obs::ctd_cast(g, truth, frac * g.dx_km() * (g.nx() - 1),
                                0.5 * g.dy_km() * (g.ny() - 1), 0.05, 0.02,
                                obs_rng);
      campaign.insert(campaign.end(), cast.begin(), cast.end());
    }
  }
  if (w.dense_sst) {
    auto swath = obs::sst_swath(s->sc.grid, truth, 1, 0.0, 0.3, obs_rng);
    campaign.insert(campaign.end(), swath.begin(), swath.end());
  }
  s->obs = esse::ObsSet::from_operator(
      obs::ObsOperator(s->sc.grid, std::move(campaign)));
  s->svc = std::make_unique<service::ForecastService>(
      service_config(w, nullptr));
  return s;
}

// ---------------------------------------------------------------------------
// Requests

struct RequestPlan {
  std::size_t seed_index = 0;
  std::uint64_t pert_seed = 0;
  int priority = 0;
  std::optional<std::size_t> procedure;  ///< timeline procedure → deadline
  double due_s = 0.0;  ///< open loop: offset from the window start
};

/// The workload's request stream, a pure function of the workload seed:
/// perturbation seeds drawn from a small recycled pool (so same-seed
/// requests meet in one run), priorities 0–2, two thirds with deadlines,
/// and — open loop — Poisson due times. A closed loop gets more plans
/// than any window can serve.
std::vector<RequestPlan> plan_requests(const Workload& w, std::uint64_t seed,
                                       double window_s) {
  std::size_t count = 10000;
  Rng rng(seed, 0xB3);
  // Open loop: Poisson arrivals conditioned on exactly `rate_per_s` of them
  // in every one-second slot (uniform times within the slot), so every run
  // offers the same load and burstiness beyond one second does not depend
  // on the seed.
  std::vector<double> due;
  if (w.open_loop()) {
    const auto slots = static_cast<std::size_t>(window_s);
    for (std::size_t k = 0; k < slots; ++k) {
      const std::size_t first = due.size();
      for (std::size_t i = 0; i < w.rate_per_s; ++i)
        due.push_back(static_cast<double>(k) + rng.uniform());
      std::sort(due.begin() + static_cast<std::ptrdiff_t>(first), due.end());
    }
    count = due.size();
  }
  std::vector<RequestPlan> plans(count);
  for (std::size_t i = 0; i < count; ++i) {
    RequestPlan& p = plans[i];
    if (w.open_loop()) p.due_s = due[i];
    p.seed_index = i % w.seed_pool;
    p.pert_seed = mix_seed(seed, p.seed_index);
    p.priority = static_cast<int>(rng.uniform_index(3));
    if (rng.uniform() < 2.0 / 3.0) p.procedure = rng.uniform_index(3);
  }
  return plans;
}

workflow::ForecastTimeline make_timeline() {
  // Forecaster windows of 1.5 h, 2.5 h and 4 h (paper Fig. 1's τ_k).
  workflow::ForecastTimeline tl(0.0, 72.0);
  tl.add_procedure({6.0, 7.5, 0.0, 24.0});
  tl.add_procedure({12.0, 14.5, 6.0, 36.0});
  tl.add_procedure({18.0, 22.0, 12.0, 48.0});
  return tl;
}

workflow::ForecastRequest make_forecast(const Workload& w, const Setup& s,
                                        std::uint64_t pert_seed,
                                        telemetry::Sink* sink) {
  workflow::ForecastRequest req{*s.model, s.sc.initial, *s.nowcast};
  esse::CycleParams& cp = req.config.cycle;
  cp.forecast_hours = w.horizon_h;
  cp.ensemble = w.ensemble;
  cp.convergence = w.convergence;
  cp.max_rank = w.max_rank;
  cp.perturbation.white_noise = w.white_noise;
  cp.perturbation.seed = pert_seed;
  if (w.localized) {
    cp.localization = {true, 30.0};
    cp.tiling = {8, 8, 2};
  }
  req.sink = sink;
  return req;
}

esse::AnalysisOptions analysis_options(const Workload& w, const Setup& s,
                                       std::size_t threads) {
  esse::AnalysisOptions o;
  o.threads = threads;
  if (w.localized) {
    o.localization = {true, 30.0};
    o.tiling = {8, 8, 2};
    o.grid = &s.sc.grid;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Output checks

bool all_finite(const la::Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// The first failed check of a forecast and its analysis, empty when all
/// pass: every value finite, and analysis never raises the error variance.
std::string check_numerics(const esse::ForecastResult& fr,
                           const esse::AnalysisResult& an) {
  if (!all_finite(fr.central_forecast) ||
      !all_finite(fr.forecast_subspace.sigmas()))
    return "non-finite forecast";
  if (!all_finite(an.posterior_state) || !std::isfinite(an.prior_trace) ||
      !std::isfinite(an.posterior_trace) ||
      !std::isfinite(an.prior_innovation_rms) ||
      !std::isfinite(an.posterior_innovation_rms))
    return "non-finite analysis";
  if (!(an.posterior_trace <= an.prior_trace))
    return "posterior trace exceeds prior trace";
  return {};
}

/// Executor accounting: every submitted member ends done, cancelled or
/// lost, exactly once.
std::string check_conservation(const esse::ForecastResult& fr) {
  if (!fr.mtc) return "missing MTC accounting";
  const esse::MtcAccounting& m = *fr.mtc;
  if (m.members_done + m.members_cancelled_final + m.members_lost !=
      m.members_submitted)
    return "MTC accounting does not conserve members";
  return {};
}

// ---------------------------------------------------------------------------
// One window of service traffic

struct Outcome {
  std::size_t seed_index = 0;
  bool ok = false;    ///< kDone and every check passed
  std::string error;  ///< why not ok
  bool has_deadline = false;
  bool deadline_met = false;
  double latency_s = 0.0;  ///< due (closed loop: submit) → kDone
  double product_s = 0.0;  ///< due → analyze() returned
  double lag_s = 0.0;
  std::size_t members_run = 0;
  std::string digest;
  std::string analysis_digest;
};

struct Window {
  std::vector<Outcome> outcomes;
  double busy_s = 0.0;  ///< wall-clock the members_per_s rate is over
  service::ServiceStats stats;
};

class Client {
 public:
  Client(const Workload& w, const Setup& s, std::uint64_t seed)
      : w_(w), s_(s), seed_(seed), timeline_(make_timeline()) {}

  /// Run the request stream on `svc` for `window_s` seconds. `sink`
  /// (nullable) goes on every request and receives the benchmark's own
  /// submit/wait/analyze spans.
  Window run(service::ForecastService& svc, double window_s,
             telemetry::Sink* sink) const {
    Window win;
    if (w_.open_loop()) {
      run_open(svc, window_s, sink, win);
    } else {
      run_closed(svc, window_s, sink, win);
    }
    svc.drain();
    win.stats = svc.stats();
    return win;
  }

 private:
  /// A submitted request and the times its latency is measured from.
  struct InFlight {
    std::size_t index = 0;  ///< position in the plan
    service::ForecastHandle handle;
    double due = 0.0, submitted = 0.0, done = 0.0;  ///< steady clock
    double deadline = std::numeric_limits<double>::infinity();  ///< service
    double done_service = 0.0;  ///< service clock at completion
  };

  InFlight submit(service::ForecastService& svc,
                  const std::vector<RequestPlan>& plans, std::size_t i,
                  double due, telemetry::Sink* sink) const {
    const RequestPlan& p = plans[i];
    InFlight f;
    f.index = i;
    f.due = due;
    f.submitted = now_s();
    if (p.procedure) {
      f.deadline = service::deadline_from_timeline(
          timeline_, *p.procedure, svc.now_s() - (f.submitted - due),
          w_.service_s_per_h);
    }
    const double b = telemetry::wall_seconds();
    f.handle = svc.submit({make_forecast(w_, s_, p.pert_seed, sink),
                           p.priority, f.deadline, 0.0, w_.name});
    span(sink, "bench.submit", b);
    return f;
  }

  static void mark_done(InFlight& f, const service::ForecastService& svc) {
    f.done = now_s();
    f.done_service = svc.now_s();
  }

  /// Analyse and check one terminal request.
  Outcome finish(const std::vector<RequestPlan>& plans, InFlight& f,
                 telemetry::Sink* sink) const {
    Outcome o;
    o.seed_index = plans[f.index].seed_index;
    o.has_deadline = plans[f.index].procedure.has_value();
    const perfbench::RequestTiming timing{f.due, f.submitted, f.done};
    o.lag_s = timing.generator_lag_s();
    o.latency_s = timing.latency_s();
    const service::RequestState st = f.handle.state();
    if (st != service::RequestState::kDone) {
      o.error = "request ended " + service::to_string(st);
      if (st == service::RequestState::kRejected)
        o.error += ": " + f.handle.rejection().message;
      return o;
    }
    esse::ForecastResult fr = f.handle.take_result();
    const double b = telemetry::wall_seconds();
    const esse::AnalysisResult an =
        esse::analyze(fr.central_forecast, fr.forecast_subspace, s_.obs,
                      analysis_options(w_, s_, worker_cap()));
    span(sink, "bench.analyze", b);
    o.product_s = now_s() - f.due;
    o.deadline_met = o.has_deadline && f.done_service <= f.deadline;
    o.members_run = fr.members_run;
    for (std::string bad : {check_numerics(fr, an), check_conservation(fr)}) {
      if (!bad.empty()) {
        o.error = std::move(bad);
        return o;
      }
    }
    o.digest = esse::forecast_digest(fr);
    o.analysis_digest = esse::analysis_digest(an);
    o.ok = true;
    return o;
  }

  static void span(telemetry::Sink* sink, const char* name, double begin) {
    if (!sink) return;
    const auto id = sink->recorder().begin_span(name, begin);
    sink->recorder().end_span(id, telemetry::wall_seconds());
  }

  void run_closed(service::ForecastService& svc, double window_s,
                  telemetry::Sink* sink, Window& win) const {
    const auto plans = plan_requests(w_, seed_, window_s);
    const double t0 = now_s();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (i > 0 && now_s() - t0 >= window_s) break;
      InFlight f = submit(svc, plans, i, now_s(), sink);
      const double b = telemetry::wall_seconds();
      f.handle.wait();
      span(sink, "bench.wait", b);
      mark_done(f, svc);
      win.outcomes.push_back(finish(plans, f, sink));
      // The rate excludes the benchmark's own digest and output checks.
      win.busy_s += win.outcomes.back().ok ? win.outcomes.back().product_s
                                           : now_s() - f.due;
    }
  }

  void run_open(service::ForecastService& svc, double window_s,
                telemetry::Sink* sink, Window& win) const {
    const auto plans = plan_requests(w_, seed_, window_s);
    std::vector<Outcome> outcomes(plans.size());
    std::mutex mu;  // guards pending and generating
    std::vector<InFlight> pending;
    bool generating = true;
    const double t0 = now_s();
    {
      // One collector stamps each completion within a poll period of the
      // handle turning terminal, whatever order requests finish in, then
      // analyses and checks it; the generator thread only submits.
      std::jthread collector([&] {
        for (;;) {
          std::vector<InFlight> ready;
          {
            std::lock_guard<std::mutex> lk(mu);
            for (auto it = pending.begin(); it != pending.end();) {
              if (it->handle.done()) {
                mark_done(*it, svc);
                ready.push_back(std::move(*it));
                it = pending.erase(it);
              } else {
                ++it;
              }
            }
            if (ready.empty() && pending.empty() && !generating) return;
          }
          for (InFlight& f : ready) outcomes[f.index] = finish(plans, f, sink);
          if (ready.empty())
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
      for (std::size_t i = 0; i < plans.size(); ++i) {
        const double due = t0 + plans[i].due_s;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, due - now_s())));
        InFlight f = submit(svc, plans, i, due, sink);
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back(std::move(f));
      }
      std::lock_guard<std::mutex> lk(mu);
      generating = false;
    }  // joins the collector
    win.busy_s = now_s() - t0;
    win.outcomes = std::move(outcomes);
  }

  const Workload& w_;
  const Setup& s_;
  std::uint64_t seed_;
  workflow::ForecastTimeline timeline_;
};

// ---------------------------------------------------------------------------
// One-thread replay of one request through the public layer functions

struct LayerClock {
  double busy_s = 0.0;
  std::size_t calls = 0;
  template <typename F>
  auto time(F&& body) {
    const double t0 = now_s();
    struct Stop {
      LayerClock& c;
      double t0;
      ~Stop() {
        c.busy_s += now_s() - t0;
        ++c.calls;
      }
    } stop{*this, t0};
    return body();
  }
};

struct Replay {
  double wall_s = 0.0;
  LayerClock ocean, perturbation, differ, svd, analysis;
  double ocean_central_s = 0.0;
  std::size_t ocean_steps = 0;
  double svd_last_ms = 0.0;
  std::size_t convergence_checks = 0;
  std::size_t members_at_decision = 0;
  std::size_t members = 0;
  double gram_cols_computed = 0.0, gram_cols_reused = 0.0;
  std::size_t analysis_obs = 0, analysis_tiles = 0;
  std::string digest, analysis_digest;
  std::string check;  ///< first failed output check, empty when all pass

  double layers_s() const {
    return ocean.busy_s + perturbation.busy_s + differ.busy_s + svd.busy_s +
           analysis.busy_s;
  }
};

/// Replays service::execute_forecast's Fig.-4 sequence for one request on
/// the calling thread: central and member OceanModel::run, perturbed
/// states, Differ::add_member, and at each svd_min_new_members milestone
/// contiguous_view().prefix(c) → subspace_from_view → ConvergenceTest::
/// update, growing the pool exactly as the service would; then analyze().
Replay replay(const Workload& w, const Setup& s,
              const workflow::ForecastRequest& req) {
  Replay r;
  telemetry::Sink layer_sink("replay");
  const esse::CycleParams& cp = req.config.cycle;
  const ocean::Grid3D& grid = s.model->grid();
  const double t0 = now_s();

  const la::Vector packed = req.initial.pack();
  const auto run_model = [&](const la::Vector& x0, Rng* rng) {
    return r.ocean.time([&] {
      ocean::OceanState st(grid);
      st.unpack(x0, grid);
      r.ocean_steps += s.model->run(st, req.t0_hours, cp.forecast_hours, rng);
      return st.pack();
    });
  };
  la::Vector central = run_model(packed, nullptr);
  r.ocean_central_s = r.ocean.busy_s;

  const esse::PerturbationGenerator pert(req.subspace, cp.perturbation);
  std::shared_ptr<const ocean::Tiling> tiling;
  if (cp.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(grid, cp.tiling);
  esse::Differ differ(central, tiling);
  differ.set_sink(&layer_sink);
  esse::ConvergenceTest conv(cp.convergence);
  esse::EnsembleSizeController sizer(cp.ensemble);
  const std::size_t stride = req.config.svd_min_new_members;
  const auto pool_cap = [&] {
    const auto m = static_cast<std::size_t>(std::ceil(
        static_cast<double>(sizer.target()) * req.config.pool_headroom));
    return std::max(sizer.target(), std::min(m, cp.ensemble.max_members));
  };

  std::optional<esse::ErrorSubspace> converged_sub;
  std::size_t cap = pool_cap();
  for (std::size_t id = 0;; ++id) {
    if (id == cap) {
      if (sizer.at_max()) break;
      sizer.grow();
      cap = pool_cap();
    }
    const la::Vector x0 =
        r.perturbation.time([&] { return pert.perturbed_state(packed, id); });
    std::optional<Rng> rng;
    if (cp.stochastic_members) rng.emplace(cp.perturbation.seed ^ 0xA5A5A5A5ULL,
                                           id + 1);
    const la::Vector xf = run_model(x0, rng ? &*rng : nullptr);
    r.differ.time([&] { differ.add_member(id, xf); });
    const std::size_t c = id + 1;
    if (c % stride != 0 || c < 2) continue;
    const double ts = now_s();
    esse::ErrorSubspace sub = r.svd.time([&] {
      esse::ErrorSubspace milestone = esse::subspace_from_view(
          differ.contiguous_view().prefix(c), cp.variance_fraction,
          cp.max_rank, nullptr, &layer_sink);
      conv.update(milestone, c);
      return milestone;
    });
    r.svd_last_ms = 1e3 * (now_s() - ts);
    ++r.convergence_checks;
    if (conv.converged()) {
      converged_sub = std::move(sub);
      r.members_at_decision = c;
      break;
    }
  }
  esse::ForecastResult fr;
  fr.central_forecast = std::move(central);
  if (converged_sub) {
    fr.forecast_subspace = std::move(*converged_sub);
    fr.members_run = r.members_at_decision;
  } else {
    fr.forecast_subspace = r.svd.time([&] {
      return esse::subspace_from_view(differ.view(), cp.variance_fraction,
                                      cp.max_rank, nullptr, &layer_sink);
    });
    fr.members_run = differ.count();
    r.members_at_decision = fr.members_run;
  }
  fr.converged = conv.converged();
  fr.convergence_history = conv.history();
  r.members = differ.count();

  const esse::AnalysisOptions opts = analysis_options(w, s, 1);
  const esse::AnalysisResult an = r.analysis.time([&] {
    return esse::analyze(fr.central_forecast, fr.forecast_subspace, s.obs,
                         opts);
  });
  r.wall_s = now_s() - t0;

  const auto& reg = layer_sink.metrics();
  r.gram_cols_computed = reg.value("differ.gram_cols_computed");
  r.gram_cols_reused = reg.has("differ.gram_cols_reused")
                           ? reg.value("differ.gram_cols_reused")
                           : 0.0;
  r.analysis_obs = s.obs.size();
  r.analysis_tiles = tiling ? tiling->tile_count() : 1;
  r.digest = esse::forecast_digest(fr);
  r.analysis_digest = esse::analysis_digest(an);
  r.check = check_numerics(fr, an);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_of(const std::vector<double>& xs) {
  return percentile(xs, 0.5).value;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// End-to-end metrics of one untraced window.
std::vector<Metric> end_to_end(const Workload& w, const Window& win,
                               double setup_s) {
  std::vector<double> lat, prod;
  double members = 0.0;
  std::size_t with_deadline = 0, met = 0;
  for (const Outcome& o : win.outcomes) {
    if (o.has_deadline) {
      ++with_deadline;
      if (o.ok && o.deadline_met) ++met;
    }
    if (!o.ok) continue;
    lat.push_back(o.latency_s);
    prod.push_back(o.product_s);
    members += static_cast<double>(o.members_run);
  }
  if (!w.open_loop()) {
    std::printf("requests (seed index: members, latency s):");
    for (const Outcome& o : win.outcomes)
      std::printf(" %zu:%zu,%.3f", o.seed_index, o.members_run, o.latency_s);
    std::printf("\n");
  }
  // Printed, not gated: with several allocating threads glibc keeps
  // per-thread arenas whose retained pages make the peak bimodal.
  std::printf("peak_rss_mb %.1f MB\n", peak_rss_mb());
  const auto p50 = percentile(lat, 0.5);
  const auto p90 = percentile(lat, 0.90);
  const auto p95 = percentile(lat, 0.95);
  std::printf("latency samples %zu: p50 %.4f s (%zu beyond), p90 %.4f s "
              "(%zu beyond), p95 %.4f s (%zu beyond, %s)\n",
              p50.n, p50.value, p50.beyond, p90.value, p90.beyond, p95.value,
              p95.beyond,
              p95.meets_rule() ? "meets the 10-beyond rule" : "thin tail");
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_s", p50.value, "s"},
      {"latency_p90_s", p90.value, "s"},
      {"product_p50_s", median_of(prod), "s"},
      {"members_per_s", win.busy_s > 0 ? members / win.busy_s : 0.0, "1/s"},
      {"deadline_met_frac",
       with_deadline ? static_cast<double>(met) /
                           static_cast<double>(with_deadline)
                     : 1.0,
       "fraction"},
  };
}

double max_lag(const Window& win) {
  double m = 0.0;
  for (const Outcome& o : win.outcomes) m = std::max(m, o.lag_s);
  return m;
}

/// Gather a window's failures into `errors`: failed requests, same-seed
/// requests that disagree (the DESIGN.md §10 contract under real
/// concurrency), and an open-loop generator that fell behind its schedule.
void collect(const Workload& w, const Window& win,
             std::vector<std::string>& errors) {
  std::map<std::size_t, const Outcome*> first;
  for (const Outcome& o : win.outcomes) {
    if (!o.ok) {
      errors.push_back(o.error);
      continue;
    }
    const auto [it, fresh] = first.emplace(o.seed_index, &o);
    if (!fresh && (it->second->digest != o.digest ||
                   it->second->analysis_digest != o.analysis_digest))
      errors.push_back("same-seed requests disagree (seed index " +
                       std::to_string(o.seed_index) + ")");
  }
  if (w.open_loop() && max_lag(win) > kMaxGeneratorLagS)
    errors.push_back("open-loop run invalid: generator lag " +
                     num(max_lag(win)) + " s exceeds the bound");
}

void print_table(const std::vector<Metric>& ms, const char* title) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// The layer run: (b) a one-thread replay of the workload's first
/// request, then (a) the same request stream untraced and traced, back to
/// back, sharing what is left of the `seconds` budget (a closed loop
/// always serves at least one request per half).
std::vector<Metric> traced_run(const Workload& w, Setup& setup,
                               double setup_s, std::uint64_t seed,
                               double seconds,
                               std::size_t& attempted,
                               std::vector<std::string>& errors) {
  const double t_start = now_s();
  const Replay rp =
      replay(w, setup, make_forecast(w, setup, mix_seed(seed, 0), nullptr));
  std::printf("replay: wall %.4f s, %zu members, digest %s\n", rp.wall_s,
              rp.members, rp.digest.c_str());
  ++attempted;
  if (!rp.check.empty()) errors.push_back("replay: " + rp.check);

  const double half = std::max(0.0, seconds - (now_s() - t_start)) / 2.0;
  const Client client(w, setup, seed);
  const Window plain = client.run(*setup.svc, half, nullptr);
  telemetry::Sink sink("perfbench");
  service::ForecastService traced_svc(service_config(w, &sink));
  const Window traced = client.run(traced_svc, half, &sink);

  for (const Window* win : {&plain, &traced}) {
    attempted += win->outcomes.size();
    collect(w, *win, errors);
    for (const Outcome& o : win->outcomes) {
      if (o.ok && o.seed_index == 0 &&
          (o.digest != rp.digest || o.analysis_digest != rp.analysis_digest))
        errors.push_back("replay digest differs from the service result");
    }
  }
  print_table(end_to_end(w, plain, setup_s), "end-to-end (untraced half):");

  const auto& reg = sink.metrics();
  const auto hist = [&](const char* name) -> const telemetry::Histogram* {
    return reg.has(name) ? &reg.histogram_at(name) : nullptr;
  };
  std::vector<double> first_seed_lat, plain_lat, traced_lat;
  for (const Outcome& o : plain.outcomes) {
    if (!o.ok) continue;
    plain_lat.push_back(o.latency_s);
    if (o.seed_index == 0) first_seed_lat.push_back(o.latency_s);
  }
  for (const Outcome& o : traced.outcomes)
    if (o.ok) traced_lat.push_back(o.latency_s);
  // Runner counters are summed over the traced requests; report them
  // per request.
  const double per_req = 1.0 / std::max<double>(1.0, traced_lat.size());
  const auto counter = [&](const char* name) {
    return reg.has(name) ? reg.value(name) : 0.0;
  };

  // service.orchestration_self_s: each request span minus the union of
  // the runner spans inside it. Spans carry no request id, so on the open
  // loop concurrent requests' children overlap (a lower bound there).
  std::vector<Interval> requests, children;
  for (const telemetry::Span& sp : sink.recorder().spans()) {
    if (sp.end < sp.begin) continue;
    if (sp.name == "service.request_s") {
      requests.emplace_back(sp.begin, sp.end);
    } else if (sp.name.rfind("runner.", 0) == 0) {
      children.emplace_back(sp.begin, sp.end);
    }
  }
  double self_total = 0.0;
  for (const Interval& rq : requests)
    self_total += perfbench::self_time(rq, children);

  const double member_replay_s =
      (rp.ocean.busy_s - rp.ocean_central_s + rp.perturbation.busy_s +
       rp.differ.busy_s) /
      static_cast<double>(std::max<std::size_t>(rp.members, 1));
  const auto* member_h = hist("runner.member_s");
  const double member_p50 = member_h ? member_h->quantile(0.5) : 0.0;
  const auto* qwait = hist("service.queue_wait_s");
  const auto* svd_h = hist("runner.svd_s");
  const double forecast_wall = median_of(first_seed_lat);
  const double plain_p50 = median_of(plain_lat);
  const double cells = static_cast<double>(setup.sc.grid.points());
  const service::ServiceStats& st = traced.stats;
  const double submitted = counter("runner.members_submitted");

  std::vector<Metric> report = {
    {"replay.wall_s", rp.wall_s, "s"},
    {"ocean.busy_s", rp.ocean.busy_s, "s"},
    {"ocean.steps", static_cast<double>(rp.ocean_steps), "count"},
    {"ocean.ns_per_point_step",
     1e9 * rp.ocean.busy_s /
         std::max(1.0, static_cast<double>(rp.ocean_steps) * cells),
     "ns"},
    {"ocean.central_s", rp.ocean_central_s, "s"},
    {"perturbation.busy_s", rp.perturbation.busy_s, "s"},
    {"perturbation.calls", static_cast<double>(rp.perturbation.calls),
     "count"},
    {"differ.absorb_busy_s", rp.differ.busy_s, "s"},
    {"differ.absorbs", static_cast<double>(rp.differ.calls), "count"},
    {"differ.gram_cols_computed", rp.gram_cols_computed, "count"},
    {"differ.gram_cols_reused", rp.gram_cols_reused, "count"},
    {"differ.bytes_computed",
     rp.gram_cols_computed * 8.0 *
         static_cast<double>(setup.nowcast->dim()),
     "B"},
    {"svd.busy_s", rp.svd.busy_s, "s"},
    {"svd.calls", static_cast<double>(rp.svd.calls), "count"},
    {"svd.last_ms", rp.svd_last_ms, "ms"},
    {"svd.runner_s",
     svd_h ? per_req * svd_h->sum() : 0.0,
     "s"},
    {"convergence.checks", static_cast<double>(rp.convergence_checks),
     "count"},
    {"convergence.members_at_decision",
     static_cast<double>(rp.members_at_decision), "count"},
    {"analysis.busy_s", rp.analysis.busy_s, "s"},
    {"analysis.obs", static_cast<double>(rp.analysis_obs), "count"},
    {"analysis.tiles", static_cast<double>(rp.analysis_tiles), "count"},
    {"mtc.members_submitted", per_req * submitted, "count"},
    {"mtc.members_cancelled", per_req * counter("runner.members_cancelled"),
     "count"},
    {"mtc.useful_ratio",
     submitted > 0 ? counter("runner.members_run") / submitted : 0.0,
     "ratio"},
    {"mtc.retries", per_req * counter("fault.retries"), "count"},
    {"mtc.member_p50_ms", 1e3 * member_p50, "ms"},
    {"mtc.contention_ratio",
     member_replay_s > 0 ? member_p50 / member_replay_s : 0.0, "ratio"},
    {"mtc.parallel_eff",
     forecast_wall > 0
         ? (rp.wall_s - rp.analysis.busy_s) /
               (static_cast<double>(member_workers(w)) * forecast_wall)
         : 0.0,
     "ratio"},
    {"service.queue_wait_p50_s", qwait ? qwait->quantile(0.5) : 0.0, "s"},
    {"service.queue_wait_p95_s", qwait ? qwait->quantile(0.95) : 0.0,
     "s"},
    {"service.peak_queue", static_cast<double>(st.peak_queue), "count"},
    {"service.peak_workers", static_cast<double>(st.peak_workers),
     "count"},
    {"service.pool_grow_events", static_cast<double>(st.pool_grow_events),
     "count"},
    {"service.pool_shrink_events",
     static_cast<double>(st.pool_shrink_events), "count"},
    {"service.rejected",
     static_cast<double>(st.rejected_queue_full + st.rejected_deadline +
                         st.rejected_invalid + st.rejected_shutdown),
     "count"},
    {"service.orchestration_self_s",
     requests.empty() ? 0.0
                      : self_total / static_cast<double>(requests.size()),
     "s"},
    {"bench.generator_lag_max_s", max_lag(plain), "s"},
    {"bench.tracing_overhead_frac",
     plain_p50 > 0 ? median_of(traced_lat) / plain_p50 - 1.0 : 0.0,
     "fraction"},
    {"bench.unattributed_frac",
     rp.wall_s > 0 ? (rp.wall_s - rp.layers_s()) / rp.wall_s : 0.0,
     "fraction"},
  };
  print_table(report, "per-layer (traced):");
  std::printf("replay layer shares: ocean %.1f%%, svd+differ %.1f%%, "
              "covered %.1f%%\n",
              100 * rp.ocean.busy_s / rp.wall_s,
              100 * (rp.svd.busy_s + rp.differ.busy_s) / rp.wall_s,
              100 * rp.layers_s() / rp.wall_s);

  // Keep the spans: write the traced session beside the build.
  const std::filesystem::path out = ".bench_build";
  if (std::filesystem::is_directory(out)) {
    telemetry::write_sessions_json(
        (out / (std::string("trace_") + w.name + ".json")).string(), {&sink});
  }
  return report;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: essex_perfbench --workload {monterey_48h|"
               "large_localized|gyre_stream} --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (v == w.name) a.workload = &w;
      if (!a.workload) return std::nullopt;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !a.workload || !(a.seconds > 0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  if (!kOptimized) {
    std::fprintf(stderr, "essex_perfbench: refusing to report numbers from "
                         "an unoptimised build\n");
    return 2;
  }
  const Workload& w = *args->workload;
  std::printf("fingerprint: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %zu, \"member_workers\": %zu, \"simd\": \"%s\", "
              "\"optimized\": %s, \"build_type\": \"%s\", \"trace\": %d}\n",
              w.name, static_cast<unsigned long long>(args->seed),
              worker_cap(), member_workers(w),
              la::simd::level_name(la::simd::active_level()),
              kOptimized ? "true" : "false", ESSEX_BUILD_TYPE,
              args->trace ? 1 : 0);

  // Set-up, repeated on the timed run — at least three times and for at
  // least three seconds — so its median is steady even when it is short.
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  double setup_total = 0.0;
  for (std::size_t rep = 0;
       args->trace ? rep < 1 : (rep < 3 || setup_total < 3.0) && rep < 50;
       ++rep) {
    setup.reset();
    const double t = now_s();
    setup = make_setup(w);
    setup_times.push_back(now_s() - t);
    setup_total += setup_times.back();
  }
  const double setup_s = median_of(setup_times);
  std::printf("setup: %zu reps, median %.4f s, obs %zu, state dim %zu\n",
              setup_times.size(), setup_s, setup->obs.size(),
              setup->nowcast->dim());

  std::vector<std::string> errors;  // one per failed request or check
  std::size_t attempted = 0;
  std::vector<Metric> report;

  if (!args->trace) {
    const Window win =
        Client(w, *setup, args->seed).run(*setup->svc, args->seconds, nullptr);
    attempted = win.outcomes.size();
    collect(w, win, errors);
    report = end_to_end(w, win, setup_s);
    print_table(report, "end-to-end (untraced):");
  } else {
    report = traced_run(w, *setup, setup_s, args->seed, args->seconds,
                        attempted, errors);
  }

  for (const std::string& e : errors)
    std::printf("check failed: %s\n", e.c_str());
  const bool correct = errors.empty();
  std::printf("%s\n", result_json(correct, std::max<std::size_t>(attempted, 1),
                                  errors.size(), report)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
