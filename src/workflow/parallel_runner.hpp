// ESSEX: the Fig.-4 forecast request and its up-front checks.
//
// A ForecastRequest bundles the model, the initial state, the prior
// error subspace and the ParallelRunnerConfig of one real (in-process)
// Fig.-4 forecast. This header holds what every entry point needs before
// a member runs: validate(), which turns a malformed request into named
// issues instead of an abort, and forecast_work_units(), the admission
// cost the ForecastService estimates runtimes in. The runner itself is
// service/runner_core (entry points in service/forecast_service.hpp:
// ForecastService and the one-shot run_parallel_forecast); its DES
// counterpart is esse_workflow_sim.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "esse/convergence.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "ocean/model.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::workflow {

/// Configuration of the real parallel runner (numerics shared with
/// esse::CycleParams).
struct ParallelRunnerConfig {
  esse::CycleParams cycle;     ///< perturbation/convergence/size knobs
  double pool_headroom = 1.25; ///< M = headroom × N
  std::size_t svd_min_new_members = 4;  ///< snapshot stride for the SVD
  /// Recovery: a member whose attempt throws (or is injected to fail) is
  /// resubmitted at once, up to this many times, through the same
  /// FaultTolerantExecutor the DES driver uses. The in-process runner has
  /// no slow or lost hosts, so backoff, timeouts and speculation are
  /// DES-only.
  std::size_t max_retries = 3;
  /// Failure injection for tests: attempt (member, k) throws with this
  /// probability, drawn from the RNG stream keyed (inject_seed, member,
  /// k).
  double inject_probability = 0.0;
  std::uint64_t inject_seed = 1234;
  /// Test hook, called on the worker thread just before a finished
  /// member's forecast is absorbed into the differ. The determinism
  /// harness uses it to impose adversarial absorption orders (hold some
  /// members back until others have landed); the forecast result must be
  /// bitwise identical no matter what this does. Leave empty in
  /// production.
  std::function<void(std::size_t member_id)> arrival_hook;
};

/// Everything one forecast invocation needs, in one place: adding a knob
/// here no longer ripples through every example/test/bench call site.
/// The referenced model/state/subspace must outlive the call.
struct ForecastRequest {
  const ocean::OceanModel& model;
  const ocean::OceanState& initial;
  const esse::ErrorSubspace& subspace;
  double t0_hours = 0.0;
  ParallelRunnerConfig config{};
  /// Optional telemetry sink (nullable, not owned). The runner records
  /// `runner.*` counters/histograms with wall-clock spans for member and
  /// SVD work, and forwards it to the numerics (`esse.*` convergence
  /// stream) unless `config.cycle.sink` is already set.
  telemetry::Sink* sink = nullptr;
};

/// One named problem with a request's configuration. A server must be
/// able to *reject* a malformed request instead of aborting, so the
/// validation surface returns data rather than firing ESSEX_REQUIRE:
/// the ForecastService maps a non-empty issue list onto a structured
/// kInvalidRequest rejection, while the one-shot entry points join the
/// messages into the PreconditionError they always threw.
struct ValidationIssue {
  std::string field;    ///< dotted path, e.g. "config.pool_headroom"
  std::string message;  ///< human-readable constraint that failed
};

/// Check every documented constraint of the runner configuration.
/// Returns an empty vector when the config is well-formed.
std::vector<ValidationIssue> validate(const ParallelRunnerConfig& config);

/// Where a request keeps its ensemble-size and member-mix knobs: the
/// dotted field paths the shared checks below report issues under.
struct EnsembleFields {
  const char* initial;
  const char* growth;
  const char* max_members;
  const char* min_members;
  const char* multilevel;  ///< prefix of the MultilevelParams members
};

/// The ensemble-size schedule and multilevel member-mix checks, shared by
/// the real runner (validate above) and its DES twin. Appends one issue
/// per violated constraint, named after the caller's own fields.
void validate_ensemble(const esse::EnsembleSizeController::Params& ensemble,
                       const esse::MultilevelParams& multilevel,
                       const EnsembleFields& fields,
                       std::vector<ValidationIssue>& issues);

/// Check the full request: the config's constraints plus the
/// state-vs-subspace dimension agreement.
std::vector<ValidationIssue> validate(const ForecastRequest& request);

/// Join issues into one "field: message; field: message" line (for
/// exceptions and rejection payloads). Empty string for no issues.
std::string describe(const std::vector<ValidationIssue>& issues);

/// Admission work units of one request: planned ensemble cost in
/// (members × model steps × packed state size), with multilevel member
/// mixes discounted by their per-level cost ratios. The ForecastService
/// feeds this to the RuntimeEstimator so its EWMA tracks seconds *per
/// work unit* — a burst of small requests can no longer poison the
/// admission estimate for a large one (and vice versa).
double forecast_work_units(const ForecastRequest& request);

}  // namespace essex::workflow
