// ESSEX: the Fig. 4 parallel ESSE execution core, service edition.
//
// execute_forecast() is the real member work of the one Fig.-4 loop
// (workflow::EnsembleOrchestrator, which owns the pool, milestones,
// growth, drain and cancel-on-convergence): it sets up the request,
// integrates and absorbs members on a borrowed, shared ThreadPool,
// decomposes the canonical member-id prefix at each check, and assembles
// the result. Teardown drains only this request's attempts, a request
// cancel flag aborts mid-run, and a demand hook reports the wanted worker
// count whenever the pool cap moves, so the ForecastService can resize
// the shared pool under a running ensemble. Neither sharing nor resizing
// changes which members feed which check (DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>

#include "common/thread_pool.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::service {

/// Service-side knobs of one core execution.
struct ExecHooks {
  /// Request-level cancellation: when it turns true the core cancels all
  /// live attempts, drains its tasks and returns nullopt. Null = not
  /// cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Called (on the orchestrating thread, outside locks) with the
  /// runner's wanted member-worker count at the first pool fill and each
  /// growth stage; the service sums demands and resizes the shared pool.
  std::function<void(std::size_t workers_wanted)> demand;

  bool cancelled() const {
    return cancel && cancel->load(std::memory_order_relaxed);
  }
};

/// Run one validated forecast request on `pool`; nullopt when cancelled.
/// Throws (PreconditionError on a violated degradation floor, model
/// errors, ...) — the service maps exceptions onto the handle; the
/// one-shot wrapper lets them propagate.
std::optional<esse::ForecastResult> execute_forecast(
    const workflow::ForecastRequest& request, ThreadPool& pool,
    const ExecHooks& hooks);

}  // namespace essex::service
