// ESSEX: the canonical golden replay run (DESIGN.md §10).
//
// One fixed, seeded Fig. 4 forecast — double-gyre 12×10×3 scenario,
// bootstrap seed 11 — that the determinism harness re-executes under
// different thread counts and adversarial member-arrival schedules. The
// golden-digest test (ctest -L determinism) and the regeneration bench
// (bench_determinism --write-golden) both call these helpers, so the run
// they pin is the same by construction, not by copy-pasted config.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "esse/cycle.hpp"

namespace essex::service {

/// Stable key the golden run's digest is recorded under in
/// tests/golden/determinism.sha256 (sha256sum line format).
inline constexpr const char* kGoldenRunKey = "fig4-gyre12x10x3-seed11";

/// Execute the canonical golden run on `threads` worker threads.
/// `arrival_hook` (optional) is installed as
/// workflow::ParallelRunnerConfig::arrival_hook to impose an adversarial
/// absorption order; the result must not depend on it.
esse::ForecastResult golden_forecast(
    std::size_t threads,
    std::function<void(std::size_t)> arrival_hook = {});

/// forecast_digest() of golden_forecast(): the hex digest compared
/// against the checked-in golden value.
std::string golden_digest(std::size_t threads,
                          std::function<void(std::size_t)> arrival_hook = {});

/// The same canonical run with localization switched on (3×2 tiles,
/// halo 1, 40 km radius): the differ's column store is sharded by the
/// tiling, so this exercises the sharded reduction shapes end to end.
/// Not pinned against a checked-in golden value — the determinism suite
/// asserts self-consistency across thread counts, SIMD tiers and
/// adversarial arrival orders, plus that the *untiled* digest is
/// untouched by the redesign.
esse::ForecastResult golden_tiled_forecast(
    std::size_t threads,
    std::function<void(std::size_t)> arrival_hook = {});

std::string golden_tiled_digest(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook = {});

/// The same canonical run with a two-level multilevel ensemble (8 fine +
/// 16 coarse members on the 6×5 coarsened grid). Like the tiled variant
/// it is not pinned against a checked-in golden value — the determinism
/// suite asserts self-consistency across thread counts and adversarial
/// arrival orders, and that the single-level digest stays untouched.
esse::ForecastResult golden_multilevel_forecast(
    std::size_t threads,
    std::function<void(std::size_t)> arrival_hook = {});

std::string golden_multilevel_digest(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook = {});

/// Per-method analysis digests over the canonical golden run: one golden
/// forecast on `threads` workers (under `arrival_hook`), one fixed
/// probe-then-perturb observation batch, then every registered
/// AnalysisMethod analyzes the same forecast (the multi-model combiner's
/// surrogate comes from esse::run_surrogate_forecast on the same
/// scenario). No digest may depend on `threads` or the arrival
/// schedule. Keys in tests/golden/analysis_methods.sha256 are
/// "<kGoldenRunKey>-<method_name>".
std::map<esse::AnalysisMethod, std::string> golden_analysis_digests(
    std::size_t threads, std::function<void(std::size_t)> arrival_hook = {});

/// Digests of bare OceanModel trajectories, keyed as in
/// tests/golden/ocean.sha256. The forecast goldens above run a land-free
/// double gyre; these pin what they never reach: the Monterey coastline
/// across both wind phases, a stochastic member whose u/v are stale at
/// t0, a zero-length run (which must leave the state untouched, u/v
/// included), one coarse GridHierarchy level, an advect_drifter track
/// and a stochastic double gyre. Each digest covers the final state's
/// T, S, u, v and SSH bytes plus the step count (the drifter: its fixes).
std::vector<std::pair<std::string, std::string>> ocean_trajectory_digests();

}  // namespace essex::service
