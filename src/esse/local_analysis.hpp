// ESSEX: the tiled, localized analysis engine (DESIGN.md §14).
//
// Domain localization in the LETKF tradition: every tile solves its own
// k×k subspace core against the observations within the Gaspari–Cohn
// support of its owned rectangle (noise inflated by 1/GC(d), so distant
// data loses influence smoothly), and the per-tile posteriors are
// blended across halos with the tiling's partition-of-unity weights.
// The blend happens in square-root form — Ŝ(cell) = Σ_u wgt_u·S_u with
// C_u = S_u·S_uᵀ — so the blended posterior covariance is a convex
// quadratic mix: it can never exceed the prior (analysis never hurts,
// per tile and globally), and at a radius large enough to cover the
// whole domain every tile solves the identical global problem and the
// blend collapses to it.
//
// Determinism: per-tile work is independent with fixed-shape reductions
// (canonical dot/ab_row/atb_update kernels), per-tile partials merge in
// tile-id order, and tiles write disjoint owned rows — so the result is
// bitwise independent of thread count and scheduling.
#pragma once

#include "common/thread_pool.hpp"
#include "esse/analysis.hpp"
#include "ocean/tiling.hpp"

namespace essex::esse {

/// Run the tiled subspace-Kalman update. `tiling` must match
/// forecast.size(); `pool` is optional (serial when null). Reached only
/// through analyze(), which has already checked every observation for
/// finite values, weights, positions and a finite positive variance, and
/// has already resolved kMultiModel to a combined ObsSet.
AnalysisResult analyze_tiled(
    const la::Vector& forecast, const ErrorSubspace& subspace,
    const ObsSet& obs, const ocean::Tiling& tiling,
    const LocalizationParams& localization, ThreadPool* pool = nullptr);

}  // namespace essex::esse
