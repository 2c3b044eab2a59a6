// ESSEX: the serial-vs-MTC differential oracle (DESIGN.md §11).
//
// The strongest end-to-end check the testkit owns: run the Fig.-3 serial
// reference loop and the Fig.-4 MTC pipeline from the *same* seeded
// ForecastRequest and demand they tell the same scientific story —
// identical member counts and milestone schedules, bitwise-equal central
// forecasts, subspaces that coincide up to SVD-path round-off, and ESSE
// analyses that agree once both subspaces are fed the same observations.
// Any MTC scheduling bug that leaks into the science (a dropped member, a
// milestone raced past, a snapshot taken off a torn buffer) breaks one of
// these clauses.
#pragma once

#include <cstdint>
#include <string>

#include "esse/analysis.hpp"

namespace essex::testkit {

/// Outcome of one serial-vs-MTC comparison.
struct DifferentialReport {
  bool ok = true;
  /// Failure narrative; every line embeds the reproducing seed.
  std::string detail;
  std::size_t serial_members = 0;
  std::size_t mtc_members = 0;
  double subspace_rho = 0;        ///< similarity serial vs MTC subspace
  double central_max_abs_diff = 0;  ///< bitwise equality ⇒ exactly 0
  double posterior_rms_diff = 0;  ///< analyses against shared observations
};

/// Run both pipelines from `seed` (MTC on `threads` workers) and compare.
DifferentialReport run_differential_oracle(std::uint64_t seed,
                                           std::size_t threads = 3);

/// Outcome of one tiled-vs-global analysis comparison (DESIGN.md §14).
struct LocalAnalysisReport {
  bool ok = true;
  /// Failure narrative; every line embeds the reproducing seed.
  std::string detail;
  double posterior_rms_diff = 0;  ///< tiled vs global posterior state
  double tiled_prior_trace = 0;
  double tiled_posterior_trace = 0;  ///< must never exceed the prior
};

/// Build one seeded scenario and run the ESSE analysis twice against the
/// same observations: globally (localization off) and tiled with a
/// localization radius far larger than the domain, on `threads` workers.
/// At that radius every taper is ≈1, so the tiled update must reproduce
/// the global posterior to round-off (rms ≤ 1e-6); and regardless of
/// radius the analysis must not hurt — the tiled posterior trace must
/// not exceed the prior trace. A second, tight-radius tiled pass checks
/// the never-hurts clause where tapering actually bites.
LocalAnalysisReport run_local_analysis_oracle(std::uint64_t seed,
                                              std::size_t threads = 3);

/// Outcome of one per-method cross-validation (DESIGN.md §16).
struct AnalysisMethodReport {
  bool ok = true;
  /// Failure narrative; every line embeds the reproducing seed + method.
  std::string detail;
  double tiled_rms_diff = 0;  ///< tiled vs global at untapered radius
  double prior_trace = 0;
  double posterior_trace = 0;  ///< must never exceed the prior
};

/// Cross-validate one AnalysisMethod on the seeded scenario the
/// tiled-vs-global oracle uses: (1) "analysis never hurts" globally —
/// the posterior trace never exceeds the prior; (2) the tiled update
/// collapses onto the method's own global update at an untapered radius,
/// and never hurts at a tight localization radius either.
AnalysisMethodReport run_analysis_method_oracle(std::uint64_t seed,
                                                esse::AnalysisMethod method,
                                                std::size_t threads = 3);

}  // namespace essex::testkit
