// ESSEX: forecast verification and ensemble-calibration metrics.
//
// "A comprehensive prediction should include the reliability of estimated
// quantities" (paper §2). This module supplies the standard diagnostics a
// real-time system reports against withheld truth or observations: RMSE,
// bias, anomaly correlation and the spread–skill ratio (is the predicted
// uncertainty the right size?).
#pragma once

#include <cstddef>
#include <vector>

#include "esse/error_subspace.hpp"
#include "linalg/matrix.hpp"

namespace essex::esse {

/// Point metrics of one estimate against truth.
struct SkillScore {
  double rmse = 0;
  double bias = 0;      ///< mean(estimate − truth)
  double anomaly_correlation = 0;  ///< about the given climatology
};

/// Compute RMSE/bias/AC of `estimate` vs `truth`, anomalies taken about
/// `climatology`. All vectors must share a length >= 2.
SkillScore skill(const la::Vector& estimate, const la::Vector& truth,
                 const la::Vector& climatology);

/// Spread–skill ratio: predicted ensemble stddev (RMS of the subspace's
/// marginal stddev) over actual RMSE. ≈1 for a calibrated system, <1
/// over-confident, >1 under-dispersive ensemble flagged the other way.
double spread_skill_ratio(const ErrorSubspace& subspace,
                          const la::Vector& estimate,
                          const la::Vector& truth);

}  // namespace essex::esse
