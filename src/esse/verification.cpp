#include "esse/verification.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/stats.hpp"

namespace essex::esse {

SkillScore skill(const la::Vector& estimate, const la::Vector& truth,
                 const la::Vector& climatology) {
  ESSEX_REQUIRE(estimate.size() == truth.size() &&
                    truth.size() == climatology.size(),
                "skill: length mismatch");
  ESSEX_REQUIRE(estimate.size() >= 2, "skill needs at least two elements");
  SkillScore out;
  out.rmse = la::rms_diff(estimate, truth);
  double b = 0;
  for (std::size_t i = 0; i < estimate.size(); ++i)
    b += estimate[i] - truth[i];
  out.bias = b / static_cast<double>(estimate.size());
  la::Vector ea = la::sub(estimate, climatology);
  la::Vector ta = la::sub(truth, climatology);
  out.anomaly_correlation = la::correlation(ea, ta);
  return out;
}

double spread_skill_ratio(const ErrorSubspace& subspace,
                          const la::Vector& estimate,
                          const la::Vector& truth) {
  ESSEX_REQUIRE(!subspace.empty(), "need a non-empty subspace");
  ESSEX_REQUIRE(estimate.size() == subspace.dim() &&
                    truth.size() == subspace.dim(),
                "spread_skill: length mismatch");
  const double rmse = la::rms_diff(estimate, truth);
  if (rmse <= 0) return 0.0;
  // RMS predicted stddev = sqrt(tr(P)/m).
  const double spread =
      std::sqrt(subspace.total_variance() /
                static_cast<double>(subspace.dim()));
  return spread / rmse;
}

}  // namespace essex::esse
