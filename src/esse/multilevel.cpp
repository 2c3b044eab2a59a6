#include "esse/multilevel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "ocean/state.hpp"

namespace essex::esse {

std::size_t MultilevelParams::total_members() const {
  std::size_t n = 0;
  for (std::size_t c : members_per_level) n += c;
  return n;
}

std::size_t MultilevelParams::level_of(std::size_t gid) const {
  std::size_t off = 0;
  for (std::size_t l = 0; l < members_per_level.size(); ++l) {
    off += members_per_level[l];
    if (gid < off) return l;
  }
  ESSEX_REQUIRE(false, "member id beyond the planned multilevel ensemble");
  return 0;
}

double MultilevelParams::weight(std::size_t level) const {
  ESSEX_REQUIRE(level < members_per_level.size(),
                "multilevel params have no such level");
  if (members_per_level[level] == 0) return 0.0;
  // Normalise over the non-empty levels only: an empty level contributes
  // no columns, so giving it weight would silently deflate the estimate.
  double total = 0.0, mine = 0.0;
  for (std::size_t l = 0; l < members_per_level.size(); ++l) {
    if (members_per_level[l] == 0) continue;
    const double w = level_weights.empty()
                         ? static_cast<double>(members_per_level[l])
                         : level_weights[l];
    total += w;
    if (l == level) mine = w;
  }
  ESSEX_REQUIRE(total > 0.0, "multilevel pooling weights sum to zero");
  return mine / total;
}

double MultilevelParams::column_weight(std::size_t level) const {
  const std::size_t n_l = members_per_level[level];
  ESSEX_REQUIRE(n_l >= 2, "a level with columns needs >= 2 members");
  const std::size_t n_tot = total_members();
  if (n_l == n_tot) return 1.0;  // degenerate: bitwise single-level
  return std::sqrt(weight(level) * static_cast<double>(n_tot - 1) /
                   static_cast<double>(n_l - 1));
}

double MultilevelParams::cost_ratio(std::size_t level) const {
  return std::pow(static_cast<double>(coarsen),
                  -3.0 * static_cast<double>(level));
}

double MultilevelParams::total_cost_units() const {
  if (!enabled()) return static_cast<double>(total_members());
  double units = 0.0;
  for (std::size_t l = 0; l < members_per_level.size(); ++l)
    units += static_cast<double>(members_per_level[l]) * cost_ratio(l);
  return units;
}

MultilevelEnsemble::MultilevelEnsemble(const ocean::OceanModel& fine_model,
                                       const MultilevelParams& params)
    : params_(params),
      fine_model_(fine_model),
      hierarchy_(fine_model.grid(), params.levels, params.coarsen) {
  ESSEX_REQUIRE(params_.enabled(), "multilevel ensemble needs levels > 1");
  ESSEX_REQUIRE(params_.members_per_level.size() == params_.levels,
                "members_per_level must name every level");
  coarse_models_.reserve(params_.levels - 1);
  const la::Vector fine_clim = fine_model.climatology().pack();
  for (std::size_t l = 1; l < params_.levels; ++l) {
    const ocean::Grid3D& g = hierarchy_.grid(l);
    ocean::OceanState clim(g);
    clim.unpack(hierarchy_.restrict_state(fine_clim, l), g);
    coarse_models_.push_back(std::make_unique<ocean::OceanModel>(
        g, fine_model.params(), fine_model.forcing(), clim));
  }
}

const ocean::OceanModel& MultilevelEnsemble::model(std::size_t level) const {
  if (level == 0) return fine_model_;
  ESSEX_REQUIRE(level < params_.levels, "hierarchy has no such level");
  return *coarse_models_[level - 1];
}

void MultilevelEnsemble::run_centrals(const la::Vector& fine_packed_initial,
                                      double t0_hours,
                                      double forecast_hours) {
  centrals_.clear();
  centrals_.reserve(params_.levels - 1);
  for (std::size_t l = 1; l < params_.levels; ++l) {
    const ocean::Grid3D& g = hierarchy_.grid(l);
    ocean::OceanState st(g);
    st.unpack(hierarchy_.restrict_state(fine_packed_initial, l), g);
    model(l).run(st, t0_hours, forecast_hours, nullptr);
    centrals_.push_back(st.pack());
  }
}

const la::Vector& MultilevelEnsemble::central(std::size_t level) const {
  ESSEX_REQUIRE(level >= 1 && level < params_.levels,
                "coarse central forecasts exist for levels 1..L-1");
  ESSEX_REQUIRE(centrals_.size() == params_.levels - 1,
                "run_centrals() must run before member anomalies");
  return centrals_[level - 1];
}

la::Vector MultilevelEnsemble::fine_anomaly(
    std::size_t level, const la::Vector& packed_forecast) const {
  const la::Vector& c = central(level);
  ESSEX_REQUIRE(packed_forecast.size() == c.size(),
                "member forecast does not match the level's state size");
  la::Vector anom(c.size());
  for (std::size_t i = 0; i < anom.size(); ++i)
    anom[i] = packed_forecast[i] - c[i];
  la::Vector fine = hierarchy_.prolong_state(anom, level);
  const double w = params_.column_weight(level);
  if (w != 1.0)
    for (double& v : fine) v *= w;
  return fine;
}

}  // namespace essex::esse
