// ESSEX: multilevel (multi-fidelity) ensemble configuration and driver
// support (DESIGN.md §15).
//
// The multilevel estimator runs the ensemble at mixed grid resolutions:
// a few expensive fine members plus many cheap coarse ones (Seelinger et
// al.'s parallelized multilevel MCMC; the sintefmath/multilevelDA
// harness). Each level integrates its own members about its own
// deterministic central forecast, the per-level anomaly columns are
// prolongated to the fine grid and pooled with per-level weights
//
//   P ≈ Σ_l w_l · (1 / (n_l − 1)) · A_l A_lᵀ ,   Σ_l w_l = 1,
//
// which the differ realises by pre-scaling every stored column with
// s_l = sqrt(w_l · (N_tot − 1) / (n_l − 1)) so the existing global
// 1/√(N_tot − 1) normalisation lands each level on its target weight.
// Weights come from the *planned* per-level counts, so a column's bytes
// never depend on arrival order and the PR-4 determinism contract holds.
//
// Determinism ordering: global member ids are assigned level-major —
// level 0 (fine) owns ids 0..n_0−1, level 1 the next n_1, and so on —
// so the differ's canonical member-id sort IS the canonical
// (level, member) order, contiguous-prefix milestones always contain
// the fine columns, and the fault layer's exactly-once resolution is
// per (level, member) for free.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "ocean/hierarchy.hpp"
#include "ocean/model.hpp"

namespace essex::esse {

/// Mixed-resolution ensemble knobs, a sub-struct of CycleParams (and so
/// of ForecastRequest). levels == 1 is the single-level path and must
/// leave every downstream byte unchanged.
struct MultilevelParams {
  /// Grid levels including the fine one; 1 = classic single-level ESSE.
  std::size_t levels = 1;
  /// Horizontal coarsening factor between adjacent levels.
  std::size_t coarsen = 2;
  /// Planned members per level, fine first: members_per_level[l] runs on
  /// hierarchy level l. Size must equal `levels` when levels > 1; each
  /// entry is 0 (level unused) or >= 2 (a spread needs two members).
  std::vector<std::size_t> members_per_level;
  /// Optional pooling weights per level (normalised over the non-empty
  /// levels); empty = proportional to members_per_level, which treats
  /// the pooled columns as one big ensemble.
  std::vector<double> level_weights;

  bool enabled() const { return levels > 1; }

  /// Σ members_per_level (members_per_level may be empty when disabled).
  std::size_t total_members() const;

  /// Level owning global member id `gid`.
  std::size_t level_of(std::size_t gid) const;

  /// Normalised pooling weight w_l (0 for empty levels).
  double weight(std::size_t level) const;

  /// Per-column scale s_l = sqrt(w_l (N_tot − 1) / (n_l − 1)). Exactly
  /// 1.0 when a single level holds every member, so a degenerate
  /// multilevel run collapses bitwise onto the single-level estimator.
  double column_weight(std::size_t level) const;

  /// Admission cost of one level-`level` member relative to fine:
  /// coarsen^(-3l) (¼ points × ½ steps per factor-2 coarsening under the
  /// advective CFL).
  double cost_ratio(std::size_t level) const;

  /// Total cost of the planned ensemble in fine-member units.
  double total_cost_units() const;
};

/// Everything the runner needs to execute coarse members: the grid
/// hierarchy, one OceanModel per coarse level (restricted climatology,
/// shared physics/forcing) and the per-level deterministic central
/// forecasts the anomalies are taken about. Immutable after
/// run_centrals(), so concurrent member workers share it freely.
class MultilevelEnsemble {
 public:
  /// Builds the hierarchy and the coarse-level models from the fine
  /// model. `params` must be enabled and validated.
  MultilevelEnsemble(const ocean::OceanModel& fine_model,
                     const MultilevelParams& params);

  const MultilevelParams& params() const { return params_; }
  const ocean::GridHierarchy& hierarchy() const { return hierarchy_; }

  /// The model integrating level `level`'s members (the fine model for
  /// level 0).
  const ocean::OceanModel& model(std::size_t level) const;

  /// Integrate the deterministic central forecast of every coarse level
  /// from the restricted fine initial condition. Call once, before any
  /// member_anomaly().
  void run_centrals(const la::Vector& fine_packed_initial, double t0_hours,
                    double forecast_hours);

  /// Level `level`'s packed central forecast (level >= 1; the fine
  /// central lives with the caller's differ).
  const la::Vector& central(std::size_t level) const;

  /// Finish one coarse member whose level-`level` forecast is
  /// `packed_forecast`: subtract the level central, prolongate the
  /// anomaly to the fine grid and scale by the level's column weight.
  /// The returned column is what the differ absorbs for this member.
  la::Vector fine_anomaly(std::size_t level,
                          const la::Vector& packed_forecast) const;

 private:
  MultilevelParams params_;
  const ocean::OceanModel& fine_model_;
  ocean::GridHierarchy hierarchy_;
  std::vector<std::unique_ptr<ocean::OceanModel>> coarse_models_;
  std::vector<la::Vector> centrals_;  ///< [level-1] packed, coarse grid
};

}  // namespace essex::esse
