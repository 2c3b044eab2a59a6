// ESSEX: augmenting the home cluster with Grid sites and EC2 (§5.3/§5.4).
//
// The paper's approach: "assign a clearly separated block of ensemble
// members to these external Grid execution hosts", prestage inputs, and
// push outputs back through each site's gateway. The driver below runs
// one DES with a scheduler per resource, measures per-resource progress,
// the completion *disorder* ("perturbation 900 may very well finish well
// before number 700"), the makespan benefit over local-only, and the EC2
// bill when a cloud pool participates.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "mtc/cloud.hpp"
#include "mtc/cluster.hpp"
#include "mtc/grid_site.hpp"
#include "mtc/job.hpp"

namespace essex::workflow {

/// A remote Grid pool participating in the ensemble.
struct GridPoolConfig {
  mtc::GridSite site;
  std::size_t cores = 64;  ///< cores actually obtained at the site
};

/// An EC2 virtual cluster participating in the ensemble.
struct CloudPoolConfig {
  mtc::InstanceType instance;
  std::size_t instances = 20;
  double provisioning_latency_s = 120.0;  ///< boot + contextualise
};

struct AugmentationConfig {
  mtc::EsseJobShape shape;
  std::size_t members = 960;
  /// Home cluster spec (local pool).
  mtc::ClusterSpec home;
  std::vector<GridPoolConfig> grid_pools;
  std::optional<CloudPoolConfig> cloud_pool;
  std::uint64_t seed = 7;
};

/// Per-resource outcome.
struct PoolOutcome {
  std::string name;
  std::size_t members_assigned = 0;
  std::size_t members_completed = 0;
  double first_finish_s = 0;
  double last_finish_s = 0;
  double queue_wait_s = 0;  ///< wait before the block could start
};

struct AugmentationResult {
  double makespan_s = 0;       ///< all members home
  double local_only_makespan_s = 0;  ///< same members, home cluster alone
  std::vector<PoolOutcome> pools;
  /// Pairs (i < j) where member j's results landed home before member
  /// i's — the out-of-order completions the differ must tolerate,
  /// normalised by the maximum possible pair count (0 = in order).
  double disorder_fraction = 0;
  /// EC2 bill (0 when no cloud pool participates).
  double cloud_cost_usd = 0;
  double cloud_cost_reserved_usd = 0;
};

/// Run the augmentation experiment. Members are split proportionally to
/// each pool's aggregate speed × cores.
AugmentationResult run_augmented_ensemble(const AugmentationConfig& config);

}  // namespace essex::workflow
