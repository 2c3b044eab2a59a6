// ESSEX: cluster hardware description (paper §5.2).
//
// The paper's home cluster: 114 dual-socket Opteron 250 nodes, 3
// dual-socket dual-core Opteron 285 replacements, a Shanghai-generation
// head node, an 18 TB NFS fileserver on a 10 Gb/s uplink and gigabit
// node links in a star topology. Speeds are expressed relative to one
// Opteron 250 @ 2.4 GHz core = 1.0, the unit the paper's Table 1 "local"
// row measures.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace essex::mtc {

/// One execution host.
struct NodeSpec {
  std::string name;
  std::size_t cores = 1;
  double cpu_speed = 1.0;  ///< relative to local Opteron 250 @2.4 GHz
  bool reserved_by_others = false;  ///< cores in use by other users
};

/// A cluster: nodes + shared file server + star network.
struct ClusterSpec {
  std::string name;
  std::vector<NodeSpec> nodes;
  double nfs_capacity_bps = 1250e6;  ///< 10 Gb/s fileserver uplink
  double node_link_bps = 125e6;      ///< 1 Gb/s per node

  std::size_t total_cores() const;
  /// Cores on nodes not reserved by other users.
  std::size_t available_cores() const;
};

/// The MSEAS-like home cluster of §5.2. `busy_nodes` marks that many
/// Opteron 250 nodes as in use by other users — the paper ran with ~210
/// of 240 cores free, i.e. busy_nodes = 15.
ClusterSpec make_home_cluster(std::size_t busy_nodes = 15);

}  // namespace essex::mtc
