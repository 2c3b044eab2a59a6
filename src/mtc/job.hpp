// ESSEX: job records and the calibrated ESSE workload shape.
//
// A "singleton" in the paper is one shell-script job: pert (read the
// 1.5 GB shared inputs, perturb) followed by pemodel (the PE model
// forecast) and a copy-back of ~11 MB of results. EsseJobShape carries
// the per-task costs calibrated from the paper's own measurements
// (Table 1 local row and §5.4.2): they are the DES's ground truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "mtc/sim.hpp"

namespace essex::mtc {

using JobId = std::uint64_t;

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kEvicted,  ///< host lost mid-run (node outage, glide-in lease end)
};

/// Lifecycle record kept per job for the timing analyses.
struct JobRecord {
  JobId id = 0;
  JobStatus status = JobStatus::kQueued;
  SimTime submitted = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::size_t node_index = 0;
  std::size_t cores = 1;   ///< cores reserved on the node
  double cpu_seconds = 0;  ///< simulated compute time consumed
  double io_seconds = 0;   ///< simulated time blocked on I/O

  /// CPU utilisation over the job's span (the paper's ≈20% → ≈100%
  /// pert metric).
  double cpu_utilization() const {
    const double span = cpu_seconds + io_seconds;
    return span > 0 ? cpu_seconds / span : 0.0;
  }
};

/// Calibrated per-member costs of the ESSE workload, in seconds on a
/// speed-1.0 core (local Opteron 250) and bytes.
struct EsseJobShape {
  // pert: 6.21 s measured locally (Table 1) ≈ 1.21 s CPU + 5.0 s of
  // local-filesystem input handling at factor 1.0.
  double pert_cpu_s = 1.21;
  double pert_fs_s = 5.0;       ///< filesystem-dependent part, × fs factor
  double input_bytes = 1.5e9;   ///< shared input files (§5.4.2: 1.5 GB)
  // pemodel: 1531.33 s measured locally (Table 1).
  double pemodel_cpu_s = 1531.33;
  double output_bytes = 11e6;   ///< per-member result (§5.4.2: 11 MB)
  // master-side costs (differencing ~10⁶-point fields and a LAPACK SVD
  // of an n×n covariance are fast next to a 25-minute forecast):
  double diff_cpu_s = 0.5;      ///< differ work per member (serial, master)
  double svd_base_s = 10.0;     ///< SVD fixed cost
  double svd_per_member2_s = 2e-4;  ///< SVD scales ~ n² for n members
  // acoustics singleton (§5.2.1: "approximately 3 minutes").
  double acoustics_cpu_s = 180.0;
  double acoustics_output_bytes = 2e6;
  // OpenDAP staging (§5.3.2): "hundreds of requests to a central OpenDAP
  // server make it a less desirable solution" — each request pays a
  // server round-trip on top of the shared-bandwidth read.
  std::size_t opendap_requests = 400;
  double opendap_request_latency_s = 0.06;

  /// SVD wall time for an n-member covariance on a `speed` host.
  double svd_seconds(std::size_t n_members, double speed = 1.0) const {
    const double n = static_cast<double>(n_members);
    return (svd_base_s + svd_per_member2_s * n * n) / speed;
  }
};

/// Input staging strategies of §5.2.1/§5.3.2.
enum class InputStaging {
  kNfsDirect,      ///< singletons read the shared inputs over NFS
  kPrestageLocal,  ///< inputs copied to every local disk beforehand
  kOpenDapRemote,  ///< per-request reads from a central OpenDAP server
};

/// Output return strategies of §5.3.2.
enum class OutputTransfer {
  kPushImmediate,  ///< every node pushes its results home at job end
  kPullPaced,      ///< a home-side agent pulls results continuously
  kTwoStagePut,    ///< write to site-shared storage; an agent forwards
};

std::string to_string(JobStatus s);
std::string to_string(OutputTransfer s);

}  // namespace essex::mtc
