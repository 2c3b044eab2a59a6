// ESSEX: output-return strategies for remote ensembles (paper §5.3.2).
//
// "When it comes to the output files, one has the choice of either a
// push model (from the remote execution hosts back to the home cluster)
// or a pull model (a pull-agent on the home cluster fetching files ...).
// The former ... results in a very large number of concurrent remote
// transfer attempts followed by no network activity whatsoever. This can
// seriously slow down the gateway nodes ... The pull model ... can pace
// the file transfers so that they happen more or less continuously and
// perform much better. A third alternative introduces a two-stage put
// strategy."
//
// simulate_output_return() replays a batch of member-completion times
// against a shared WAN gateway under each strategy and reports the
// latency/burstiness metrics that paragraph argues about.
#pragma once

#include <cstddef>
#include <vector>

#include "mtc/job.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::mtc {

struct OutputReturnConfig {
  OutputTransfer strategy = OutputTransfer::kPushImmediate;
  double file_bytes = 11e6;        ///< per member (§5.4.2)
  double gateway_bps = 50e6;       ///< WAN bandwidth site → home
  /// Per-connection startup cost (scp/gsiftp handshake). Pull and the
  /// two-stage agent reuse one channel; pushes pay it per member.
  double connection_setup_s = 1.0;
  /// Pull/two-stage agents move files over this many parallel streams.
  std::size_t agent_streams = 4;
  /// Optional telemetry sink (nullable, not owned): records the
  /// `output.*` series — per-file `output.latency_s` histogram, a
  /// `output.wan_flows` event stream (gateway burstiness over simulated
  /// time) and the summary gauges of OutputReturnMetrics.
  telemetry::Sink* sink = nullptr;
};

struct OutputReturnMetrics {
  double all_home_s = 0;       ///< last file landed home (from batch start)
  double mean_latency_s = 0;   ///< mean (file home − member finished)
  double max_latency_s = 0;
  std::size_t peak_concurrent_wan = 0;  ///< gateway connection burst size
  double gateway_busy_s = 0;   ///< seconds the WAN link was moving bytes
};

/// Replay `completion_times_s` (one per member, from the batch start)
/// under the chosen strategy. Completion times need not be sorted.
OutputReturnMetrics simulate_output_return(
    const std::vector<double>& completion_times_s,
    const OutputReturnConfig& config);

}  // namespace essex::mtc
