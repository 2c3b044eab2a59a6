// ESSEX: demand-driven EC2 provisioning (paper §5.4.1).
//
// "Dynamic addition of EC2 nodes to an existing cluster - offered in
// product form by Univa (UniCloud) and Sun (Cloud Adapter in
// Hedeby/SDM). This last option automates the booting/termination of EC2
// nodes based on queuing system demand, further minimizing costs."
//
// CloudAutoscaler watches a queue-length signal and boots/terminates
// instances of one type, respecting boot latency, a minimum billing
// quantum (terminating mid-hour still pays the full hour) and an
// instance cap. run_autoscaled_batch() drives a whole member batch
// through it and reports makespan + bill, so a fixed fleet and an
// autoscaled fleet can be compared directly.
#pragma once

#include <cstddef>
#include <vector>

#include "mtc/cloud.hpp"
#include "mtc/job.hpp"
#include "mtc/sim.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::mtc {

struct AutoscalerParams {
  InstanceType instance;
  std::size_t max_instances = 20;  ///< the paper's default EC2 cap
  /// Optional telemetry sink (nullable, not owned): records the
  /// `autoscaler.*` series — boot/terminate events with the live fleet
  /// size (simulated time), plus the AutoscaleResult summary as
  /// counters/gauges.
  telemetry::Sink* sink = nullptr;
};

/// Outcome of one autoscaled (or fixed-fleet) batch.
struct AutoscaleResult {
  double makespan_s = 0;
  double cost_usd = 0;             ///< hourly-rounded instance charges
  double instance_hours = 0;
  std::size_t peak_instances = 0;
  std::size_t boots = 0;
  std::size_t members_done = 0;
  /// Mean busy instances over the run (efficiency of the fleet).
  double mean_busy_instances = 0;
};

/// Run `members` identical pemodel-style jobs (duration from `shape` on
/// the instance's speed) against an autoscaled fleet. Members arrive as
/// one batch at t = 0.
AutoscaleResult run_autoscaled_batch(const EsseJobShape& shape,
                                     std::size_t members,
                                     const AutoscalerParams& params);

/// Same workload on a fixed fleet of `instances` (booted at t = 0,
/// terminated when the batch drains) for comparison.
AutoscaleResult run_fixed_fleet_batch(const EsseJobShape& shape,
                                      std::size_t members,
                                      const InstanceType& instance,
                                      std::size_t instances,
                                      double boot_latency_s = 120.0);

}  // namespace essex::mtc
