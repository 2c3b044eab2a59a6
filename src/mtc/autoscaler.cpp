#include "mtc/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace essex::mtc {

namespace {

constexpr double kBootLatencyS = 120.0;  ///< request → slots usable
constexpr double kPollIntervalS = 60.0;  ///< demand evaluation cadence
/// Boot one instance per this many queued-but-unserved jobs.
constexpr std::size_t kJobsPerInstanceBoot = 8;

struct Instance {
  SimTime requested_at = 0;
  SimTime usable_at = 0;
  std::size_t busy = 0;
  bool terminated = false;
  SimTime terminated_at = 0;
};

struct Fleet {
  Simulator sim;
  EsseJobShape shape;
  InstanceType type;
  double job_seconds = 0;
  std::size_t pending = 0;
  std::size_t done = 0;
  std::vector<Instance> instances;
  double busy_integral = 0;  // instance-seconds with >= 1 busy slot share
  SimTime last_integral_t = 0;
  std::size_t boots = 0;
  std::size_t peak = 0;

  void integrate() {
    const SimTime t = sim.now();
    double busy_now = 0;
    for (const auto& inst : instances) {
      if (inst.terminated || t < inst.usable_at) continue;
      busy_now += static_cast<double>(inst.busy) /
                  static_cast<double>(type.schedulable_slots);
    }
    busy_integral += busy_now * (t - last_integral_t);
    last_integral_t = t;
  }

  std::size_t live_instances() const {
    std::size_t n = 0;
    for (const auto& i : instances) n += !i.terminated;
    return n;
  }

  void start_jobs() {
    integrate();
    for (std::size_t k = 0; k < instances.size() && pending > 0; ++k) {
      Instance& inst = instances[k];
      if (inst.terminated || sim.now() < inst.usable_at) continue;
      while (inst.busy < type.schedulable_slots && pending > 0) {
        --pending;
        ++inst.busy;
        sim.after(job_seconds, [this, k] {
          integrate();
          --instances[k].busy;
          ++done;
          start_jobs();
        });
      }
    }
  }
};

double charge_hours(const Instance& inst, SimTime end_time) {
  const double alive =
      (inst.terminated ? inst.terminated_at : end_time) - inst.requested_at;
  return std::ceil(std::max(alive, 1.0) / 3600.0);
}

}  // namespace

AutoscaleResult run_autoscaled_batch(const EsseJobShape& shape,
                                     std::size_t members,
                                     const AutoscalerParams& params) {
  ESSEX_REQUIRE(members >= 1, "need at least one member");
  ESSEX_REQUIRE(params.max_instances >= 1, "need a positive instance cap");

  auto fleet = std::make_shared<Fleet>();
  fleet->shape = shape;
  fleet->type = params.instance;
  fleet->job_seconds = params.instance.pert_seconds(shape) +
                       params.instance.pemodel_seconds(shape);
  fleet->pending = members;

  double makespan = 0;

  // The demand-driven control loop.
  std::function<void()> poll = [&, fleet]() {
    fleet->integrate();
    if (fleet->done >= members) return;  // batch drained; stop polling

    // Capacity already owned or booting.
    std::size_t capacity = 0;
    for (const auto& inst : fleet->instances) {
      if (!inst.terminated)
        capacity += fleet->type.schedulable_slots;
    }
    std::size_t outstanding = fleet->pending;
    for (const auto& inst : fleet->instances) {
      if (!inst.terminated) outstanding += inst.busy;
    }
    // Boot toward the demand.
    if (outstanding > capacity) {
      const std::size_t deficit = outstanding - capacity;
      std::size_t to_boot =
          (deficit + kJobsPerInstanceBoot - 1) / kJobsPerInstanceBoot;
      to_boot = std::min(to_boot,
                         params.max_instances - fleet->live_instances());
      for (std::size_t b = 0; b < to_boot; ++b) {
        Instance inst;
        inst.requested_at = fleet->sim.now();
        inst.usable_at = fleet->sim.now() + kBootLatencyS;
        fleet->instances.push_back(inst);
        ++fleet->boots;
        fleet->sim.at(inst.usable_at, [fleet] { fleet->start_jobs(); });
        if (params.sink)
          params.sink->event("autoscaler.boot", fleet->sim.now(),
                             static_cast<double>(fleet->live_instances()));
      }
      fleet->peak = std::max(fleet->peak, fleet->live_instances());
    }

    // Terminate idle instances once the queue is empty: the started
    // billing hour is sunk either way, but stopping now prevents the
    // next one ("automates the booting/termination ... further
    // minimizing costs").
    for (auto& inst : fleet->instances) {
      if (inst.terminated || inst.busy > 0) continue;
      if (fleet->sim.now() < inst.usable_at) continue;
      if (fleet->pending > 0) continue;  // still work to pull
      inst.terminated = true;
      inst.terminated_at = fleet->sim.now();
      if (params.sink)
        params.sink->event("autoscaler.terminate", fleet->sim.now(),
                           static_cast<double>(fleet->live_instances()));
    }

    fleet->sim.after(kPollIntervalS, poll);
  };

  fleet->sim.after(0.0, poll);
  // Track batch completion time.
  // (The last job's completion happens inside start_jobs callbacks; we
  // read it from done afterwards via the simulator clock when drained.)
  fleet->sim.run();
  makespan = fleet->last_integral_t;

  AutoscaleResult out;
  out.makespan_s = makespan;
  out.members_done = fleet->done;
  out.boots = fleet->boots;
  out.peak_instances = fleet->peak;
  double hours = 0;
  for (const auto& inst : fleet->instances)
    hours += charge_hours(inst, makespan);
  out.instance_hours = hours;
  out.cost_usd = hours * params.instance.price_per_hour;
  out.mean_busy_instances =
      makespan > 0 ? fleet->busy_integral / makespan : 0;
  if (params.sink) {
    telemetry::Sink& sink = *params.sink;
    sink.count("autoscaler.boots", static_cast<double>(out.boots));
    sink.count("autoscaler.members_done",
               static_cast<double>(out.members_done));
    sink.gauge_set("autoscaler.makespan_s", out.makespan_s);
    sink.gauge_set("autoscaler.cost_usd", out.cost_usd);
    sink.gauge_set("autoscaler.instance_hours", out.instance_hours);
    sink.gauge_set("autoscaler.peak_instances",
                   static_cast<double>(out.peak_instances));
    sink.gauge_set("autoscaler.mean_busy_instances",
                   out.mean_busy_instances);
  }
  return out;
}

AutoscaleResult run_fixed_fleet_batch(const EsseJobShape& shape,
                                      std::size_t members,
                                      const InstanceType& instance,
                                      std::size_t instances,
                                      double boot_latency_s) {
  ESSEX_REQUIRE(members >= 1 && instances >= 1,
                "need at least one member and one instance");
  auto fleet = std::make_shared<Fleet>();
  fleet->shape = shape;
  fleet->type = instance;
  fleet->job_seconds =
      instance.pert_seconds(shape) + instance.pemodel_seconds(shape);
  fleet->pending = members;
  for (std::size_t i = 0; i < instances; ++i) {
    Instance inst;
    inst.requested_at = 0;
    inst.usable_at = boot_latency_s;
    fleet->instances.push_back(inst);
  }
  fleet->peak = instances;
  fleet->sim.at(boot_latency_s, [fleet] { fleet->start_jobs(); });
  fleet->sim.run();
  const double makespan = fleet->last_integral_t;

  AutoscaleResult out;
  out.makespan_s = makespan;
  out.members_done = fleet->done;
  out.boots = instances;
  out.peak_instances = instances;
  double hours = 0;
  for (const auto& inst : fleet->instances)
    hours += charge_hours(inst, makespan);
  out.instance_hours = hours;
  out.cost_usd = hours * instance.price_per_hour;
  out.mean_busy_instances =
      makespan > 0 ? fleet->busy_integral / makespan : 0;
  return out;
}

}  // namespace essex::mtc
