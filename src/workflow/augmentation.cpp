#include "workflow/augmentation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"

namespace essex::workflow {

namespace {

/// Input volume prestaged to each remote resource (charged to the EC2
/// bill; Grid prestage is free but takes gateway time before start).
constexpr double kPrestageInputBytes = 1.5e9;
/// EC2 instance boot + contextualisation before a cloud pool takes work.
constexpr double kProvisioningLatencyS = 120.0;

using mtc::ClusterScheduler;
using mtc::ClusterSpec;
using mtc::JobContext;
using mtc::NodeSpec;
using mtc::Simulator;

/// Build a ClusterSpec for a remote pool: `cores` cores at `speed`,
/// outputs funnelled through the site gateway (modelled as the spec's
/// "nfs" resource so JobContext::transfer contends on it).
ClusterSpec remote_spec(const std::string& name, std::size_t cores,
                        double speed, double gateway_bps) {
  ClusterSpec spec;
  spec.name = name;
  spec.nfs_capacity_bps = gateway_bps;
  const std::size_t nodes = (cores + 1) / 2;
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeSpec n;
    n.name = name + "-" + std::to_string(i);
    n.cores = std::min<std::size_t>(2, cores - 2 * i);
    n.cpu_speed = speed;
    spec.nodes.push_back(n);
  }
  return spec;
}

struct PoolRuntime {
  std::string name;
  std::unique_ptr<ClusterScheduler> sched;
  double fs_factor = 1.0;
  double start_delay_s = 0.0;  // queue wait / provisioning
  std::vector<std::size_t> member_ids;
  PoolOutcome outcome;
};

/// Aggregate throughput of a pool: cores × speed (pemodel-dominated).
double pool_power(const ClusterSpec& spec) {
  double p = 0;
  for (const auto& n : spec.nodes)
    if (!n.reserved_by_others)
      p += static_cast<double>(n.cores) * n.cpu_speed;
  return p;
}

/// Run `members` on the home cluster alone to establish the baseline.
double local_only_makespan(const AugmentationConfig& cfg) {
  Simulator sim;
  ClusterScheduler sched(sim, cfg.home, mtc::sge_params());
  std::size_t landed = 0;
  double makespan = 0;
  sched.set_completion_hook([&](const mtc::JobRecord&) {
    if (++landed == cfg.members) makespan = sim.now();
  });
  for (std::size_t m = 0; m < cfg.members; ++m) {
    sched.submit([&cfg, &sched](JobContext& ctx) {
      const auto& sh = cfg.shape;
      ctx.compute(sh.pert_cpu_s, [&ctx, &sh, &sched] {
        ctx.busy_wait(sh.pert_fs_s, [&ctx, &sh, &sched] {
          ctx.compute(sh.pemodel_cpu_s, [&ctx, &sh, &sched] {
            ctx.transfer(sched.nfs(), sh.output_bytes,
                         [&ctx] { ctx.finish(); });
          });
        });
      });
    });
  }
  sim.run();
  return makespan;
}

}  // namespace

AugmentationResult run_augmented_ensemble(const AugmentationConfig& config) {
  ESSEX_REQUIRE(config.members >= 1, "need at least one member");
  AugmentationResult result;
  result.local_only_makespan_s = local_only_makespan(config);

  Simulator sim;
  Rng rng(config.seed);

  // --- build pools -------------------------------------------------------
  std::vector<PoolRuntime> pools;
  {
    PoolRuntime home;
    home.name = "home";
    home.sched = std::make_unique<ClusterScheduler>(sim, config.home,
                                                    mtc::sge_params());
    home.fs_factor = 1.0;
    pools.push_back(std::move(home));
  }
  for (const auto& g : config.grid_pools) {
    PoolRuntime p;
    p.name = g.site.name;
    p.sched = std::make_unique<ClusterScheduler>(
        sim,
        remote_spec(g.site.name, g.cores, g.site.cpu_speed,
                    g.site.gateway_bps),
        mtc::sge_params());
    p.fs_factor = g.site.fs_factor;
    p.start_delay_s = g.site.sample_queue_wait(rng) +
                      kPrestageInputBytes / g.site.gateway_bps;
    pools.push_back(std::move(p));
  }
  if (config.cloud_pool) {
    const auto& c = *config.cloud_pool;
    PoolRuntime p;
    p.name = "ec2-" + c.instance.name;
    ClusterSpec spec;
    spec.name = p.name;
    spec.nfs_capacity_bps = 30e6;  // EC2's WAN link home (§5.4.3)
    for (std::size_t i = 0; i < c.instances; ++i) {
      NodeSpec n;
      n.name = p.name + "-" + std::to_string(i);
      n.cores = c.instance.schedulable_slots;
      n.cpu_speed = c.instance.cpu_speed;
      spec.nodes.push_back(n);
    }
    p.sched = std::make_unique<ClusterScheduler>(sim, std::move(spec),
                                                 mtc::sge_params());
    p.fs_factor = c.instance.fs_factor;
    p.start_delay_s = kProvisioningLatencyS +
                      kPrestageInputBytes / 30e6;
    pools.push_back(std::move(p));
  }

  // --- proportional block assignment (paper §5.3.1: "a clearly
  // separated block of ensemble members") ---------------------------------
  std::vector<double> power;
  double total_power = 0;
  for (const auto& p : pools) {
    power.push_back(pool_power(p.sched->cluster()));
    total_power += power.back();
  }
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    std::size_t share =
        (i + 1 == pools.size())
            ? config.members - assigned
            : static_cast<std::size_t>(std::floor(
                  static_cast<double>(config.members) * power[i] /
                  total_power));
    for (std::size_t k = 0; k < share; ++k)
      pools[i].member_ids.push_back(assigned + k);
    pools[i].outcome.members_assigned = share;
    assigned += share;
  }

  // --- run ---------------------------------------------------------------
  std::vector<double> home_arrival(config.members, -1.0);
  std::size_t landed = 0;

  for (auto& p : pools) {
    p.outcome.name = p.name;
    p.outcome.queue_wait_s = p.start_delay_s;
    auto* sched = p.sched.get();
    const double fs = p.fs_factor;
    for (std::size_t member : p.member_ids) {
      sim.at(p.start_delay_s, [&, sched, fs, member] {
        sched->submit([&, sched, fs, member](JobContext& ctx) {
          const auto& sh = config.shape;
          ctx.compute(sh.pert_cpu_s, [&, sched, fs, member] {
            ctx.busy_wait(sh.pert_fs_s * fs, [&, sched, member] {
              ctx.compute(sh.pemodel_cpu_s, [&, sched, member] {
                // Output travels home through this pool's gateway/NFS.
                ctx.transfer(sched->nfs(), config.shape.output_bytes,
                             [&, member] {
                               home_arrival[member] = sim.now();
                               ctx.finish();
                               ++landed;
                             });
              });
            });
          });
        });
      });
    }
  }
  sim.run();

  // --- metrics ------------------------------------------------------------
  result.makespan_s = 0;
  for (auto& p : pools) {
    double first = 0, last = 0;
    std::size_t completed = 0;
    for (std::size_t member : p.member_ids) {
      if (home_arrival[member] < 0) continue;
      ++completed;
      if (first == 0 || home_arrival[member] < first)
        first = home_arrival[member];
      last = std::max(last, home_arrival[member]);
    }
    p.outcome.members_completed = completed;
    p.outcome.first_finish_s = first;
    p.outcome.last_finish_s = last;
    result.makespan_s = std::max(result.makespan_s, last);
    result.pools.push_back(p.outcome);
  }

  // Disorder: fraction of member pairs (i < j) finishing out of order.
  // Sampled on a stride to stay O(members²/64).
  std::size_t inversions = 0, pairs = 0;
  for (std::size_t i = 0; i < config.members; i += 4) {
    for (std::size_t j = i + 4; j < config.members; j += 4) {
      if (home_arrival[i] < 0 || home_arrival[j] < 0) continue;
      ++pairs;
      if (home_arrival[j] < home_arrival[i]) ++inversions;
    }
  }
  result.disorder_fraction =
      pairs ? static_cast<double>(inversions) / static_cast<double>(pairs)
            : 0.0;

  if (config.cloud_pool) {
    const auto& c = *config.cloud_pool;
    mtc::BillingMeter meter;
    meter.charge_transfer_in(kPrestageInputBytes);
    const auto& cloud_outcome = result.pools.back();
    meter.charge_transfer_out(
        static_cast<double>(cloud_outcome.members_completed) *
        config.shape.output_bytes);
    meter.charge_instances(cloud_outcome.last_finish_s, c.instances,
                           c.instance.price_per_hour);
    result.cloud_cost_usd = meter.total();
    result.cloud_cost_reserved_usd = meter.total_reserved();
  }
  return result;
}

}  // namespace essex::workflow
