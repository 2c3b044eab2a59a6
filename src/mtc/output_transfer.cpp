#include "mtc/output_transfer.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/sim.hpp"

namespace essex::mtc {

namespace {

/// Site-shared filesystem bandwidth (two-stage return).
constexpr double kSiteFsBps = 500e6;

/// Shared state of one replay.
struct Replay {
  Simulator sim;
  std::unique_ptr<BandwidthResource> wan;
  std::unique_ptr<BandwidthResource> site_fs;
  std::size_t wan_flows = 0;
  std::size_t peak_wan_flows = 0;
  std::vector<double> home_at;  // per member
  telemetry::Sink* sink = nullptr;

  void wan_transfer(double bytes, std::size_t member,
                    Simulator::Callback done) {
    ++wan_flows;
    peak_wan_flows = std::max(peak_wan_flows, wan_flows);
    if (sink)
      sink->event("output.wan_flows", sim.now(),
                  static_cast<double>(wan_flows));
    wan->start_transfer(bytes, [this, member, done = std::move(done)] {
      --wan_flows;
      if (sink)
        sink->event("output.wan_flows", sim.now(),
                    static_cast<double>(wan_flows));
      if (member != static_cast<std::size_t>(-1))
        home_at[member] = sim.now();
      if (done) done();
    });
  }
};

/// An agent channel that drains a ready-queue over one persistent
/// connection (pull model and the second stage of two-stage put).
struct AgentChannel {
  Replay& replay;
  const OutputReturnConfig& cfg;
  std::deque<std::size_t>& ready;
  bool busy = false;
  bool connected = false;

  void pump() {
    if (busy || ready.empty()) return;
    busy = true;
    const std::size_t member = ready.front();
    ready.pop_front();
    auto start_transfer = [this, member] {
      replay.wan_transfer(cfg.file_bytes, member, [this] {
        busy = false;
        pump();
      });
    };
    if (!connected) {
      connected = true;  // setup paid once per channel
      replay.sim.after(cfg.connection_setup_s, start_transfer);
    } else {
      start_transfer();
    }
  }
};

}  // namespace

OutputReturnMetrics simulate_output_return(
    const std::vector<double>& completion_times_s,
    const OutputReturnConfig& config) {
  ESSEX_REQUIRE(!completion_times_s.empty(), "need at least one member");
  ESSEX_REQUIRE(config.gateway_bps > 0, "bandwidths must be positive");
  ESSEX_REQUIRE(config.agent_streams >= 1, "need at least one stream");
  const std::size_t n = completion_times_s.size();

  Replay rp;
  rp.wan = std::make_unique<BandwidthResource>(rp.sim, config.gateway_bps,
                                               "wan");
  rp.site_fs = std::make_unique<BandwidthResource>(
      rp.sim, kSiteFsBps, "site-fs");
  rp.home_at.assign(n, 0.0);
  rp.sink = config.sink;

  std::deque<std::size_t> ready;
  std::vector<std::unique_ptr<AgentChannel>> channels;
  const bool agent_based =
      config.strategy != OutputTransfer::kPushImmediate;
  if (agent_based) {
    for (std::size_t c = 0; c < config.agent_streams; ++c) {
      channels.push_back(std::make_unique<AgentChannel>(
          AgentChannel{rp, config, ready, false, false}));
    }
  }
  auto pump_agents = [&] {
    for (auto& ch : channels) ch->pump();
  };

  for (std::size_t i = 0; i < n; ++i) {
    const double t = completion_times_s[i];
    ESSEX_REQUIRE(t >= 0, "completion times must be non-negative");
    switch (config.strategy) {
      case OutputTransfer::kPushImmediate:
        // Every node opens its own connection the moment it finishes.
        rp.sim.at(t, [&rp, &config, i] {
          rp.sim.after(config.connection_setup_s, [&rp, &config, i] {
            rp.wan_transfer(config.file_bytes, i, nullptr);
          });
        });
        break;
      case OutputTransfer::kPullPaced:
        // The file becomes visible to the home pull-agent at completion.
        rp.sim.at(t, [&ready, &pump_agents, i] {
          ready.push_back(i);
          pump_agents();
        });
        break;
      case OutputTransfer::kTwoStagePut:
        // Node writes to the site-shared filesystem first; the site
        // agent forwards from there.
        rp.sim.at(t, [&rp, &config, &ready, &pump_agents, i] {
          rp.site_fs->start_transfer(
              config.file_bytes, [&ready, &pump_agents, i] {
                ready.push_back(i);
                pump_agents();
              });
        });
        break;
    }
  }

  rp.sim.run();

  OutputReturnMetrics m;
  double latency_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ESSEX_ASSERT(rp.home_at[i] > 0, "member output never reached home");
    m.all_home_s = std::max(m.all_home_s, rp.home_at[i]);
    const double lat = rp.home_at[i] - completion_times_s[i];
    latency_sum += lat;
    m.max_latency_s = std::max(m.max_latency_s, lat);
  }
  m.mean_latency_s = latency_sum / static_cast<double>(n);
  m.peak_concurrent_wan = rp.peak_wan_flows;
  m.gateway_busy_s = rp.wan->busy_seconds();
  if (config.sink) {
    telemetry::Sink& sink = *config.sink;
    for (std::size_t i = 0; i < n; ++i)
      sink.observe("output.latency_s", rp.home_at[i] - completion_times_s[i]);
    sink.count("output.files", static_cast<double>(n));
    sink.gauge_set("output.all_home_s", m.all_home_s);
    sink.gauge_set("output.peak_concurrent_wan",
                   static_cast<double>(m.peak_concurrent_wan));
    sink.gauge_set("output.gateway_busy_s", m.gateway_busy_s);
  }
  return m;
}

}  // namespace essex::mtc
