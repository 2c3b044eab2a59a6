// ESSEX: metric primitives for the telemetry layer.
//
// The paper's whole evaluation (§5) is a metrics story — pert CPU
// utilisation, negotiation-cycle penalties, per-host timings — so the
// schedulers, workflow drivers and benches share one vocabulary of
// counters, gauges and histograms instead of hand-rolled ad-hoc
// accumulators. A MetricsRegistry names and owns metric instruments;
// references handed out by the registry stay valid for its lifetime, so
// hot paths capture them once and update lock-free (counters/gauges) or
// under a short mutex (histograms).
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace essex::telemetry {

/// Monotonically accumulating value (events seen, seconds burnt, bytes
/// moved). Thread-safe; relaxed atomics keep the hot path to one RMW.
class Counter {
 public:
  void add(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value (queue depth, utilisation).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of observed samples (dispatch latency, member wall time).
/// Keeps exact summary statistics always, and the raw samples up to a cap
/// so quantiles stay exact for bench-scale populations.
class Histogram {
 public:
  /// Retained-sample cap; summary stats keep counting past it.
  static constexpr std::size_t kMaxSamples = 65536;

  void observe(double v);

  std::size_t count() const;
  double sum() const;
  double mean() const;    ///< 0 when empty
  double min() const;     ///< 0 when empty
  double max() const;     ///< 0 when empty
  /// Exact q-quantile (0..1) over the retained samples; 0 when empty.
  double quantile(double q) const;

 private:
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named home of a session's instruments. Registration is idempotent:
/// asking for an existing name returns the same instance, so independent
/// components naturally share a metric. Lookup of a missing name from the
/// read-side accessors throws essex::PreconditionError — a misspelt
/// metric in a bench or test should fail loudly, not read silent zeros.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Value of the counter or gauge registered under `name`.
  double value(const std::string& name) const;
  /// The histogram registered under `name`.
  const Histogram& histogram_at(const std::string& name) const;
  bool has(const std::string& name) const;

  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// Append this registry as a JSON object {"counters":…, "gauges":…,
  /// "histograms":…} to `out`.
  void append_json(std::string& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace essex::telemetry
