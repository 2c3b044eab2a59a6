// ESSEX: event/span telemetry for the MTC scheduler and ESSE runners.
//
// One Sink bundles a MetricsRegistry (counters/gauges/histograms) with a
// Recorder (timestamped events and begin/end spans). Components take a
// nullable Sink* — a null sink keeps the hot path at a single pointer
// test, so instrumentation costs nothing when nobody is listening.
//
// Timestamps are plain doubles: DES components stamp simulated seconds,
// real-thread components stamp wall_seconds(). Exporters write the whole
// session (metrics + events + spans) as JSON into results/ so the §5
// paper figures are read out of recorded telemetry.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace essex::telemetry {

/// A point-in-time occurrence: "job 17 dispatched", "SVD over n=550".
struct Event {
  double t = 0.0;
  std::string name;
  double value = 0.0;
};

/// A named interval. `end < begin` marks a span still open at export.
struct Span {
  std::string name;
  double begin = 0.0;
  double end = -1.0;
};

/// Append-only, thread-safe event/span log.
class Recorder {
 public:
  void event(const std::string& name, double t, double value = 0.0);

  /// Open a span; returns its id for end_span.
  std::uint64_t begin_span(const std::string& name, double t);
  void end_span(std::uint64_t id, double t);

  std::vector<Event> events() const;
  std::vector<Span> spans() const;
  std::size_t event_count() const;
  std::size_t span_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::vector<Span> spans_;
};

/// A telemetry session: named metrics + event log, exported together.
class Sink {
 public:
  explicit Sink(std::string name = "essex");

  const std::string& name() const { return name_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Recorder& recorder() { return recorder_; }
  const Recorder& recorder() const { return recorder_; }

  // Convenience forwarding used by instrumented hot paths.
  void count(const std::string& name, double delta = 1.0) {
    metrics_.counter(name).add(delta);
  }
  void gauge_set(const std::string& name, double v) {
    metrics_.gauge(name).set(v);
  }
  void observe(const std::string& name, double v) {
    metrics_.histogram(name).observe(v);
  }
  void event(const std::string& name, double t, double value = 0.0) {
    recorder_.event(name, t, value);
  }

 private:
  std::string name_;
  MetricsRegistry metrics_;
  Recorder recorder_;
};

/// Write several sessions into one machine-readable JSON file:
/// [{"session":…, "metrics":…, "events":[…], "spans":[…]}, …].
/// Parent directories are created as needed.
void write_sessions_json(const std::string& path,
                         const std::vector<const Sink*>& sinks);

/// Monotonic wall clock in seconds (for real-thread timestamps). Reads
/// the process clock unless a test has swapped in a fake via
/// ScopedFakeClock — the same injection idea as the DES
/// ExecutionBackend's now()/after(), applied to the telemetry stamps.
double wall_seconds();

/// Test-only clock injection: while alive, wall_seconds() returns the
/// value of an atomic counter the test advances explicitly, so
/// span/histogram assertions are exact instead of sleep-and-hope.
/// Restores the real clock on destruction. Not reentrant.
class ScopedFakeClock {
 public:
  explicit ScopedFakeClock(double start_s = 0.0);
  ~ScopedFakeClock();
  ScopedFakeClock(const ScopedFakeClock&) = delete;
  ScopedFakeClock& operator=(const ScopedFakeClock&) = delete;

  void advance(double dt_s);
  double now() const;
};

/// RAII wall-clock timer: on destruction observes the elapsed seconds
/// into histogram `name` and appends a matching span. Null sink is a
/// no-op.
class ScopedTimer {
 public:
  ScopedTimer(Sink* sink, std::string name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Sink* sink_;
  std::string name_;
  double t0_ = 0.0;
  std::uint64_t span_ = 0;
};

}  // namespace essex::telemetry
