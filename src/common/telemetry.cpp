#include "common/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace essex::telemetry {

// ---- Recorder -----------------------------------------------------------

void Recorder::event(const std::string& name, double t, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(Event{t, name, value});
}

std::uint64_t Recorder::begin_span(const std::string& name, double t) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, t, -1.0});
  return spans_.size() - 1;
}

void Recorder::end_span(std::uint64_t id, double t) {
  std::lock_guard<std::mutex> lk(mu_);
  ESSEX_REQUIRE(id < spans_.size(), "end_span: unknown span id");
  spans_[id].end = t;
}

std::vector<Event> Recorder::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::size_t Recorder::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::size_t Recorder::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

// ---- Sink / exporters ---------------------------------------------------

Sink::Sink(std::string name) : name_(std::move(name)) {}

namespace {

void escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::ofstream open_for_write(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream os(path);
  ESSEX_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  return os;
}

void append_session_json(std::string& out, const Sink& sink) {
  out += "{\"session\":\"";
  escape_into(out, sink.name());
  out += "\",\"metrics\":";
  sink.metrics().append_json(out);
  out += ",\"events\":[";
  bool first = true;
  for (const Event& e : sink.recorder().events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"t\":" + num(e.t) + ",\"name\":\"";
    escape_into(out, e.name);
    out += "\",\"value\":" + num(e.value) + '}';
  }
  out += "],\"spans\":[";
  first = true;
  for (const Span& s : sink.recorder().spans()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    escape_into(out, s.name);
    out += "\",\"begin\":" + num(s.begin) + ",\"end\":" + num(s.end) + '}';
  }
  out += "]}";
}

}  // namespace

void write_sessions_json(const std::string& path,
                         const std::vector<const Sink*>& sinks) {
  std::string out;
  out += '[';
  bool first = true;
  for (const Sink* s : sinks) {
    ESSEX_REQUIRE(s != nullptr, "null sink in write_sessions_json");
    if (!first) out += ',';
    first = false;
    append_session_json(out, *s);
  }
  out += "]\n";
  auto os = open_for_write(path);
  os << out;
  ESSEX_REQUIRE(os.good(), "write failed for '" + path + "'");
}

namespace {
// Fake-clock state for ScopedFakeClock. `fake_active` is atomic because
// wall_seconds() may be stamped from worker threads while a test holds
// the override; the value itself only moves via advance() on the test
// thread.
std::atomic<bool> fake_active{false};
std::atomic<double> fake_now_s{0.0};
}  // namespace

double wall_seconds() {
  if (fake_active.load(std::memory_order_acquire))
    return fake_now_s.load(std::memory_order_acquire);
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

ScopedFakeClock::ScopedFakeClock(double start_s) {
  ESSEX_REQUIRE(!fake_active.load(std::memory_order_acquire),
                "ScopedFakeClock is not reentrant");
  fake_now_s.store(start_s, std::memory_order_release);
  fake_active.store(true, std::memory_order_release);
}

ScopedFakeClock::~ScopedFakeClock() {
  fake_active.store(false, std::memory_order_release);
}

void ScopedFakeClock::advance(double dt_s) {
  ESSEX_REQUIRE(dt_s >= 0.0, "fake clock cannot run backwards");
  fake_now_s.store(fake_now_s.load(std::memory_order_acquire) + dt_s,
                   std::memory_order_release);
}

double ScopedFakeClock::now() const {
  return fake_now_s.load(std::memory_order_acquire);
}

ScopedTimer::ScopedTimer(Sink* sink, std::string name)
    : sink_(sink), name_(std::move(name)) {
  if (!sink_) return;
  t0_ = wall_seconds();
  span_ = sink_->recorder().begin_span(name_, t0_);
}

ScopedTimer::~ScopedTimer() {
  if (!sink_) return;
  const double t1 = wall_seconds();
  sink_->recorder().end_span(span_, t1);
  sink_->metrics().histogram(name_).observe(t1 - t0_);
}

}  // namespace essex::telemetry
