#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace essex::telemetry {

// ---- Histogram ----------------------------------------------------------

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(v);
    sorted_ = false;
  }
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sum_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lk(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_;
}

double Histogram::quantile(double q) const {
  ESSEX_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  std::lock_guard<std::mutex> lk(mu_);
  if (samples_.empty()) return 0.0;
  // Lazily sort the retained samples in place; `samples_` only ever grows
  // by appending, so sorted_ correctly tracks staleness.
  auto& s = samples_;
  if (!sorted_) {
    std::sort(s.begin(), s.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

// ---- MetricsRegistry ----------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

double MetricsRegistry::value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = counters_.find(name); it != counters_.end())
    return it->second->value();
  if (auto it = gauges_.find(name); it != gauges_.end())
    return it->second->value();
  ESSEX_REQUIRE(false, "no counter or gauge named '" + name + "'");
  return 0.0;  // unreachable
}

const Histogram& MetricsRegistry::histogram_at(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  ESSEX_REQUIRE(it != histograms_.end(),
                "no histogram named '" + name + "'");
  return *it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.count(name) || gauges_.count(name) ||
         histograms_.count(name);
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  return out;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(gauges_.size());
  for (const auto& [k, v] : gauges_) out.push_back(k);
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [k, v] : histograms_) out.push_back(k);
  return out;
}

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double v) {
  // JSON has no inf/nan; clamp them to null.
  if (!std::isfinite(v)) return "null";
  return fmt(v);
}

}  // namespace

void MetricsRegistry::append_json(std::string& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape_into(out, name);
    out += "\":";
    out += json_number(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape_into(out, name);
    out += "\":";
    out += json_number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape_into(out, name);
    out += "\":{\"count\":" + std::to_string(h->count());
    out += ",\"sum\":" + json_number(h->sum());
    out += ",\"mean\":" + json_number(h->mean());
    out += ",\"min\":" + json_number(h->min());
    out += ",\"max\":" + json_number(h->max());
    out += ",\"p50\":" + json_number(h->quantile(0.5));
    out += ",\"p95\":" + json_number(h->quantile(0.95));
    out += '}';
  }
  out += "}}";
}

}  // namespace essex::telemetry
