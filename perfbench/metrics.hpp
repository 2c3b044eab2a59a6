// Metric helpers of the end-to-end benchmark, kept free of ESSEX headers
// so selftest.cpp can pin them without building the libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// One percentile of a sample set, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly greater than `value`
  /// A tail percentile is trustworthy only with at least ten samples
  /// beyond it; below that it is reported but flagged thin.
  bool meets_rule() const { return beyond >= 10; }
};

/// Linearly interpolated q-quantile (q in [0, 1]) of `xs`, the numpy
/// "linear" definition. Empty input gives value 0 with n = 0.
inline Percentile percentile(std::vector<double> xs, double q) {
  Percentile p;
  p.n = xs.size();
  if (xs.empty()) return p;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  p.value = xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  p.beyond = static_cast<std::size_t>(
      xs.end() - std::upper_bound(xs.begin(), xs.end(), p.value));
  return p;
}

/// Closed-open time interval [begin, end).
using Interval = std::pair<double, double>;

/// Total length covered by the union of `intervals` (overlaps counted
/// once; empty or inverted intervals contribute nothing).
inline double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_begin = 0.0, cur_end = 0.0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (!(e > b)) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Self time of `parent`: its duration minus the part of it that the
/// union of `children` covers. Child time outside the parent is ignored.
inline double self_time(const Interval& parent,
                        const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const auto& [b, e] : children)
    clipped.emplace_back(std::max(b, parent.first), std::min(e, parent.second));
  return std::max(0.0, parent.second - parent.first) - union_length(clipped);
}

/// Open-loop timing of one request. Latency runs from when the request
/// was due, not from when the generator got round to sending it, so a
/// generator stall is charged to every request it delayed.
struct RequestTiming {
  double due_s = 0.0;
  double submitted_s = 0.0;
  double done_s = 0.0;

  double latency_s() const { return done_s - due_s; }
  double generator_lag_s() const { return std::max(0.0, submitted_s - due_s); }
};

}  // namespace perfbench
