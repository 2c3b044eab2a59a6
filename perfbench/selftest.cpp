// Self-test of the benchmark's metric helpers (metrics.hpp). run.py runs
// it before every measurement and refuses to report when it fails.
//
//   ./.bench_build/perfbench_selftest   → "selftest: N checks passed"
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;
int checks = 0;

void check(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
  return xs;  // descending, so percentile() must sort
}

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 0.5).n == 0, "empty input has no samples");
  check(near(percentile({3.0}, 0.95).value, 3.0), "single sample");
  check(near(percentile({1, 2, 3, 4}, 0.5).value, 2.5),
        "median interpolates between the middle pair");
  check(near(percentile(ramp(11), 0.9).value, 10.0),
        "p90 of 1..11 lands on a sample");
  check(near(percentile(ramp(11), 0.95).value, 10.5), "p95 interpolates");

  // The >=10-samples-beyond rule: a median over 20 distinct samples has
  // exactly ten above it, over 19 only nine.
  check(percentile(ramp(20), 0.5).beyond == 10, "median of 20: 10 beyond");
  check(percentile(ramp(20), 0.5).meets_rule(), "median of 20 meets rule");
  check(!percentile(ramp(19), 0.5).meets_rule(), "median of 19 is thin");
  // p95 needs about 200 samples.
  check(percentile(ramp(200), 0.95).meets_rule(), "p95 of 200 meets rule");
  check(!percentile(ramp(100), 0.95).meets_rule(), "p95 of 100 is thin");
  // Ties at the percentile are not "beyond" it.
  check(percentile(std::vector<double>(50, 1.0), 0.5).beyond == 0,
        "constant samples have nothing beyond");
}

void test_self_time() {
  using perfbench::self_time;
  using perfbench::union_length;
  check(near(union_length({}), 0.0), "empty union");
  check(near(union_length({{0, 1}, {2, 3}}), 2.0), "disjoint intervals add");
  check(near(union_length({{0, 2}, {1, 3}}), 3.0), "overlap counted once");
  check(near(union_length({{0, 4}, {1, 2}}), 4.0), "nested interval");
  check(near(union_length({{1, 2}, {0, 1}}), 2.0), "touching, unsorted");
  check(near(union_length({{2, 1}}), 0.0), "inverted interval ignored");

  // Parent [0,10): children cover [1,4) (two overlapping workers) and
  // [6,7), plus a child running past the parent's end.
  check(near(self_time({0, 10}, {{1, 3}, {2, 4}, {6, 7}}), 6.0),
        "self time subtracts the union of children");
  check(near(self_time({0, 10}, {{9, 12}}), 9.0),
        "child time outside the parent is ignored");
  check(near(self_time({0, 10}, {}), 10.0), "leaf span is all self time");
}

void test_latency_from_due() {
  perfbench::RequestTiming t;
  t.due_s = 1.0;
  t.submitted_s = 1.5;  // the generator stalled half a second
  t.done_s = 1.7;
  check(near(t.latency_s(), 0.7), "latency counts from the due time");
  check(near(t.generator_lag_s(), 0.5), "generator lag is submit - due");
  t.submitted_s = 0.999;  // early wake-up is not negative lag
  check(near(t.generator_lag_s(), 0.0), "lag never negative");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_latency_from_due();
  if (failures) {
    std::fprintf(stderr, "selftest: %d of %d checks failed\n", failures,
                 checks);
    return 1;
  }
  std::printf("selftest: %d checks passed\n", checks);
  return 0;
}
