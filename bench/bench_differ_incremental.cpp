// The PR-2 tentpole measurement: cumulative differ+SVD cost of the
// continuously-running convergence test on a Fig.-2-style growth
// schedule, full-recompute baseline vs the incremental Gram-cached
// pipeline.
//
// The baseline replays exactly what the pre-incremental code paid at
// every check: an O(m·n) deep copy of the anomaly matrix plus a
// from-scratch Gram SVD (AᵀA rebuild + full U = A·V), O(m·n²). The
// incremental series pays the Gram border once per absorbed member
// (O(m·k)) and then only a small n×n eigensolve plus U over the
// retained modes at each check. Both series and the cache-hit counters
// land in results/ (CSV + telemetry JSON).
//
// Usage: bench_differ_incremental [state_dim] [n_max] [check_interval]
//
// Exit status: 0 when the subspaces agree and the speedup meets the 3x
// floor, 1 when the incremental and full-recompute subspaces disagree,
// 3 when they agree but the speedup misses the floor.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

int main(int argc, char** argv) {
  using namespace essex;

  const std::size_t m = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24000;
  const std::size_t n_max = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 96;
  const std::size_t check = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;
  const double vf = 0.99;
  const std::size_t max_rank = 24;

  // Synthetic forecast ensemble about a flat central state: a planted
  // low-rank signal plus white noise, so truncation behaves like a real
  // forecast ensemble (dominant modes + a noise floor).
  Rng rng(4242);
  const std::size_t planted = 12;
  std::vector<la::Vector> modes;
  for (std::size_t l = 0; l < planted; ++l) modes.push_back(rng.normals(m));
  la::Vector central(m, 0.0);
  std::vector<la::Vector> forecasts;
  forecasts.reserve(n_max);
  for (std::size_t k = 0; k < n_max; ++k) {
    la::Vector x(m);
    for (std::size_t i = 0; i < m; ++i) x[i] = 0.05 * rng.normal();
    for (std::size_t l = 0; l < planted; ++l) {
      const double c =
          rng.normal() * (2.0 / static_cast<double>(l + 1));
      const la::Vector& e = modes[l];
      for (std::size_t i = 0; i < m; ++i) x[i] += c * e[i];
    }
    forecasts.push_back(std::move(x));
  }

  telemetry::Sink full_sink("bench_differ_incremental.full");
  telemetry::Sink incr_sink("bench_differ_incremental.incremental");

  struct CheckRow {
    std::size_t n;
    double full_cum_s;
    double incr_cum_s;
    double rho;
  };
  std::vector<CheckRow> rows;

  // ---- full-recompute baseline (the pre-PR pipeline) -------------------
  std::vector<esse::ErrorSubspace> full_subspaces;
  double full_cum = 0;
  {
    std::vector<la::Vector> anomalies;  // what the old differ stored
    for (std::size_t k = 0; k < n_max; ++k) {
      double t0 = telemetry::wall_seconds();
      la::Vector anom(m);
      for (std::size_t i = 0; i < m; ++i)
        anom[i] = forecasts[k][i] - central[i];
      anomalies.push_back(std::move(anom));
      full_cum += telemetry::wall_seconds() - t0;
      const std::size_t n = k + 1;
      if (n % check == 0 && n >= 2) {
        t0 = telemetry::wall_seconds();
        la::Matrix a = la::Matrix::from_columns(anomalies);  // deep copy
        a *= 1.0 / std::sqrt(static_cast<double>(n - 1));
        const la::ThinSvd svd = la::svd_thin(a, la::SvdMethod::kGram);
        full_subspaces.push_back(
            esse::ErrorSubspace::from_svd(svd.u, svd.s, vf, max_rank));
        const double dt = telemetry::wall_seconds() - t0;
        full_cum += dt;
        full_sink.count("differ.full_recomputes");
        full_sink.observe("differ.subspace_s", dt);
        full_sink.event("bench.check_s", static_cast<double>(n), dt);
      }
    }
    full_sink.gauge_set("bench.cumulative_s", full_cum);
  }

  // ---- incremental Gram-cached pipeline --------------------------------
  double incr_cum = 0;
  {
    esse::Differ differ(central);
    differ.set_sink(&incr_sink);
    std::size_t ci = 0;
    for (std::size_t k = 0; k < n_max; ++k) {
      double t0 = telemetry::wall_seconds();
      differ.add_member(k, forecasts[k]);  // pays the O(m·k) border here
      incr_cum += telemetry::wall_seconds() - t0;
      const std::size_t n = k + 1;
      if (n % check == 0 && n >= 2) {
        t0 = telemetry::wall_seconds();
        esse::ErrorSubspace sub = differ.subspace(vf, max_rank);
        const double dt = telemetry::wall_seconds() - t0;
        incr_cum += dt;
        incr_sink.event("bench.check_s", static_cast<double>(n), dt);
        const double rho =
            esse::subspace_similarity(sub, full_subspaces[ci]);
        rows.push_back({n, 0.0, incr_cum, rho});
        ++ci;
      }
    }
    incr_sink.gauge_set("bench.cumulative_s", incr_cum);
  }

  // Recover the baseline cumulative series from its per-check events.
  {
    double cum = 0;
    std::size_t r = 0;
    for (const auto& ev : full_sink.recorder().events()) {
      if (ev.name != "bench.check_s") continue;
      cum += ev.value;
      if (r < rows.size()) rows[r++].full_cum_s = cum;
    }
    // Fold the (tiny) anomaly-build time into the last row so the
    // cumulative totals match the gauges.
    if (!rows.empty()) rows.back().full_cum_s = full_cum;
  }

  Table t("Incremental Gram-cached differ vs full recompute (m=" +
          std::to_string(m) + ", checks every " + std::to_string(check) +
          " members)");
  t.set_header({"N", "full cum s", "incremental cum s", "speedup",
                "rho(full,incr)"});
  bool subspaces_agree = true;
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.n), Table::num(r.full_cum_s, 4),
               Table::num(r.incr_cum_s, 4),
               Table::num(r.full_cum_s / r.incr_cum_s, 2),
               Table::num(r.rho, 12)});
    if (r.rho < 1.0 - 1e-10) subspaces_agree = false;
  }
  t.print(std::cout);
  t.write_csv("results/bench_differ_incremental.csv");
  telemetry::write_sessions_json("results/bench_differ_incremental.telemetry.json",
                                 {&full_sink, &incr_sink});

  const double speedup = full_cum / incr_cum;
  std::cout << "\ncumulative differ+SVD time: full=" << Table::num(full_cum, 3)
            << "s incremental=" << Table::num(incr_cum, 3)
            << "s speedup=" << Table::num(speedup, 2) << "x\n"
            << "subspaces agree to 1-1e-10: "
            << (subspaces_agree ? "yes" : "NO") << "\n"
            << "series in results/bench_differ_incremental.csv, counters in "
               "results/bench_differ_incremental.telemetry.json\n";
  if (speedup < 3.0)
    std::cout << "WARNING: speedup below the 3x acceptance floor\n";
  if (!subspaces_agree) return 1;
  return speedup < 3.0 ? 3 : 0;
}
