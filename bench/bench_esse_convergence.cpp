// Reproduces the Fig. 2 convergence behaviour with *real* numerics: the
// weighted subspace similarity rho(N) between successive error-subspace
// estimates as the ensemble grows, and the adaptive-size trace.
//
// The paper: "A convergence criterion compares error subspaces of
// different sizes. Hence the dimensions of the ensemble and error
// subspace vary in time in accord with data and dynamics."
#include <cmath>
#include <iostream>
#include <optional>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/tangent.hpp"
#include "ocean/monterey.hpp"

int main() {
  using namespace essex;

  ocean::Scenario sc = ocean::make_monterey_scenario(24, 20, 4);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  esse::ErrorSubspace nowcast = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 12.0, 16, 0.99, 12, /*seed=*/101);

  // Run one large ensemble once; evaluate the subspace at growing N.
  const std::size_t n_max = 96;
  esse::PerturbationGenerator gen(nowcast, {.white_noise = 0.01, .seed = 101});
  const la::Vector packed = sc.initial.pack();
  ocean::OceanState central = sc.initial;
  model.run(central, 0.0, 12.0, nullptr);
  esse::Differ differ(central.pack());
  for (std::size_t i = 0; i < n_max; ++i) {
    ocean::OceanState s(sc.grid);
    s.unpack(gen.perturbed_state(packed, i), sc.grid);
    Rng mrng(101 ^ 0xA5A5A5A5ULL, i + 1);
    model.run(s, 0.0, 12.0, &mrng);
    differ.add_member(i, s.pack());
  }

  Table t("Fig 2: error-subspace convergence vs ensemble size");
  t.set_header({"N", "rank(0.99)", "total variance", "rho vs previous"});
  esse::ConvergenceTest conv({0.97, 8});
  // Evaluate the subspace at N = 8, 16, 24, ... over a column-prefix
  // view of the first N members (order-free, as the differ guarantees):
  // each check reuses the cached Gram border rows instead of rebuilding
  // AᵀA — the incremental pipeline the PR-2 tentpole introduced.
  for (std::size_t n = 8; n <= n_max; n += 8) {
    esse::ErrorSubspace sub =
        esse::subspace_from_view(differ.view(n), 0.99, 24);
    double rho = -1;
    if (auto r = conv.update(sub, n)) rho = *r;
    t.add_row({std::to_string(n), std::to_string(sub.rank()),
               Table::num(sub.total_variance(), 4),
               rho < 0 ? std::string("-") : Table::num(rho, 4)});
  }
  t.print(std::cout);
  t.write_csv("results/bench_esse_convergence.csv");
  std::cout << "\nconverged at threshold 0.97: "
            << (conv.converged() ? "yes" : "no")
            << " — rho rises toward 1 as N grows (Fig. 2's convergence "
               "test), while the retained rank stabilises.\n";

  // Adaptive-size trace from the production driver.
  esse::CycleParams params;
  params.forecast_hours = 12.0;
  params.ensemble = {16, 2.0, 96};
  params.convergence = {0.97, 12};
  params.check_interval = 8;
  params.max_rank = 24;
  esse::ForecastResult fr = esse::run_uncertainty_forecast(
      model, sc.initial, nowcast, 0.0, params);
  std::cout << "\nadaptive driver: ran " << fr.members_run
            << " members, converged=" << (fr.converged ? "yes" : "no")
            << "; history:\n";
  for (const auto& s : fr.convergence_history)
    std::cout << "  N=" << s.n_members << "  rho=" << Table::num(s.similarity, 4)
              << "\n";

  // Ablation: deterministic tangent-linear mode propagation vs the
  // Monte-Carlo ensemble (rank+1 runs vs N runs; misses model noise).
  esse::TangentForecast tf = esse::tangent_forecast(
      model, sc.initial, nowcast, 0.0, 12.0, 1.0, 1, 0.99, 24);
  const double rho_tangent =
      esse::subspace_similarity(tf.forecast_subspace, fr.forecast_subspace);
  std::cout << "\ntangent-linear ablation: " << tf.model_runs
            << " model runs (vs " << fr.members_run
            << " ensemble members) give a subspace with rho="
            << Table::num(rho_tangent, 3)
            << " vs the ensemble estimate — cheap but blind to the "
               "stochastic forcing dEta.\n";
  return 0;
}
