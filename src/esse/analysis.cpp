#include "esse/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "esse/local_analysis.hpp"
#include "linalg/chol.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/stats.hpp"
#include "ocean/state.hpp"

namespace essex::esse {

const char* to_string(AnalysisMethod method) {
  switch (method) {
    case AnalysisMethod::kSubspaceKalman:
      return "subspace_kalman";
    case AnalysisMethod::kMultiModel:
      return "multi_model";
  }
  return "unknown";
}

const std::vector<AnalysisMethod>& analysis_method_registry() {
  static const std::vector<AnalysisMethod> kRegistry = {
      AnalysisMethod::kSubspaceKalman, AnalysisMethod::kMultiModel};
  return kRegistry;
}

bool is_registered(AnalysisMethod method) {
  const auto& reg = analysis_method_registry();
  return std::find(reg.begin(), reg.end(), method) != reg.end();
}

namespace detail {

la::Matrix posterior_core(const la::Vector& sigmas, const la::Matrix& g) {
  const std::size_t k = sigmas.size();
  la::Matrix inner = la::Matrix::identity(k);
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      inner(a, b) += sigmas[a] * g(a, b) * sigmas[b];
  la::Matrix bmat(k, k);
  for (std::size_t a = 0; a < k; ++a) bmat(a, a) = sigmas[a];
  la::Matrix inner_inv_b = la::cholesky_solve(inner, bmat);  // inner⁻¹ B
  return la::matmul(bmat, inner_inv_b);                      // B inner⁻¹ B
}

std::size_t kept_rank(const la::Vector& eigenvalues) {
  std::size_t keep = 0;
  while (keep < eigenvalues.size() &&
         eigenvalues[keep] > 1e-14 * std::max(eigenvalues[0], 1e-300)) {
    ++keep;
  }
  return std::max<std::size_t>(keep, 1);
}

}  // namespace detail

double gaspari_cohn(double dist, double half_support) {
  if (half_support <= 0.0) return dist == 0.0 ? 1.0 : 0.0;
  const double r = dist / half_support;
  if (r >= 2.0) return 0.0;
  const double r2 = r * r, r3 = r2 * r, r4 = r3 * r, r5 = r4 * r;
  if (r < 1.0) {
    return -0.25 * r5 + 0.5 * r4 + 0.625 * r3 - 5.0 / 3.0 * r2 + 1.0;
  }
  return r5 / 12.0 - 0.5 * r4 + 0.625 * r3 + 5.0 / 3.0 * r2 - 5.0 * r +
         4.0 - 2.0 / (3.0 * r);
}

namespace {

/// A NaN or Inf anywhere in an observation would flow through HE, the
/// innovation or R⁻¹ into a NaN posterior without any solver noticing,
/// so every entry is checked once, before any path runs.
void require_finite_obs(const ObsSet& obs) {
  for (const ObsEntry& e : obs.entries()) {
    ESSEX_REQUIRE(std::isfinite(e.value), "non-finite observation value");
    for (const auto& term : e.stencil)
      ESSEX_REQUIRE(std::isfinite(term.second),
                    "non-finite observation stencil weight");
    ESSEX_REQUIRE(std::isfinite(e.variance) && e.variance > 0.0,
                  "observation noise variance must be finite and positive");
    ESSEX_REQUIRE(!e.positioned ||
                      (std::isfinite(e.x_km) && std::isfinite(e.y_km)),
                  "non-finite observation position");
  }
}

/// Fill HE = H·E. Serial when one worker (the pre-refactor loop, bit for
/// bit); otherwise contiguous row blocks fan out over a pool — every
/// entry is computed by the same per-entry stencil accumulation into a
/// disjoint slot, so the parallel build is bitwise identical to the
/// serial one.
void build_he(la::Matrix& he, const ObsSet& obs, const la::Matrix& modes,
              std::size_t workers) {
  const std::size_t p = he.rows();
  const std::size_t k = he.cols();
  if (workers <= 1) {
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < k; ++j)
        he(i, j) = obs.apply_mode(i, modes, j);
    return;
  }
  ThreadPool pool(workers);
  const std::size_t block = (p + workers - 1) / workers;
  std::vector<std::future<void>> futs;
  futs.reserve(workers);
  for (std::size_t lo = 0; lo < p; lo += block) {
    const std::size_t hi = std::min(lo + block, p);
    futs.push_back(pool.submit([&he, &obs, &modes, lo, hi, k] {
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t j = 0; j < k; ++j)
          he(i, j) = obs.apply_mode(i, modes, j);
    }));
  }
  for (auto& f : futs) f.get();
}

/// The historical dense subspace-Kalman update over the whole domain.
/// The HE/innovation arithmetic accumulates in stencil order, exactly as
/// ObsOperator does, so the update stays bitwise unchanged whichever
/// ObsSet front end built the set.
AnalysisResult analyze_global(const la::Vector& forecast,
                              const ErrorSubspace& subspace,
                              const ObsSet& obs,
                              const AnalysisOptions& options) {
  const std::size_t p = obs.size();
  const std::size_t k = subspace.rank();

  const std::size_t workers =
      std::min(std::max<std::size_t>(options.threads, 1), p);
  la::Matrix he(p, k);
  build_he(he, obs, subspace.modes(), workers);
  if (options.sink) {
    options.sink->gauge_set("analysis.threads",
                            static_cast<double>(workers));
  }
  const la::Vector d = obs.innovations(forecast);
  la::Vector rvar(p);
  for (std::size_t i = 0; i < p; ++i) rvar[i] = obs.entry(i).variance;

  // Information-form core: C = (Λ⁻¹ + HEᵀ R⁻¹ HE)⁻¹, computed as
  // C = B (I + Bᵀ G B)⁻¹ B with B = Λ^{1/2}, G = HEᵀ R⁻¹ HE (upper
  // triangle row by row, mirrored).
  la::Matrix g(k, k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      double s = 0.0;
      for (std::size_t i = 0; i < p; ++i)
        s += he(i, a) * he(i, b) / rvar[i];
      g(a, b) = s;
      g(b, a) = s;
    }
  }
  const la::Matrix c = detail::posterior_core(subspace.sigmas(), g);

  // w = C · HEᵀ R⁻¹ d (subspace coefficients of the increment).
  la::Vector rhs(k, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    double s = 0.0;
    for (std::size_t i = 0; i < p; ++i) s += he(i, a) * d[i] / rvar[i];
    rhs[a] = s;
  }
  const la::Vector w = la::matvec(c, rhs);

  AnalysisResult out;
  out.posterior_state = forecast;
  const la::Vector incr = subspace.expand(w);
  for (std::size_t i = 0; i < out.posterior_state.size(); ++i)
    out.posterior_state[i] += incr[i];

  // Posterior subspace from the symmetric eigendecomposition of C.
  la::EigSym eig = la::eig_sym(c);
  const std::size_t keep = detail::kept_rank(eig.eigenvalues);
  la::Matrix post_modes =
      la::matmul(subspace.modes(), eig.eigenvectors.first_cols(keep));
  la::Vector post_sig(keep);
  for (std::size_t j = 0; j < keep; ++j)
    post_sig[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
  out.posterior_subspace =
      ErrorSubspace(std::move(post_modes), std::move(post_sig));

  out.prior_innovation_rms = la::rms(d);
  out.prior_trace = subspace.total_variance();
  out.posterior_trace = out.posterior_subspace.total_variance();
  out.posterior_innovation_rms =
      la::rms(obs.innovations(out.posterior_state));
  return out;
}

}  // namespace

ObsSet with_pseudo_observations(const ErrorSubspace& subspace,
                                const ObsSet& obs,
                                const AnalysisOptions& options) {
  // Sampling stride, variance inflation and floor (see the declaration).
  constexpr std::size_t kStride = 25;
  constexpr double kInflation = 4.0;
  constexpr double kFloor = 1e-6;
  const la::Vector* surrogate = options.surrogate;
  ESSEX_REQUIRE(surrogate != nullptr,
                "multi-model analysis needs a surrogate forecast");
  ESSEX_REQUIRE(surrogate->size() == subspace.dim(),
                "surrogate forecast dimension does not match the state");

  const std::size_t m = subspace.dim();
  const la::Vector marg = subspace.marginal_stddev();
  // Pseudo-observations carry grid positions when the geometry is known
  // (so localization tapers them like real data); otherwise they stay
  // unpositioned and reach every tile, like any generic linear stencil.
  const ocean::Grid3D* grid = options.grid;
  if (grid != nullptr && ocean::OceanState::packed_size(*grid) != m)
    grid = nullptr;

  std::vector<ObsEntry> entries = obs.entries();
  entries.reserve(entries.size() + m / kStride + 1);
  for (std::size_t idx = 0; idx < m; idx += kStride) {
    ObsEntry e;
    e.stencil = {{idx, 1.0}};
    e.value = (*surrogate)[idx];
    e.variance = kInflation * marg[idx] * marg[idx] + kFloor;
    if (grid != nullptr) {
      // Packed layout [T, S, u, v, ssh], 3-D fields iz-major then iy, ix.
      const std::size_t points = grid->points();
      const std::size_t plane = grid->nx() * grid->ny();
      const std::size_t h =
          idx < 4 * points ? (idx % points) % plane : idx - 4 * points;
      e.positioned = true;
      e.x_km = static_cast<double>(h % grid->nx()) * grid->dx_km();
      e.y_km = static_cast<double>(h / grid->nx()) * grid->dy_km();
    }
    entries.push_back(std::move(e));
  }
  return ObsSet(std::move(entries));
}

AnalysisResult analyze(const la::Vector& forecast,
                       const ErrorSubspace& subspace, const ObsSet& obs,
                       const AnalysisOptions& options) {
  ESSEX_REQUIRE(is_registered(options.method),
                "analysis method is not registered");
  ESSEX_REQUIRE(!subspace.empty(), "analysis needs a non-empty subspace");
  ESSEX_REQUIRE(!obs.empty(), "analysis needs at least one observation");
  ESSEX_REQUIRE(forecast.size() == subspace.dim(),
                "forecast dimension does not match the subspace");
  require_finite_obs(obs);

  if (options.method == AnalysisMethod::kMultiModel) {
    // The combiner is a front end over the subspace-Kalman core: append
    // the surrogate's pseudo-observations (canonical ascending index
    // order, after the real data) and recurse. The recursion inherits
    // localization/threads, so the combined set runs tiled when asked.
    const ObsSet combined = with_pseudo_observations(subspace, obs, options);
    if (options.sink) {
      options.sink->count("analysis.method.multi_model");
      options.sink->count("analysis.observations",
                          static_cast<double>(obs.size()));
      options.sink->count("analysis.pseudo_observations",
                          static_cast<double>(combined.size() - obs.size()));
    }
    AnalysisOptions base = options;
    base.method = AnalysisMethod::kSubspaceKalman;
    base.surrogate = nullptr;
    base.sink = nullptr;  // counted above; don't double-count the core
    return analyze(forecast, subspace, combined, base);
  }

  if (options.sink) {
    options.sink->count(std::string("analysis.method.") +
                        to_string(options.method));
    options.sink->count("analysis.observations",
                        static_cast<double>(obs.size()));
  }

  if (!options.localization.enabled)
    return analyze_global(forecast, subspace, obs, options);

  ESSEX_REQUIRE(options.grid != nullptr,
                "localized analysis needs grid geometry");
  ESSEX_REQUIRE(options.localization.radius_km > 0.0,
                "localization radius must be positive");
  const ocean::Tiling tiling(*options.grid, options.tiling);
  ESSEX_REQUIRE(tiling.packed_size() == forecast.size(),
                "grid packed size does not match the state");
  if (options.threads > 1) {
    ThreadPool pool(options.threads);
    return analyze_tiled(forecast, subspace, obs, tiling,
                         options.localization, &pool);
  }
  return analyze_tiled(forecast, subspace, obs, tiling, options.localization);
}

}  // namespace essex::esse
