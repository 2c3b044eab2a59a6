#include "esse/local_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/arena.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/simd.hpp"
#include "linalg/stats.hpp"

namespace essex::esse {

namespace {

/// Dispatch f(t) over every tile; each call owns disjoint output slots,
/// so scheduling cannot change the result.
template <typename F>
void for_each_tile(std::size_t tiles, ThreadPool* pool, const F& f) {
  if (pool == nullptr || pool->thread_count() <= 1 || tiles <= 1) {
    for (std::size_t t = 0; t < tiles; ++t) f(t);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(tiles);
  for (std::size_t t = 0; t < tiles; ++t)
    futs.push_back(pool->submit([&f, t] { f(t); }));
  for (auto& fut : futs) fut.get();
}

/// One tile's local solve: the increment coefficients w_t and the
/// square-root posterior core S_t (C_t = S_t·S_tᵀ).
struct TileSolve {
  la::Vector w;
  la::Matrix smat;
  std::size_t obs_used = 0;
};

}  // namespace

AnalysisResult analyze_tiled(const la::Vector& forecast,
                             const ErrorSubspace& subspace, const ObsSet& obs,
                             const ocean::Tiling& tiling,
                             const LocalizationParams& localization,
                             ThreadPool* pool) {
  ESSEX_REQUIRE(!subspace.empty(), "analysis needs a non-empty subspace");
  ESSEX_REQUIRE(!obs.empty(), "analysis needs at least one observation");
  ESSEX_REQUIRE(forecast.size() == subspace.dim(),
                "forecast dimension does not match the subspace");
  ESSEX_REQUIRE(tiling.packed_size() == forecast.size(),
                "tiling does not match the packed state");
  ESSEX_REQUIRE(localization.radius_km > 0.0,
                "localization radius must be positive");

  const std::size_t p = obs.size();
  const std::size_t k = subspace.rank();
  const std::size_t m = forecast.size();
  const std::size_t tiles = tiling.tile_count();
  const la::Matrix& modes = subspace.modes();
  const la::Vector& sig = subspace.sigmas();
  const auto& kern = la::simd::kernels();

  // Observation-space precompute, shared by every tile: HE, the
  // innovation and R's diagonal (stencil-order accumulation, as in the
  // global path).
  la::Matrix he(p, k);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < k; ++j)
      he(i, j) = obs.apply_mode(i, modes, j);
  const la::Vector d = obs.innovations(forecast);
  la::Vector rvar(p);
  for (std::size_t i = 0; i < p; ++i) rvar[i] = obs.entry(i).variance;

  // ---- Phase 1: independent per-tile k×k solves ------------------------
  // Each tile sees the observations within the Gaspari–Cohn support of
  // its owned rectangle, with R inflated to R/GC(d): distant data keeps
  // its direction but loses weight smoothly, reaching zero at 2·radius.
  std::vector<TileSolve> solves(tiles);
  const double radius = localization.radius_km;
  for_each_tile(tiles, pool, [&](std::size_t t) {
    TileSolve& ts = solves[t];
    std::vector<std::pair<std::size_t, double>> local;  // (obs, taper)
    for (std::size_t i = 0; i < p; ++i) {
      const ObsEntry& e = obs.entry(i);
      if (!e.positioned) {
        local.emplace_back(i, 1.0);
        continue;
      }
      const double taper =
          gaspari_cohn(tiling.distance_km(t, e.x_km, e.y_km), radius);
      if (taper > 0.0) local.emplace_back(i, taper);
    }
    ts.obs_used = local.size();
    if (local.empty()) {
      // Nothing observed near this tile: the posterior is the prior.
      ts.w = la::Vector(k, 0.0);
      ts.smat = la::Matrix(k, k);
      for (std::size_t j = 0; j < k; ++j) ts.smat(j, j) = sig[j];
      return;
    }

    // G_t = HEᵀ R_loc⁻¹ HE and rhs_t = HEᵀ R_loc⁻¹ d over the local
    // observations, accumulated row by row in obs-index order.
    la::Matrix g(k, k);
    la::Vector rhs(k, 0.0);
    la::Vector scaled(k);
    for (const auto& [i, taper] : local) {
      const double* row = he.data().data() + i * k;
      const double ir = taper / rvar[i];
      for (std::size_t a = 0; a < k; ++a) scaled[a] = row[a] * ir;
      kern.atb_update(scaled.data(), row, g.data().data(), 1, k, k);
      kern.axpy(d[i], scaled.data(), rhs.data(), k);
    }
    // The outer-product accumulation is symmetric up to rounding; make
    // it exactly symmetric for the eigensolver.
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b) g(b, a) = g(a, b);

    la::Matrix cmat = detail::posterior_core(sig, g);
    ts.w = la::matvec(cmat, rhs);

    // Square-root factor S_t = V·Λ̂^{1/2} with canonical column signs,
    // so neighbouring tiles with near-identical cores produce
    // near-identical factors and the halo blend cannot cancel them.
    la::EigSym eig = la::eig_sym(cmat);
    la::canonicalize_column_signs(eig.eigenvectors);
    ts.smat = la::Matrix(k, k);
    for (std::size_t j = 0; j < k; ++j) {
      const double s = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
      for (std::size_t a = 0; a < k; ++a)
        ts.smat(a, j) = eig.eigenvectors(a, j) * s;
    }
  });

  // ---- Phase 2: blend, update the mean, build the W shards -------------
  // Per owned cell: the partition-of-unity blend of the covering tiles'
  // w_u and S_u, then per packed row i the mean increment e_i·ŵ and the
  // posterior square-root row W(i,:) = e_i·Ŝ. W is sharded by tile into
  // a ColumnArena — each tile owns one contiguous block, written (and
  // later re-read) cell-major — and each tile accumulates its partial
  // Gram G_t = W_tᵀ·W_t for the method-of-snapshots eigensolve.
  la::Vector xa = forecast;
  la::ColumnArena warena;
  std::vector<std::span<double>> wshard(tiles);
  for (std::size_t t = 0; t < tiles; ++t)
    wshard[t] = warena.allocate(tiling.owned_points(t) * k);
  std::vector<la::Matrix> gpart(tiles, la::Matrix(k, k));

  const std::size_t nz = tiling.nz();
  for_each_tile(tiles, pool, [&](std::size_t t) {
    const ocean::TileRect& r = tiling.tile(t);
    la::Vector wbar(k), sbar(k * k);
    double* shard = wshard[t].data();
    la::Matrix& gt = gpart[t];
    std::size_t row = 0;
    for (std::size_t iy = r.y0; iy < r.y1; ++iy) {
      for (std::size_t ix = r.x0; ix < r.x1; ++ix) {
        const auto cov = tiling.cover(ix, iy);
        std::fill(wbar.begin(), wbar.end(), 0.0);
        std::fill(sbar.begin(), sbar.end(), 0.0);
        for (const auto& [u, wgt] : cov) {
          kern.axpy(wgt, solves[u].w.data(), wbar.data(), k);
          kern.axpy(wgt, solves[u].smat.data().data(), sbar.data(), k * k);
        }
        const auto emit = [&](std::size_t idx) {
          const double* e = modes.data().data() + idx * k;
          xa[idx] += kern.dot(e, wbar.data(), k);
          double* wr = shard + row * k;
          kern.ab_row(e, sbar.data(), wr, k, k);
          kern.atb_update(wr, wr, gt.data().data(), 1, k, k);
          ++row;
        };
        for (std::size_t var = 0; var < 4; ++var)
          for (std::size_t iz = 0; iz < nz; ++iz)
            emit(tiling.var_index(var, ix, iy, iz));
        emit(tiling.ssh_index(ix, iy));
      }
    }
  });

  // ---- Phase 3: posterior subspace from the sharded Gram ---------------
  // G = Σ_t G_t in tile-id order (the fixed merge shape of the
  // determinism contract), one k×k eigensolve, then each tile writes its
  // owned rows of U = W·V·Λ̂^{-1/2}.
  la::Matrix gram(k, k);
  for (std::size_t t = 0; t < tiles; ++t) {
    const double* src = gpart[t].data().data();
    double* dst = gram.data().data();
    for (std::size_t i = 0; i < k * k; ++i) dst[i] += src[i];
  }
  la::EigSym eig = la::eig_sym(gram);
  const std::size_t keep = detail::kept_rank(eig.eigenvalues);
  la::Vector post_sig(keep);
  la::Vector inv_sig(keep);
  for (std::size_t j = 0; j < keep; ++j) {
    post_sig[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
    inv_sig[j] = post_sig[j] > 0.0 ? 1.0 / post_sig[j] : 0.0;
  }
  const la::Matrix vk = eig.eigenvectors.first_cols(keep);

  la::Matrix post_modes(m, keep);
  for_each_tile(tiles, pool, [&](std::size_t t) {
    const ocean::TileRect& r = tiling.tile(t);
    const double* shard = wshard[t].data();
    std::size_t row = 0;
    for (std::size_t iy = r.y0; iy < r.y1; ++iy) {
      for (std::size_t ix = r.x0; ix < r.x1; ++ix) {
        const auto emit = [&](std::size_t idx) {
          const double* wr = shard + row * k;
          double* urow = post_modes.data().data() + idx * keep;
          kern.ab_row(wr, vk.data().data(), urow, k, keep);
          for (std::size_t j = 0; j < keep; ++j) urow[j] *= inv_sig[j];
          ++row;
        };
        for (std::size_t var = 0; var < 4; ++var)
          for (std::size_t iz = 0; iz < nz; ++iz)
            emit(tiling.var_index(var, ix, iy, iz));
        emit(tiling.ssh_index(ix, iy));
      }
    }
  });

  AnalysisResult out;
  out.posterior_state = std::move(xa);
  out.posterior_subspace =
      ErrorSubspace(std::move(post_modes), std::move(post_sig));
  out.prior_innovation_rms = la::rms(d);
  out.posterior_innovation_rms =
      la::rms(obs.innovations(out.posterior_state));
  out.prior_trace = subspace.total_variance();
  out.posterior_trace = out.posterior_subspace.total_variance();
  return out;
}

}  // namespace essex::esse
