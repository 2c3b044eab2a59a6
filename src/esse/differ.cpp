#include "esse/differ.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/gram.hpp"
#include "linalg/simd.hpp"

namespace essex::esse {

namespace {

/// A diverged member (NaN/Inf anywhere) would poison the Gram cache,
/// every later SVD and the digest, so it is refused before it is stored.
void require_finite(const la::Vector& column) {
  ESSEX_REQUIRE(std::all_of(column.begin(), column.end(),
                            [](double x) { return std::isfinite(x); }),
                "non-finite ensemble member column");
}

}  // namespace

la::Matrix AnomalyView::materialize() const {
  const std::size_t n = columns.size();
  la::Matrix a(state_dim, n);
  if (n == 0) return a;
  const double scale =
      n > 1 ? 1.0 / std::sqrt(static_cast<double>(n - 1)) : 1.0;
  double* out = a.data().data();
  for (std::size_t j = 0; j < n; ++j) {
    const std::span<const double> col = columns[j].anomaly;
    for (std::size_t i = 0; i < state_dim; ++i)
      out[i * n + j] = col[i] * scale;
  }
  return a;
}

la::Matrix AnomalyView::gram() const {
  const std::size_t n = columns.size();
  la::Matrix g(n, n);
  const double scale = n > 1 ? 1.0 / static_cast<double>(n - 1) : 1.0;
  // Each cached border covers every column that arrived before its
  // owner, so for any canonical pair the later arrival's border holds
  // the dot product at the earlier arrival's storage position. The dot
  // itself was computed once, serially, at absorption time — assembly
  // order cannot perturb it.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      const AnomalyColumn& a = columns[i];
      const AnomalyColumn& b = columns[j];
      const AnomalyColumn& later = a.arrival_index >= b.arrival_index ? a : b;
      const AnomalyColumn& earlier = a.arrival_index >= b.arrival_index ? b : a;
      const double v = (*later.gram_row)[earlier.arrival_index] * scale;
      g(j, i) = v;
      g(i, j) = v;
    }
  }
  return g;
}

AnomalyView AnomalyView::prefix(std::size_t n) const {
  ESSEX_REQUIRE(n <= columns.size(), "prefix exceeds the view size");
  AnomalyView out;
  out.columns.assign(columns.begin(),
                     columns.begin() + static_cast<std::ptrdiff_t>(n));
  out.storage = storage;
  out.version = version;
  out.state_dim = state_dim;
  return out;
}

std::vector<std::size_t> AnomalyView::member_ids() const {
  std::vector<std::size_t> ids;
  ids.reserve(columns.size());
  for (const AnomalyColumn& c : columns) ids.push_back(c.member_id);
  return ids;
}

ErrorSubspace subspace_from_view(const AnomalyView& view,
                                 double variance_fraction,
                                 std::size_t max_rank, ThreadPool* pool,
                                 telemetry::Sink* sink) {
  const std::size_t n = view.count();
  const std::size_t m = view.state_dim;
  ESSEX_REQUIRE(n >= 2, "need at least two members for a spread estimate");
  const double t0 = sink ? telemetry::wall_seconds() : 0.0;

  if (n > m) {
    // Wide ensemble: the n×n Gram is larger than the m×m problem, so the
    // cached borders buy nothing — dense from-scratch path.
    if (sink) sink->count("differ.full_recomputes");
    const la::ThinSvd svd =
        la::svd_thin(view.materialize(), la::SvdMethod::kGram);
    ErrorSubspace out =
        ErrorSubspace::from_svd(svd.u, svd.s, variance_fraction, max_rank);
    if (sink) {
      sink->count("differ.subspace_checks");
      sink->observe("differ.subspace_s", telemetry::wall_seconds() - t0);
    }
    return out;
  }

  // The n×n eigensolve over the cached Gram (no AᵀA rebuild) ...
  const la::EigSym eig = la::eig_sym(view.gram());
  la::Vector s(n);
  for (std::size_t j = 0; j < n; ++j)
    s[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));

  // ... then U = A·V·Σ⁻¹ over the retained modes only: truncating first
  // turns the O(m·n²) recovery into O(m·n·r).
  const std::size_t r =
      ErrorSubspace::truncation_rank(s, variance_fraction, max_rank);
  std::vector<la::ColSpan> cols;
  cols.reserve(n);
  for (const AnomalyColumn& c : view.columns) cols.push_back(c.anomaly);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n - 1));
  la::Matrix u = la::columns_matmul(cols, eig.eigenvectors, r, scale, pool);
  for (std::size_t j = 0; j < r; ++j) {
    const double inv = (s[j] > 1e-300) ? 1.0 / s[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) u(i, j) *= inv;
  }
  la::Vector sig(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(r));
  ErrorSubspace out(std::move(u), std::move(sig));
  if (sink) {
    sink->count("differ.subspace_checks");
    sink->count("differ.gram_cols_reused", static_cast<double>(n));
    sink->observe("differ.subspace_s", telemetry::wall_seconds() - t0);
  }
  return out;
}

Differ::Differ(la::Vector central,
               std::shared_ptr<const ocean::Tiling> tiling)
    : central_(std::move(central)), tiling_(std::move(tiling)) {
  ESSEX_REQUIRE(!central_.empty(), "central forecast must be non-empty");
  ESSEX_REQUIRE(tiling_ == nullptr ||
                    tiling_->packed_size() == central_.size(),
                "tiling does not match the central forecast");
  // Slabs big enough for several columns each, so a growing ensemble
  // allocates O(n / slab_cols) times, not O(n).
  arena_ = std::make_shared<la::ColumnArena>(
      std::max<std::size_t>(std::size_t{1} << 16, central_.size() * 8));
}

void Differ::add_member(std::size_t member_id, const la::Vector& forecast,
                        double weight) {
  ESSEX_REQUIRE(forecast.size() == central_.size(),
                "member forecast dimension mismatch");
  require_finite(forecast);
  const std::span<double> anom = arena_->allocate(central_.size());
  if (weight == 1.0) {
    for (std::size_t i = 0; i < anom.size(); ++i)
      anom[i] = forecast[i] - central_[i];
  } else {
    for (std::size_t i = 0; i < anom.size(); ++i)
      anom[i] = (forecast[i] - central_[i]) * weight;
  }
  absorb(member_id, anom);
}

void Differ::add_anomaly(std::size_t member_id, const la::Vector& anomaly) {
  ESSEX_REQUIRE(anomaly.size() == central_.size(),
                "anomaly column dimension mismatch");
  require_finite(anomaly);
  const std::span<double> anom = arena_->allocate(central_.size());
  for (std::size_t i = 0; i < anom.size(); ++i) anom[i] = anomaly[i];
  absorb(member_id, anom);
}

void Differ::absorb(std::size_t member_id, std::span<double> anom) {
  // Catch-up loop: the Gram border is computed outside the lock against
  // whatever columns are already published (they are immutable), then the
  // lock is retaken — if more members landed meanwhile, absorb their
  // columns too and retry. Writers therefore only serialise for the O(1)
  // append, never for the O(m·k) dot products. Span copies of published
  // columns stay valid outside the lock: the arena never reclaims, even
  // across a concurrent rewrite (whose epoch bump discards our border).
  la::Vector border;  // border[i] = aᵢ·anom for i < border.size()
  std::uint64_t epoch = 0;
  bool have_epoch = false;
  std::size_t computed = 0;
  for (;;) {
    std::vector<la::ColSpan> prev;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ESSEX_REQUIRE(member_id_set_.find(member_id) == member_id_set_.end(),
                    "duplicate ensemble member id");
      if (have_epoch && epoch != rewrite_epoch_) {
        border.clear();  // a rewrite invalidated everything computed so far
      }
      epoch = rewrite_epoch_;
      have_epoch = true;
      if (columns_.size() == border.size()) {
        border.push_back(
            tiling_ ? la::sumsq_sharded(anom, tiling_->shards())
                    : la::simd::kernels().sumsq(anom.data(), anom.size()));
        AnomalyColumn col;
        col.anomaly = anom;
        col.gram_row = std::make_shared<const la::Vector>(std::move(border));
        col.member_id = member_id;
        col.arrival_index = columns_.size();
        columns_.push_back(std::move(col));
        member_id_set_.insert(member_id);
        while (member_id_set_.count(contiguous_count_) != 0)
          ++contiguous_count_;
        ++version_;
        break;
      }
      prev.reserve(columns_.size() - border.size());
      for (std::size_t i = border.size(); i < columns_.size(); ++i)
        prev.push_back(columns_[i].anomaly);
    }
    const std::size_t old = border.size();
    border.resize(old + prev.size());
    if (tiling_)
      la::gram_append_sharded(prev, anom, tiling_->shards(),
                              border.data() + old);
    else
      la::gram_append(prev, anom, border.data() + old);
    computed += prev.size();
  }
  if (sink_)
    sink_->count("differ.gram_cols_computed",
                 static_cast<double>(computed + 1));
}

void Differ::rewrite_member(std::size_t member_id,
                            const la::Vector& forecast) {
  ESSEX_REQUIRE(forecast.size() == central_.size(),
                "member forecast dimension mismatch");
  require_finite(forecast);
  // Fresh arena span; the old one is abandoned, not freed, so readers
  // holding views cut before the rewrite stay valid.
  const std::span<double> anom = arena_->allocate(central_.size());
  for (std::size_t i = 0; i < anom.size(); ++i)
    anom[i] = forecast[i] - central_[i];

  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find_if(columns_.begin(), columns_.end(),
                         [&](const AnomalyColumn& c) {
                           return c.member_id == member_id;
                         });
  ESSEX_REQUIRE(it != columns_.end(), "rewrite of an unknown member id");
  it->anomaly = anom;
  // Every later border row references the rewritten column: rebuild the
  // whole cache. This is the documented full-recompute path (O(m·n²)),
  // fused into kDotBlockCols-wide batches so each earlier column is
  // streamed from memory once per batch instead of once per column.
  const std::size_t n = columns_.size();
  std::vector<la::ColSpan> all;
  all.reserve(n);
  for (const AnomalyColumn& col : columns_) all.push_back(col.anomaly);
  std::vector<la::Vector> row_store;
  row_store.reserve(n);
  for (std::size_t j = 0; j < n; ++j) row_store.emplace_back(j + 1);
  const std::span<const la::ColSpan> cols(all);
  if (tiling_) {
    // Sharded store: rebuild each border entry through the same
    // tile-major reduction the append path uses, so a rebuilt cache is
    // bitwise identical to one grown column by column.
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i <= j; ++i)
        row_store[j][i] = la::dot_sharded(all[i], all[j], tiling_->shards());
  } else {
    for (std::size_t j0 = 0; j0 < n; j0 += la::simd::kDotBlockCols) {
      const std::size_t width = std::min(n - j0, la::simd::kDotBlockCols);
      std::vector<double*> rows(width);
      for (std::size_t w = 0; w < width; ++w)
        rows[w] = row_store[j0 + w].data();
      la::gram_border_rows(cols.first(j0), cols.subspan(j0, width), rows);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    columns_[j].gram_row =
        std::make_shared<const la::Vector>(std::move(row_store[j]));
    columns_[j].arrival_index = j;
  }
  ++version_;
  ++rewrite_epoch_;
  if (sink_) sink_->count("differ.full_rebuilds");
}

std::size_t Differ::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return columns_.size();
}

std::size_t Differ::contiguous_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return contiguous_count_;
}

std::uint64_t Differ::version() const {
  std::lock_guard<std::mutex> lk(mu_);
  return version_;
}

namespace {

void sort_canonical(std::vector<AnomalyColumn>& cols) {
  std::sort(cols.begin(), cols.end(),
            [](const AnomalyColumn& a, const AnomalyColumn& b) {
              return a.member_id < b.member_id;
            });
}

}  // namespace

AnomalyView Differ::view(std::size_t prefix_cols) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = prefix_cols == 0 ? columns_.size() : prefix_cols;
  ESSEX_REQUIRE(n <= columns_.size(),
                "view prefix exceeds the columns absorbed so far");
  AnomalyView v;
  v.columns.assign(columns_.begin(),
                   columns_.begin() + static_cast<std::ptrdiff_t>(n));
  sort_canonical(v.columns);
  v.storage = arena_;
  v.version = version_;
  v.state_dim = central_.size();
  return v;
}

AnomalyView Differ::contiguous_view() const {
  std::lock_guard<std::mutex> lk(mu_);
  AnomalyView v;
  v.columns.reserve(contiguous_count_);
  for (const AnomalyColumn& c : columns_)
    if (c.member_id < contiguous_count_) v.columns.push_back(c);
  sort_canonical(v.columns);
  v.storage = arena_;
  v.version = version_;
  v.state_dim = central_.size();
  return v;
}

SpreadSnapshot Differ::snapshot() const {
  const AnomalyView v = view();
  ESSEX_REQUIRE(v.count() >= 2,
                "need at least two members for a spread estimate");
  SpreadSnapshot snap;
  snap.member_ids = v.member_ids();
  snap.anomalies = v.materialize();
  return snap;
}

ErrorSubspace Differ::subspace(double variance_fraction, std::size_t max_rank,
                               la::SvdMethod method) const {
  if (method == la::SvdMethod::kGram) {
    return subspace_from_view(view(), variance_fraction, max_rank, nullptr,
                              sink_);
  }
  // Jacobi: dense from-scratch decomposition, highest accuracy.
  const SpreadSnapshot snap = snapshot();
  if (sink_) sink_->count("differ.full_recomputes");
  const la::ThinSvd svd = la::svd_thin(snap.anomalies, method);
  return ErrorSubspace::from_svd(svd.u, svd.s, variance_fraction, max_rank);
}

ErrorSubspace Differ::subspace_parallel(ThreadPool& pool,
                                        double variance_fraction,
                                        std::size_t max_rank) const {
  return subspace_from_view(view(), variance_fraction, max_rank, &pool,
                            sink_);
}

}  // namespace essex::esse
