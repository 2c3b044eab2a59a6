// ESSEX: the continuously-running "differ" (paper §4.1, Fig. 4).
//
// Ensemble members land in arbitrary order; the differ subtracts the
// central forecast from each, normalises by 1/sqrt(n-1) lazily, and keeps
// per-member bookkeeping (which perturbation index produced each column —
// the paper's fix for bottleneck 2). It is thread-safe so concurrent
// executor workers can push results while SVD snapshots are taken.
//
// Since PR 2 the differ is *incremental* end to end. Anomaly columns are
// append-only and individually immutable, and every absorbed member also
// carries the new border of the growing Gram matrix AᵀA — the dot
// products against all earlier columns, computed once at absorption time
// (O(m·k)) instead of at every convergence check (O(m·n²)). A check is
// then a small n×n symmetric eigensolve plus U = A·V over the retained
// modes only.
//
// The covariance "file" semantics of the paper (safe copy + alternating
// live pair) are modelled by view(): the caller receives a versioned,
// copy-free column-prefix view over the shared column storage — O(n)
// pointer copies, never an O(m·n) matrix copy — while the live store
// keeps growing. snapshot() materialises a view into the legacy dense
// SpreadSnapshot for consumers (smoother, verification) that want the
// full matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/arena.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "ocean/tiling.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::esse {

/// A snapshot of the accumulated ensemble spread, normalised so that
/// A Aᵀ is the sample covariance estimate.
struct SpreadSnapshot {
  la::Matrix anomalies;             ///< m × n, already scaled by 1/√(n−1)
  std::vector<std::size_t> member_ids;  ///< column → perturbation index
};

/// One absorbed member: the unnormalised anomaly column plus the border
/// row of the Gram matrix linking it to every column absorbed before it
/// (gram_row[i] = aⱼ·aᵢ for arrival positions i ≤ j, so gram_row.back()
/// is the self-product). `arrival_index` is the column's position in the
/// differ's append-only storage — the key the cached borders are indexed
/// by. Both payloads are immutable once published; views share them
/// without copying.
///
/// The anomaly span points into the differ's 64-byte-aligned ColumnArena
/// (never freed before the arena dies), so a column handle is two
/// machine words; AnomalyView's `storage` pointer keeps the arena alive
/// for detached views.
struct AnomalyColumn {
  std::span<const double> anomaly;
  std::shared_ptr<const la::Vector> gram_row;
  std::size_t member_id = 0;
  std::size_t arrival_index = 0;
};

/// Versioned, copy-free column view over the differ's append-only column
/// storage — the in-process analogue of the paper's "safe file".
/// Copying a view copies n shared pointers, never the m×n payload, so
/// handing one to the SVD costs O(n).
///
/// Determinism contract (DESIGN.md §10): columns are ordered by
/// perturbation index (member_id ascending), NOT by arrival order, so
/// everything derived from a view — materialized anomaly matrices, the
/// assembled Gram, U = A·V products — depends only on *which* members it
/// holds, never on the order the task pool completed them in.
struct AnomalyView {
  std::vector<AnomalyColumn> columns;  ///< member_id-sorted, shared payloads
  std::shared_ptr<const la::ColumnArena> storage;  ///< keeps spans alive
  std::uint64_t version = 0;  ///< differ version the view was cut from
  std::size_t state_dim = 0;  ///< m

  std::size_t count() const { return columns.size(); }

  /// Materialise the normalised m×n anomaly matrix (1/√(n−1) scaling),
  /// columns in canonical (member_id) order.
  la::Matrix materialize() const;

  /// Assemble the normalised n×n Gram matrix AᵀA in canonical order from
  /// the cached border rows — no O(m·n²) product, just O(n²) lookups.
  /// Entry (i,j) is read from the border of whichever of the two columns
  /// arrived later, indexed by the earlier one's arrival position.
  la::Matrix gram() const;

  /// Restrict to the first `n` canonical columns (the n smallest member
  /// ids in the view) — O(n) pointer copies, shared payloads.
  AnomalyView prefix(std::size_t n) const;

  std::vector<std::size_t> member_ids() const;
};

/// Error subspace from a view via the cached-Gram method of snapshots:
/// eigensolve of view.gram(), truncation to `variance_fraction` /
/// `max_rank` (0 = no cap), then U = A·V over the retained modes only,
/// optionally spread over `pool`. Falls back to the dense SVD when the
/// ensemble is wider than the state (n > m), where the Gram trick buys
/// nothing. `sink` (nullable) receives `differ.*` counters and the
/// per-check `differ.subspace_s` latency histogram.
ErrorSubspace subspace_from_view(const AnomalyView& view,
                                 double variance_fraction = 0.99,
                                 std::size_t max_rank = 0,
                                 ThreadPool* pool = nullptr,
                                 telemetry::Sink* sink = nullptr);

/// Thread-safe accumulator of forecast anomalies about the central
/// forecast.
class Differ {
 public:
  /// `central` is the central (unperturbed) forecast the anomalies are
  /// taken about. With a `tiling` (whose packed size must match the
  /// central forecast) the column store is sharded by tile: every Gram
  /// border and self-product is the tile-major sharded reduction
  /// (la::dot_sharded) over the tiling's owned runs — a fixed shape set
  /// by the tiling alone, so digests stay thread-count- and
  /// arrival-order-invariant, and stay stable when the shards later
  /// move to per-node stores.
  explicit Differ(la::Vector central,
                  std::shared_ptr<const ocean::Tiling> tiling = nullptr);

  /// Attach a telemetry sink (nullable, not owned): gram-border and
  /// subspace-check counters land in it. Set before worker threads
  /// start; the pointer itself is not synchronised.
  void set_sink(telemetry::Sink* sink) { sink_ = sink; }

  /// Absorb the forecast of member `member_id`, computing the new Gram
  /// border against all stored anomalies (O(m·k), outside the lock —
  /// concurrent writers only serialise for the O(1) append). Any arrival
  /// order is accepted; duplicate ids and columns holding a NaN or Inf
  /// are rejected (PreconditionError, store unchanged). `weight` scales the
  /// stored anomaly column (the multilevel per-level pooling factor,
  /// DESIGN.md §15); the default 1.0 takes the exact single-level path.
  void add_member(std::size_t member_id, const la::Vector& forecast,
                  double weight = 1.0);

  /// Absorb a precomputed anomaly column as member `member_id` — the
  /// multilevel path for prolongated coarse-member anomalies, already
  /// scaled by their level's pooling weight. Shares add_member's
  /// absorption and catch-up-Gram machinery, so ordering, duplicate
  /// rejection and the determinism contract are identical.
  void add_anomaly(std::size_t member_id, const la::Vector& anomaly);

  /// Replace the forecast of an already-absorbed member (smoother-style
  /// rewrite of a past column). Every later column's cached Gram border
  /// references the old anomaly, so this is the one path that still pays
  /// a full O(m·n²) Gram rebuild (DESIGN.md §8).
  void rewrite_member(std::size_t member_id, const la::Vector& forecast);

  /// Number of members absorbed so far.
  std::size_t count() const;

  /// Largest c such that members with perturbation indices 0..c-1 have
  /// all been absorbed — the longest contiguous id prefix. This is the
  /// arrival-order-free progress measure the deterministic convergence
  /// schedule keys on: it advances identically for every schedule that
  /// completes the same members.
  std::size_t contiguous_count() const;

  /// Monotone version: bumped by every add_member / rewrite_member.
  std::uint64_t version() const;

  /// Cut a copy-free view over the first `prefix_cols` absorbed columns
  /// (0 = all columns currently absorbed), returned in canonical
  /// member_id order.
  AnomalyView view(std::size_t prefix_cols = 0) const;

  /// Cut a canonical view over exactly the members with perturbation
  /// indices 0..contiguous_count()-1, regardless of arrival order or of
  /// any higher-id members already absorbed. Two schedules that both
  /// reach contiguous_count() >= c produce bitwise-identical
  /// contiguous_view().prefix(c) payloads.
  AnomalyView contiguous_view() const;

  /// Materialise the normalised anomaly matrix (the dense "safe file").
  /// Requires count() >= 2.
  SpreadSnapshot snapshot() const;

  /// Compute the error subspace, truncated to `variance_fraction` /
  /// `max_rank` (0 = no cap). kGram (the default) uses the incremental
  /// cached-Gram path; kOneSidedJacobi forces the dense from-scratch
  /// decomposition (highest accuracy, full price).
  ErrorSubspace subspace(double variance_fraction = 0.99,
                         std::size_t max_rank = 0,
                         la::SvdMethod method = la::SvdMethod::kGram) const;

  /// Cached-Gram subspace with the U = A·V product spread over `pool` —
  /// the in-process analogue of the paper's shared-memory-parallel
  /// LAPACK SVD on the master node.
  ErrorSubspace subspace_parallel(ThreadPool& pool,
                                  double variance_fraction = 0.99,
                                  std::size_t max_rank = 0) const;

  const la::Vector& central() const { return central_; }

  /// The tile decomposition the column store is sharded by (null when
  /// untiled).
  const std::shared_ptr<const ocean::Tiling>& tiling() const {
    return tiling_;
  }

 private:
  /// Shared absorption path: publish the already-filled arena span as
  /// member `member_id`'s column, computing its Gram border via the
  /// catch-up loop. `computed` counts border dots for telemetry.
  void absorb(std::size_t member_id, std::span<double> anom);

  la::Vector central_;
  std::shared_ptr<const ocean::Tiling> tiling_;  // null = unsharded
  mutable std::mutex mu_;
  // Column payloads; never freed while any view's keepalive survives, so
  // a rewrite can abandon an old span under concurrent readers.
  std::shared_ptr<la::ColumnArena> arena_;
  std::vector<AnomalyColumn> columns_;  // append-only shared storage
  std::unordered_set<std::size_t> member_id_set_;
  std::size_t contiguous_count_ = 0;  // ids 0..contiguous_count_-1 absorbed
  std::uint64_t version_ = 0;
  std::uint64_t rewrite_epoch_ = 0;  // invalidates in-flight Gram borders
  telemetry::Sink* sink_ = nullptr;  // nullable, not owned
};

}  // namespace essex::esse
