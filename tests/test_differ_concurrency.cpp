// Concurrency coverage for the incremental differ's copy-free snapshots
// — the in-memory rendering of the §4.1 triple-file covariance protocol
// ("a safe one for SVD to use and a live alternating pair for diff to
// write to"). The differ stores anomaly columns append-only and hands
// out versioned column-prefix views, so an SVD reader never blocks the
// writers behind an O(m·n) copy and never sees a torn matrix. These
// tests drive real concurrent writers against snapshot readers; the
// whole binary must run clean under -fsanitize=thread
// (cmake -DESSEX_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "esse/differ.hpp"
#include "linalg/matrix.hpp"

namespace essex::esse {
namespace {

TEST(DifferConcurrency, ConcurrentWritersVsSnapshotReaders) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 24;
  constexpr std::size_t kDim = 96;
  Differ differ(la::Vector(kDim, 1.0));

  auto forecast_for = [](std::size_t id) {
    la::Vector x(kDim);
    for (std::size_t i = 0; i < kDim; ++i)
      x[i] = 1.0 + std::sin(static_cast<double>(id * kDim + i));
    return x;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        const std::size_t id = w * kPerWriter + i;
        differ.add_member(id, forecast_for(id));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop.load()) {
        if (differ.count() < 2) continue;
        const AnomalyView v = differ.view();
        // Versions are monotone per reader, and a view is internally
        // consistent: columns are member_id-sorted, each cached border
        // spans every column that arrived before its owner, and a full
        // view holds a complete arrival prefix (indices 0..n-1).
        if (v.version < last_version) ++violations;
        last_version = v.version;
        if (!v.storage) ++violations;
        std::size_t latest = 0, earliest = 0;
        for (std::size_t j = 0; j < v.count(); ++j) {
          const AnomalyColumn& c = v.columns[j];
          if (c.gram_row->size() != c.arrival_index + 1) ++violations;
          if (c.arrival_index >= v.count()) ++violations;
          if (j > 0 && v.columns[j - 1].member_id >= c.member_id)
            ++violations;
          // Arena-backed columns start on a cache line even while other
          // writers are allocating fresh spans mid-gram_append.
          if (c.anomaly.size() != kDim) ++violations;
          if (!essex::is_aligned(c.anomaly.data(), 64)) ++violations;
          if (c.arrival_index > v.columns[latest].arrival_index) latest = j;
          if (c.arrival_index < v.columns[earliest].arrival_index)
            earliest = j;
        }
        // A prefix snapshot cut mid-growth shares the exact column
        // handles of its parent view: same spans (pointer identity, not
        // value equality), same cached borders, same keepalive.
        const AnomalyView pre = v.prefix(v.count() / 2 + 1);
        if (pre.storage != v.storage) ++violations;
        for (std::size_t j = 0; j < pre.count(); ++j) {
          if (pre.columns[j].anomaly.data() != v.columns[j].anomaly.data())
            ++violations;
          if (pre.columns[j].gram_row != v.columns[j].gram_row) ++violations;
        }
        // Spot-check a cached border entry against a recomputed dot —
        // the canonical reduction shape is tier- and order-invariant,
        // so the match is EXACT: the latest arrival's row at the
        // earliest arrival's position.
        const la::Vector& row = *v.columns[latest].gram_row;
        const std::span<const double> aj = v.columns[latest].anomaly;
        const std::span<const double> a0 = v.columns[earliest].anomaly;
        const la::Vector aj_copy(aj.begin(), aj.end());
        const la::Vector a0_copy(a0.begin(), a0.end());
        const double acc = la::dot(a0_copy, aj_copy);
        if (row[v.columns[earliest].arrival_index] != acc) ++violations;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  ASSERT_EQ(differ.count(), kWriters * kPerWriter);

  // Final cache equals a from-scratch rebuild exactly: no border was
  // dropped or computed against a stale prefix.
  const AnomalyView final_view = differ.view();
  const la::Matrix a = final_view.materialize();
  const la::Matrix explicit_gram = la::matmul_at_b(a, a);
  EXPECT_NEAR((final_view.gram() - explicit_gram).max_abs(), 0.0, 1e-10);
}

TEST(DifferConcurrency, SvdReaderOnContiguousViewWhileGrowing) {
  // The runner's actual protocol: writers absorb members in whatever
  // order they finish; the SVD reader waits for the contiguous id prefix
  // to cross each milestone, cuts contiguous_view() and decomposes the
  // milestone's canonical prefix while the writers keep appending.
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kMembers = 60;
  constexpr std::size_t kStride = 4;
  auto forecast_for = [](std::size_t id) {
    la::Vector x(kDim);
    for (std::size_t k = 0; k < kDim; ++k)
      x[k] = std::cos(static_cast<double>(id + 1) * (k + 1));
    return x;
  };
  Differ differ(la::Vector(kDim, 0.0));
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = w; i < kMembers; i += 3)
        differ.add_member(i, forecast_for(i));
    });
  }
  std::map<std::size_t, ErrorSubspace> live;  // milestone -> subspace
  std::thread svd_reader([&] {
    for (std::size_t c = kStride; c <= kMembers;) {
      if (differ.contiguous_count() < c) {
        std::this_thread::yield();
        continue;
      }
      const AnomalyView view = differ.contiguous_view();
      if (!view.storage || view.count() < c) ++violations;
      // Every milestone the snapshot covers, in order — the same loop
      // shape as the runner's.
      for (; c <= view.count(); c += kStride) {
        const AnomalyView pre = view.prefix(c);
        for (std::size_t j = 0; j < c; ++j)
          if (pre.columns[j].member_id != j) ++violations;
        ErrorSubspace sub = subspace_from_view(pre, 0.99, 8);
        if (sub.rank() < 1 || sub.dim() != kDim) ++violations;
        live.emplace(c, std::move(sub));
      }
    }
  });
  for (auto& t : writers) t.join();
  svd_reader.join();

  EXPECT_EQ(violations.load(), 0);
  ASSERT_EQ(differ.count(), kMembers);
  ASSERT_EQ(differ.contiguous_count(), kMembers);
  ASSERT_EQ(live.size(), kMembers / kStride);
  // A milestone's subspace is a pure function of its canonical prefix:
  // recomputing it once every writer has finished gives the same bytes
  // the reader got mid-growth.
  const AnomalyView final_view = differ.contiguous_view();
  for (const auto& [c, sub] : live) {
    const ErrorSubspace again =
        subspace_from_view(final_view.prefix(c), 0.99, 8);
    EXPECT_EQ(sub.sigmas(), again.sigmas()) << "milestone " << c;
    EXPECT_TRUE(sub.modes().data() == again.modes().data())
        << "milestone " << c;
  }
}

}  // namespace
}  // namespace essex::esse
