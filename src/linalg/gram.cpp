#include "linalg/gram.hpp"

#include <algorithm>
#include <future>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace essex::la {

void gram_append(std::span<const ColSpan> cols, ColSpan new_col,
                 double* out) {
  // Columns per fused dot block: the dispatch layer streams one pass of
  // new_col through up to this many accumulator sets.
  constexpr std::size_t kColBlock = simd::kDotBlockCols;
  const auto& kern = simd::kernels();
  const std::size_t k = cols.size();
  const std::size_t m = new_col.size();
  for (const ColSpan& c : cols) {
    ESSEX_REQUIRE(c.size() == m, "gram_append column length mismatch");
  }
  for (std::size_t b0 = 0; b0 < k; b0 += kColBlock) {
    const std::size_t width = std::min(k - b0, kColBlock);
    const double* c[kColBlock] = {};
    for (std::size_t w = 0; w < width; ++w) c[w] = cols[b0 + w].data();
    kern.dot_block(c, width, new_col.data(), m, out + b0);
  }
}

double dot_sharded(ColSpan a, ColSpan b, std::span<const RunList> shards) {
  ESSEX_REQUIRE(a.size() == b.size(), "dot_sharded column length mismatch");
  const auto& kern = simd::kernels();
  double total = 0.0;
  for (const RunList& runs : shards) {
    double partial = 0.0;
    for (const IndexRange& r : runs) {
      ESSEX_REQUIRE(r.begin + r.len <= a.size(),
                    "dot_sharded run out of range");
      partial += kern.dot(a.data() + r.begin, b.data() + r.begin, r.len);
    }
    total += partial;
  }
  return total;
}

double sumsq_sharded(ColSpan a, std::span<const RunList> shards) {
  const auto& kern = simd::kernels();
  double total = 0.0;
  for (const RunList& runs : shards) {
    double partial = 0.0;
    for (const IndexRange& r : runs) {
      ESSEX_REQUIRE(r.begin + r.len <= a.size(),
                    "sumsq_sharded run out of range");
      partial += kern.sumsq(a.data() + r.begin, r.len);
    }
    total += partial;
  }
  return total;
}

void gram_append_sharded(std::span<const ColSpan> cols, ColSpan new_col,
                         std::span<const RunList> shards, double* out) {
  for (std::size_t i = 0; i < cols.size(); ++i)
    out[i] = dot_sharded(cols[i], new_col, shards);
}

Matrix columns_matmul(std::span<const ColSpan> cols, const Matrix& v,
                      std::size_t r, double scale, ThreadPool* pool) {
  const std::size_t n = cols.size();
  ESSEX_REQUIRE(v.rows() == n, "columns_matmul: V row count mismatch");
  ESSEX_REQUIRE(r <= v.cols(), "columns_matmul: r exceeds V columns");
  const std::size_t m = n ? cols.front().size() : 0;
  for (const ColSpan& c : cols) {
    ESSEX_REQUIRE(c.size() == m, "columns_matmul column length mismatch");
  }
  Matrix out(m, r);
  if (m == 0 || r == 0) return out;

  // Row tiles: each tile reads its kTileRows-row slice of the n columns
  // once, transposed into a row-major scratch tile with the scale applied
  // (the one rounding of cols[c][i]·scale each coefficient always had),
  // and the kernel writes the tile's rows of U once — instead of sweeping
  // the whole m×r output once per column. Rows are independent, so
  // neither the tiling nor the pool split below can change a bit.
  constexpr std::size_t kTileRows = 128;
  auto run_rows = [&](std::size_t lo, std::size_t hi) {
    double* o = out.data().data();
    const auto& kern = simd::kernels();
    std::vector<double> tile(kTileRows * n);
    for (std::size_t t = lo; t < hi; t += kTileRows) {
      const std::size_t rows = std::min(kTileRows, hi - t);
      for (std::size_t c = 0; c < n; ++c) {
        const double* col = cols[c].data() + t;
        for (std::size_t i = 0; i < rows; ++i) tile[i * n + c] = col[i] * scale;
      }
      kern.columns_tile(tile.data(), rows, n, v.data().data(), v.cols(), r,
                        o + t * r);
    }
  };

  const std::size_t threads = pool ? pool->thread_count() : 1;
  if (pool == nullptr || threads <= 1 || m < 2 * threads) {
    run_rows(0, m);
    return out;
  }
  std::vector<std::future<void>> futs;
  const std::size_t per = (m + threads - 1) / threads;
  for (std::size_t lo = 0; lo < m; lo += per) {
    const std::size_t hi = std::min(m, lo + per);
    futs.push_back(pool->submit([&, lo, hi] { run_rows(lo, hi); }));
  }
  for (auto& f : futs) f.get();
  return out;
}

}  // namespace essex::la
