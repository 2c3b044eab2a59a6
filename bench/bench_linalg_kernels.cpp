// Tracked SIMD kernel suite (DESIGN.md §13): times the dispatch-layer
// hot paths on ESSE's production shapes — the differ's Gram border, the
// tall-skinny AᵀB product, the U = A·V mode product, the one-sided
// Jacobi SVD, the subspace analysis update and the ocean model's tracer
// stencil — once under the active dispatch tier and once forced to the
// scalar reference, and reports the speedup and effective memory
// bandwidth per kernel.
//
// Unlike the other benches this one is CI-gated: the JSON it writes to
// results/bench_linalg_kernels.json is checked by tools/check_perf.py
// against the ratchet floors in tests/perf_baseline.json, so a change
// that quietly de-vectorises a kernel fails the perf job instead of
// landing. Timing is min-of-reps (the classic noise filter: the minimum
// is the run least disturbed by the machine).
//
// Usage: bench_linalg_kernels [--out FILE] [--reps N] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "esse/analysis.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/svd.hpp"

namespace {

using namespace essex;
using namespace essex::la;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (auto& x : a.data()) x = rng.normal();
  return a;
}

/// Milliseconds of the fastest of `reps` runs of `body`.
template <typename F>
double min_ms(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string name;
  std::string shape;
  double scalar_ms = 0;
  double simd_ms = 0;
  double bytes = 0;  ///< memory traffic of one run, for the GB/s column

  double speedup() const { return simd_ms > 0 ? scalar_ms / simd_ms : 0; }
  double gb_per_s() const {
    return simd_ms > 0 ? bytes / (simd_ms * 1e6) : 0;  // bytes/ms → GB/s
  }
};

/// Times `body` under the active tier and again forced to the scalar
/// reference tier.
template <typename F>
Row bench(std::string name, std::string shape, double bytes, int reps,
          F&& body) {
  Row row;
  row.name = std::move(name);
  row.shape = std::move(shape);
  row.bytes = bytes;
  row.simd_ms = min_ms(reps, body);
  {
    simd::ScopedLevel force(simd::Level::kScalar);
    row.scalar_ms = min_ms(reps, body);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(2);
  }
  out << "{\n  \"simd_level\": \""
      << simd::level_name(simd::active_level()) << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"shape\": \"" << r.shape
        << "\", \"scalar_ms\": " << r.scalar_ms
        << ", \"simd_ms\": " << r.simd_ms << ", \"speedup\": " << r.speedup()
        << ", \"gb_per_s\": " << r.gb_per_s() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_linalg_kernels.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      reps = 3;
    } else {
      std::cerr << "usage: bench_linalg_kernels [--out FILE] [--reps N] "
                   "[--quick]\n";
      return 2;
    }
  }

  // ESSE production shapes: m = state dim (tall), n/k = ensemble size.
  constexpr std::size_t kM = 24000;
  constexpr std::size_t kCols = 96;
  constexpr std::size_t kP = 64;

  std::vector<Row> rows;

  {
    // la::matmul_at_b (the atb_update kernel) as the dense Gram SVD
    // calls it: AᵀB with A,B tall-skinny. Traffic: stream A and B once.
    const Matrix a = random_matrix(kM, kP, 11);
    const Matrix b = random_matrix(kM, kP, 12);
    rows.push_back(bench(
        "matmul_at_b", "24000x64 * 24000x64",
        static_cast<double>(2 * kM * kP * sizeof(double)), reps, [&] {
          const Matrix c = matmul_at_b(a, b);
          if (c.rows() != kP) std::abort();
        }));
  }
  {
    // The differ's border: one landing member dotted against every
    // cached column. Traffic: all cached columns plus the new one.
    const Matrix store = random_matrix(kM, kCols, 13);
    std::vector<Vector> cols(kCols);
    for (std::size_t j = 0; j < kCols; ++j) cols[j] = store.col(j);
    std::vector<ColSpan> spans(cols.begin(), cols.end());
    const Vector fresh = random_matrix(kM, 1, 14).col(0);
    std::vector<double> border(kCols);
    rows.push_back(bench(
        "gram_append", "96 cols x 24000",
        static_cast<double>((kCols + 1) * kM * sizeof(double)), reps,
        [&] { gram_append(spans, fresh, border.data()); }));
  }
  {
    // U = A·V over column storage, retained modes only (the subspace
    // check's second half). Traffic: read all columns, write U.
    const Matrix store = random_matrix(kM, kCols, 15);
    std::vector<Vector> cols(kCols);
    for (std::size_t j = 0; j < kCols; ++j) cols[j] = store.col(j);
    std::vector<ColSpan> spans(cols.begin(), cols.end());
    const Matrix v = random_matrix(kCols, 16, 16);
    rows.push_back(bench(
        "columns_matmul", "24000x96 * 96x16",
        static_cast<double>((kCols + 16) * kM * sizeof(double)), reps, [&] {
          const Matrix u = columns_matmul(spans, v, 16);
          if (u.rows() != kM) std::abort();
        }));
  }
  {
    // One-sided Jacobi on the accuracy-path shape (pair_dots + rotate).
    const Matrix a = random_matrix(4096, 32, 17);
    rows.push_back(bench(
        "jacobi_svd", "4096x32",
        static_cast<double>(4096 * 32 * sizeof(double)), std::max(reps / 2, 2),
        [&] {
          const ThinSvd s = svd_thin(a, SvdMethod::kOneSidedJacobi);
          if (s.s.empty()) std::abort();
        }));
  }
  {
    // The full subspace Kalman update at production state dimension:
    // dominated by the E-products riding matmul/matvec.
    const std::size_t rank = 32, nobs = 64;
    Matrix modes = random_matrix(kM, rank, 18);
    for (std::size_t j = 0; j < rank; ++j) {
      Vector c = modes.col(j);
      const double nrm = norm2(c);
      for (auto& x : c) x /= nrm;
      modes.set_col(j, c);
    }
    Vector sigmas(rank);
    for (std::size_t j = 0; j < rank; ++j)
      sigmas[j] = 2.0 / static_cast<double>(j + 1);
    const esse::ErrorSubspace sub(std::move(modes), std::move(sigmas));
    const Vector forecast(kM, 1.0);
    std::vector<esse::LinearObservation> obs(nobs);
    for (std::size_t o = 0; o < nobs; ++o) {
      obs[o].stencil = {{(o * 353) % kM, 1.0}};
      obs[o].value = 1.1;
      obs[o].variance = 0.25;
    }
    rows.push_back(bench(
        "analysis_update", "dim 24000, rank 32, 64 obs",
        static_cast<double>(2 * kM * rank * sizeof(double)), reps, [&] {
          const esse::AnalysisResult r =
              esse::analyze(forecast, sub, esse::ObsSet::from_linear(obs));
          if (r.posterior_state.size() != kM) std::abort();
        }));
  }

  {
    // The ocean integrator's tracer stencil on a Monterey-sized field
    // (48x40x6): each level's interior rows as runs of 46 columns, two
    // tracers per step, 40 steps per rep. Traffic per point: the field,
    // u, v and the output.
    constexpr std::size_t nx = 48, ny = 40, nz = 6, kSteps = 40;
    const std::size_t hp = nx * ny;
    const Matrix fields = random_matrix(hp * nz, 4, 19);
    std::vector<double> f = fields.col(0), u = fields.col(1),
                        v = fields.col(2), out(hp * nz);
    for (auto& x : f) x = 12.0 + x;
    simd::TracerLevel k{};
    k.row = nx;
    k.vertical = true;
    k.dx = k.dy = 2500.0;
    k.dx2 = k.dy2 = k.dx * k.dx;
    k.kappa_h = 50.0;
    k.kappa_v = 1e-4;
    k.dz_up2 = k.dz_dn2 = 50.0 * 50.0;
    k.dt = 300.0;
    const double points =
        static_cast<double>(kSteps * 2 * nz * (ny - 2) * (nx - 2));
    rows.push_back(bench(
        "tracer_run", "48x40x6, T+S x 40 steps",
        points * 4 * sizeof(double), reps, [&] {
          const simd::KernelTable& kern = simd::kernels();
          for (std::size_t step = 0; step < 2 * kSteps; ++step) {
            for (std::size_t iz = 0; iz < nz; ++iz) {
              k.up = iz > 0 ? -static_cast<std::ptrdiff_t>(hp) : 0;
              k.dn = iz + 1 < nz ? static_cast<std::ptrdiff_t>(hp) : 0;
              for (std::size_t iy = 1; iy + 1 < ny; ++iy) {
                const std::size_t id = iz * hp + iy * nx + 1;
                kern.tracer_run(f.data() + id, u.data() + id, v.data() + id,
                                nx - 2, k, out.data() + id);
              }
            }
          }
        }));
  }

  std::cout << "active SIMD tier: " << simd::level_name(simd::active_level())
            << " (max supported: "
            << simd::level_name(simd::max_supported_level()) << ")\n\n";
  std::printf("%-16s %-24s %12s %12s %9s %9s\n", "kernel", "shape",
              "scalar_ms", "simd_ms", "speedup", "GB/s");
  for (const Row& r : rows) {
    std::printf("%-16s %-24s %12.3f %12.3f %8.2fx %9.2f\n", r.name.c_str(),
                r.shape.c_str(), r.scalar_ms, r.simd_ms, r.speedup(),
                r.gb_per_s());
  }
  write_json(out_path, rows);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
