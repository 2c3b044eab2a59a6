// ESSEX: runtime-dispatched SIMD kernels for the linalg hot path.
//
// Every dense kernel the DA pipeline spends real time in — the differ's
// Gram borders, AᵀB products, U = A·V recoveries, Jacobi rotations —
// funnels through the small kernel table below, and so does the tracer
// stencil the ocean integrator spends most of its time in. Two dispatch
// tiers exist (scalar reference, AVX2+FMA); the active tier is picked
// once at startup from cpuid, overridable with ESSEX_SIMD_LEVEL for
// testing (values: "scalar", "avx2").
//
// ## The determinism contract (DESIGN.md §10, §13)
//
// All tiers of a kernel are BITWISE IDENTICAL — not approximately equal.
// The golden replay harness pins one digest per seeded forecast, and
// that digest must not depend on which machine (or ESSEX_SIMD_LEVEL)
// produced it. Two rules make this possible:
//
// 1. *Elementwise kernels* (axpy, rotate, scale, the rank-1 row updates
//    inside the matmuls, the ocean tracer stencil) carry no
//    cross-element reduction: each output element is its own rounding
//    chain, so vectorizing over elements is bitwise-free on every tier.
//    These use plain multiply+add — never a fused multiply-add, which
//    would round differently per element.
//
// 2. *Reduction kernels* (dot, sumsq, the Gram border dots, Jacobi's
//    pair products) fix one canonical summation shape shared by every
//    tier: four lane-strided accumulators combined as
//    (acc0+acc2)+(acc1+acc3), each lane advanced with a single-rounded
//    fused multiply-add, and the length%4 tail folded sequentially with
//    fma afterwards. The AVX2 tier computes exactly this with one ymm
//    accumulator; the scalar tier mirrors it with std::fma (correctly
//    rounded by C99, hence bit-identical to the hardware instruction).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace essex::la::simd {

/// Dispatch tiers, ordered: a CPU that supports tier t supports every
/// tier below it.
enum class Level : int {
  kScalar = 0,  ///< canonical reference (std::fma reductions)
  kAvx2 = 1,    ///< AVX2 + FMA everywhere
};

/// "scalar" / "avx2".
const char* level_name(Level level);

/// Parse a level name (as accepted in ESSEX_SIMD_LEVEL); nullopt for
/// anything unrecognised.
std::optional<Level> parse_level(std::string_view name);

/// Highest tier this CPU supports (compile-target ∩ cpuid).
Level max_supported_level();

/// The tier kernels() dispatches to: max_supported_level(), clamped by
/// ESSEX_SIMD_LEVEL when set (an env request above hardware support is
/// clamped down, never up), or the innermost active ScopedLevel.
Level active_level();

/// RAII override of active_level() for tests — forces a tier (clamped
/// to hardware support) for the scope's lifetime. Establish before
/// worker threads start touching kernels; the override itself is a
/// relaxed atomic, not a synchronisation point.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int previous_;
};

/// Column fan-in of dot_block: one streaming pass over `x` feeds up to
/// this many cached-column dot products (8 accumulator registers on
/// AVX2). gram_append's column blocking is built on this width.
inline constexpr std::size_t kDotBlockCols = 8;

/// One horizontal level of the ocean tracer update (KernelTable::
/// tracer_run): index offsets to a point's neighbours and the update's
/// coefficients. Lengths in metres, dt in seconds.
struct TracerLevel {
  std::ptrdiff_t row;     ///< offset to the north neighbour (−row: south)
  std::ptrdiff_t up, dn;  ///< offsets to the level above / below (0 at
                          ///< the top / bottom level)
  bool vertical;          ///< false on a one-level grid: no vertical term
  double dx, dy;          ///< cell widths
  double dx2, dy2;        ///< dx·dx, dy·dy
  double kappa_h;         ///< horizontal diffusivity (m²/s)
  double kappa_v;         ///< vertical diffusivity (m²/s)
  double dz_up2, dz_dn2;  ///< squared spacing to the level above / below
  double dt;
};

/// One dispatch tier's kernel set. All pointers are non-null; all
/// lengths are in doubles; src/dst ranges must not overlap unless a
/// kernel documents in-place semantics.
struct KernelTable {
  // ---- canonical reductions (rule 2 above) ----------------------------

  /// Σ x[i]·y[i] in the canonical 4-lane fma shape.
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// Σ x[i]² in the canonical shape.
  double (*sumsq)(const double* x, std::size_t n);

  /// out[w] = dot(cols[w], x) for w < ncols (ncols ≤ kDotBlockCols),
  /// all accumulated in one streaming pass over x. Each out[w] is
  /// bitwise equal to dot(cols[w], x, n).
  void (*dot_block)(const double* const* cols, std::size_t ncols,
                    const double* x, std::size_t n, double* out);

  /// One-sided-Jacobi pair products in a single pass:
  /// alpha = Σ x[i]², beta = Σ y[i]², gamma = Σ x[i]·y[i], each in the
  /// canonical shape (bitwise equal to sumsq/sumsq/dot).
  void (*pair_dots)(const double* x, const double* y, std::size_t n,
                    double* alpha, double* beta, double* gamma);

  // ---- elementwise kernels (rule 1 above) -----------------------------

  /// y[i] += a·x[i] (multiply then add, per element).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(double* x, double s, std::size_t n);

  /// In-place Givens update of two columns:
  /// x[i], y[i] ← c·x[i] − s·y[i], s·x[i] + c·y[i].
  void (*rotate)(double c, double s, double* x, double* y, std::size_t n);

  /// C (p×n, row-major) += Σ_r A[r,:] ⊗ B[r,:] over `rows` rows of the
  /// row-major panels a (rows×p) and b (rows×n): the matmul_at_b leaf
  /// body. Rows accumulate in ascending order per output element with
  /// multiply+add, and a row's contribution to output row i is skipped
  /// entirely when a[r*p+i] == 0 — bitwise identical to the historical
  /// scalar triple loop on every tier.
  void (*atb_update)(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t p, std::size_t n);

  /// crow (length n) += Σ_q arow[q]·B[q,:] over the row-major b (k×n),
  /// q ascending per element, zero arow[q] rows skipped: the C = A·B
  /// per-output-row body, bitwise identical to the historical loop.
  void (*ab_row)(const double* arow, const double* b, double* crow,
                 std::size_t k, std::size_t n);

  /// One row tile of U = A·V, the columns_matmul body. `a` holds the
  /// tile's coefficients row-major (rows × n, already scaled), and for
  /// i < rows and j < r
  ///   out[i·r + j] = Σ_c a[i·n + c] · v[c·ldv + j],
  /// c ascending, starting from 0.0, each term multiply-then-add. A
  /// row's r accumulators stay in registers across all n terms and the
  /// row is stored once.
  void (*columns_tile)(const double* a, std::size_t rows, std::size_t n,
                       const double* v, std::size_t ldv, std::size_t r,
                       double* out);

  /// One run of n interior water points of a tracer field f, the ocean
  /// model's upwind advection + diffusion step. Point i reads
  /// fc = f[i], fw/fe = f[i∓1], fs/fn = f[i∓row], fu/fd = f[i+up]/f[i+dn],
  /// u[i] and v[i], and writes, in this order,
  ///   ax  = u > 0 ? u·(fc−fw) : u·(fe−fc)   (ay likewise with v, fs, fn)
  ///   adv = (0.0 + ax/dx) + ay/dy
  ///   lap = ((fe − 2·fc) + fw)/dx2 + ((fn − 2·fc) + fs)/dy2
  ///   vd  = vertical ? κv·((fd − fc)/dz_dn2 − (fc − fu)/dz_up2) : 0.0
  ///   out[i] = fc + dt·((−adv + κh·lap) + vd)
  /// The comparison is ordered: u = 0, −0 or NaN takes the second side.
  void (*tracer_run)(const double* f, const double* u, const double* v,
                     std::size_t n, const TracerLevel& k, double* out);
};

/// Kernel table of the active tier (one relaxed atomic load).
const KernelTable& kernels();

/// Kernel table of a specific tier, clamped to hardware support: asking
/// for AVX2 on a non-AVX2 machine returns the best supported tier.
const KernelTable& kernels_for(Level level);

}  // namespace essex::la::simd
