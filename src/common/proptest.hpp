// ESSEX: seeded, shrinking property-test core (essex::testkit).
//
// A tiny QuickCheck-style driver built on the repo's determinism
// contract: every generated case derives from a single 64-bit case seed,
// so every failure message carries one number that reproduces the whole
// case — generation, property evaluation and the deterministic greedy
// shrink that follows. Rerun a failure exactly with
//
//   ESSEX_PROP_SEED=0x<hex> ./test_binary --gtest_filter=...
//
// Generators pair a create function (Rng& → T) with an optional shrink
// function (T → smaller candidate Ts, most aggressive first). The domain
// generators for matrices, ensembles, subspaces, observation sets, fault
// schedules and arrival orders live in src/testkit/generators.hpp; this
// header owns only the engine and the scalar/sequence primitives, so the
// base library stays dependency-free.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace essex::testkit {

/// A value generator with optional shrinking and printing.
template <typename T>
struct Gen {
  /// Draw one value. Must consume `rng` deterministically.
  std::function<T(Rng&)> create;
  /// Smaller candidate values derived from a failing one, most
  /// aggressive reduction first. Empty or unset = no shrinking.
  std::function<std::vector<T>(const T&)> shrink;
  /// Render a counterexample for the failure message (optional).
  std::function<std::string(const T&)> describe;
};

/// Knobs of one check() run.
struct PropConfig {
  std::string name = "property";
  std::uint64_t seed = 0xE55E0005ULL;  ///< suite seed; case i derives from it
  std::size_t cases = 100;
};

/// Outcome of check(): `ok`, or a failure whose `message` embeds the
/// reproducing seed. Designed for `ASSERT_TRUE(r.ok) << r.message;`.
struct PropResult {
  bool ok = true;
  std::size_t cases_run = 0;
  std::size_t shrinks_applied = 0;
  std::uint64_t failing_seed = 0;  ///< case seed that reproduces it all
  std::string message;
};

/// Per-case seed: a SplitMix64-style mix of (suite seed, case index).
/// Stable across platforms — this number IS the reproduction handle.
std::uint64_t case_seed(std::uint64_t suite_seed, std::size_t index);

/// ESSEX_PROP_SEED from the environment (accepts decimal or 0x-hex);
/// nullopt when unset or unparsable. When set, check() replays exactly
/// that one case instead of the sweep.
std::optional<std::uint64_t> env_seed();

/// Format the standard failure preamble, including the rerun recipe.
std::string failure_banner(const std::string& name, std::size_t case_index,
                           std::uint64_t seed, std::size_t shrinks);

/// Evaluate `property` on generated values. The property either returns
/// bool (false = falsified) or throws (treated as falsified, message
/// captured). On failure the value is shrunk greedily: the first shrink
/// candidate that still fails becomes the new counterexample, until no
/// candidate fails or the 500-step shrink budget is spent.
template <typename T, typename Property>
PropResult check(const PropConfig& config, const Gen<T>& gen,
                 Property&& property) {
  auto fails = [&](const T& value, std::string* why) {
    try {
      if constexpr (std::is_convertible_v<
                        decltype(property(std::declval<const T&>())),
                        bool>) {
        if (!property(value)) {
          if (why) *why = "property returned false";
          return true;
        }
      } else {
        property(value);
      }
      return false;
    } catch (const std::exception& e) {
      if (why) *why = std::string("property threw: ") + e.what();
      return true;
    }
  };

  PropResult result;
  const std::optional<std::uint64_t> replay = env_seed();
  const std::size_t n_cases = replay ? 1 : config.cases;
  for (std::size_t i = 0; i < n_cases; ++i) {
    const std::uint64_t cs = replay ? *replay : case_seed(config.seed, i);
    Rng rng(cs);
    T value = gen.create(rng);
    std::string why;
    if (!fails(value, &why)) {
      ++result.cases_run;
      continue;
    }
    // Deterministic greedy shrink: same seed → same shrink path.
    constexpr std::size_t kMaxShrinks = 500;
    std::size_t shrinks = 0;
    bool reduced = true;
    while (reduced && shrinks < kMaxShrinks && gen.shrink) {
      reduced = false;
      for (T& candidate : gen.shrink(value)) {
        std::string cwhy;
        if (fails(candidate, &cwhy)) {
          value = std::move(candidate);
          why = std::move(cwhy);
          ++shrinks;
          reduced = true;
          break;
        }
      }
    }
    result.ok = false;
    result.failing_seed = cs;
    result.shrinks_applied = shrinks;
    result.message = failure_banner(config.name, i, cs, shrinks) + "\n  " +
                     why;
    if (gen.describe) {
      result.message += "\n  counterexample: " + gen.describe(value);
    }
    return result;
  }
  return result;
}

// ---- scalar & sequence primitives --------------------------------------

/// Uniform integer in [lo, hi]; shrinks toward lo (halving the distance).
Gen<std::size_t> gen_size(std::size_t lo, std::size_t hi);

/// Uniform double in [lo, hi); shrinks toward lo, then toward round
/// values.
Gen<double> gen_double(double lo, double hi);

/// A uniformly random permutation of 0..n-1; shrinks toward the identity
/// by undoing one displaced element at a time. The canonical generator
/// for adversarial member-arrival orders.
Gen<std::vector<std::size_t>> gen_permutation(std::size_t n);

/// Vector of `count` draws from `element`; shrinks by dropping a suffix,
/// then single elements, then shrinking elements individually.
template <typename T>
Gen<std::vector<T>> gen_vector(Gen<T> element, std::size_t count_lo,
                               std::size_t count_hi) {
  Gen<std::vector<T>> g;
  g.create = [element, count_lo, count_hi](Rng& rng) {
    const std::size_t n =
        count_lo + static_cast<std::size_t>(
                       rng.uniform_index(count_hi - count_lo + 1));
    std::vector<T> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(element.create(rng));
    return out;
  };
  g.shrink = [element, count_lo](const std::vector<T>& v) {
    std::vector<std::vector<T>> cands;
    if (v.size() > count_lo) {
      // Halve toward the minimum length first, then drop one element.
      const std::size_t half = count_lo + (v.size() - count_lo) / 2;
      if (half < v.size()) {
        cands.emplace_back(v.begin(), v.begin() + static_cast<long>(half));
      }
      std::vector<T> minus_one(v.begin(), v.end() - 1);
      cands.push_back(std::move(minus_one));
    }
    if (element.shrink && !v.empty()) {
      for (T& smaller : element.shrink(v.front())) {
        std::vector<T> copy = v;
        copy.front() = std::move(smaller);
        cands.push_back(std::move(copy));
      }
    }
    return cands;
  };
  return g;
}

/// Transform a generator's output, carrying shrinking through: shrink
/// candidates are generated in the source domain and re-mapped.
template <typename T, typename U>
Gen<U> map_gen(Gen<T> source, std::function<U(const T&)> fn) {
  Gen<U> g;
  g.create = [source, fn](Rng& rng) { return fn(source.create(rng)); };
  // Mapping is not invertible, so shrinking stays in the source domain:
  // no direct shrink in U. Callers needing it supply their own.
  return g;
}

}  // namespace essex::testkit
