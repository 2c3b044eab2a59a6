// SIMD dispatch plumbing: cpuid detection, ESSEX_SIMD_LEVEL parsing,
// and the ScopedLevel test override. See simd.hpp for the contract.
#include "linalg/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "linalg/simd_impl.hpp"

namespace essex::la::simd {

namespace {

// ScopedLevel override; -1 means "no override active".
std::atomic<int> g_forced_level{-1};

Level detect_max_supported() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Level::kAvx2;
  return Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level clamp_to_hardware(Level level) {
  const Level max = max_supported_level();
  return level > max ? max : level;
}

// Startup default: hardware max, clamped down by ESSEX_SIMD_LEVEL when
// set to a recognised name. An unrecognised value is ignored (the env
// hook is a test/diagnostic escape hatch, not configuration users
// should fail on).
Level detect_default_level() {
  Level level = max_supported_level();
  if (const char* env = std::getenv("ESSEX_SIMD_LEVEL")) {
    if (const auto parsed = parse_level(env)) level = clamp_to_hardware(*parsed);
  }
  return level;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level max_supported_level() {
  static const Level max = detect_max_supported();
  return max;
}

Level active_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level base = detect_default_level();
  return base;
}

ScopedLevel::ScopedLevel(Level level)
    : previous_(g_forced_level.load(std::memory_order_relaxed)) {
  g_forced_level.store(static_cast<int>(clamp_to_hardware(level)),
                       std::memory_order_relaxed);
}

ScopedLevel::~ScopedLevel() {
  g_forced_level.store(previous_, std::memory_order_relaxed);
}

const KernelTable& kernels() { return kernels_for(active_level()); }

const KernelTable& kernels_for(Level level) {
  switch (clamp_to_hardware(level)) {
    case Level::kAvx2:
      return detail::avx2_table();
    case Level::kScalar:
      break;
  }
  return detail::scalar_table();
}

}  // namespace essex::la::simd
