// The PR-4 replay harness driver: executes the canonical golden run
// (DESIGN.md §10) at several thread counts and under two adversarially
// shuffled arrival schedules, prints each digest, and reports whether
// they agree — the same property ctest -L determinism enforces.
//
// --write-golden [path] additionally rewrites the checked-in golden
// digest files (default: the build-time tests/golden directory), in
// sha256sum line format: the forecast digest at `path`, and beside it
// analysis_methods.sha256 and ocean.sha256. Run it after an
// *intentional* change to the seeded numerics, then commit the new
// digests with the change.
//
// Usage: bench_determinism [--write-golden [path]]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/determinism_probe.hpp"

#ifndef ESSEX_GOLDEN_DIR
#define ESSEX_GOLDEN_DIR "."
#endif

int main(int argc, char** argv) {
  using namespace essex;

  bool write_golden = false;
  std::string golden_path = std::string(ESSEX_GOLDEN_DIR) +
                            "/determinism.sha256";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write-golden") {
      write_golden = true;
      if (i + 1 < argc) golden_path = argv[++i];
    } else {
      std::cerr << "usage: bench_determinism [--write-golden [path]]\n";
      return 2;
    }
  }

  struct Run {
    std::string label;
    std::string digest;
  };
  std::vector<Run> runs;
  const auto record = [&](const std::string& label, std::string digest) {
    runs.push_back({label, std::move(digest)});
    std::cout << runs.back().digest << "  " << label << "\n";
  };

  record("threads=1", service::golden_digest(1));
  record("threads=4", service::golden_digest(4));
  record("threads=8", service::golden_digest(8));
  record("threads=4 shuffle=reversed",
         service::golden_digest(4, [](std::size_t id) {
           std::this_thread::sleep_for(
               std::chrono::milliseconds((23 - id % 24) / 4));
         }));
  record("threads=4 shuffle=strided",
         service::golden_digest(4, [](std::size_t id) {
           std::this_thread::sleep_for(
               std::chrono::milliseconds((id * 37 + 11) % 7));
         }));

  bool agree = true;
  for (const Run& r : runs) agree = agree && r.digest == runs.front().digest;
  std::cout << (agree ? "all digests agree" : "DIGEST MISMATCH") << "\n";
  if (!agree) return 1;

  // Per-method analysis digests (DESIGN.md §16): every registered
  // AnalysisMethod must produce one digest across thread counts.
  const auto analysis1 = service::golden_analysis_digests(1);
  const auto analysis4 = service::golden_analysis_digests(4);
  bool methods_agree = true;
  for (const auto& [method, digest] : analysis1) {
    const std::string key = std::string(service::kGoldenRunKey) + "-" +
                            esse::to_string(method);
    std::cout << digest << "  " << key << "\n";
    if (analysis4.at(method) != digest) methods_agree = false;
  }
  std::cout << (methods_agree ? "all analysis-method digests agree"
                              : "ANALYSIS METHOD DIGEST MISMATCH")
            << "\n";
  if (!methods_agree) return 1;

  // Bare-model trajectories over land, stale currents, a coarse level
  // and a drifter (tests/golden/ocean.sha256).
  const auto ocean_digests = service::ocean_trajectory_digests();
  for (const auto& [key, digest] : ocean_digests)
    std::cout << digest << "  " << key << "\n";

  if (write_golden) {
    using Entries = std::vector<std::pair<std::string, std::string>>;
    // sha256sum line format: one "<hex>  <key>" line per entry.
    const auto write = [](const std::string& path, const Entries& entries) {
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return false;
      }
      for (const auto& [key, digest] : entries)
        out << digest << "  " << key << "\n";
      std::cout << "wrote " << path << "\n";
      return true;
    };
    const std::string dir =
        golden_path.substr(0, golden_path.find_last_of('/') + 1);
    // The per-method digests live in their own file so the historical
    // forecast digest never needs regeneration when a method is added.
    Entries methods;
    for (const auto& [method, digest] : analysis1)
      methods.emplace_back(std::string(service::kGoldenRunKey) + "-" +
                               esse::to_string(method),
                           digest);
    if (!write(golden_path, {{service::kGoldenRunKey, runs.front().digest}}) ||
        !write(dir + "analysis_methods.sha256", methods) ||
        !write(dir + "ocean.sha256", ocean_digests))
      return 1;
  }
  return 0;
}
