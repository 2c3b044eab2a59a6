// The PR-4 replay harness driver: executes the canonical golden run
// (DESIGN.md §10) at several thread counts and under two adversarially
// shuffled arrival schedules, prints each digest, and reports whether
// they agree — the same property ctest -L determinism enforces.
//
// --write-golden [path] additionally rewrites the checked-in golden
// digest file (default: the build-time tests/golden directory), in
// sha256sum line format. Run it after an *intentional* change to the
// seeded numerics, then commit the new digest with the change.
//
// Usage: bench_determinism [--write-golden [path]]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
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
  // AnalysisMethod must produce one digest across thread counts and an
  // adversarial observation-assembly shuffle.
  const auto analysis1 = service::golden_analysis_digests(1);
  const auto analysis4 = service::golden_analysis_digests(4);
  const auto shuffled = service::golden_analysis_digests(
      4, {}, /*obs_order_seed=*/0x0b5e7a11ULL);
  bool methods_agree = true;
  for (const auto& [method, digest] : analysis1) {
    const std::string key = std::string(service::kGoldenRunKey) + "-" +
                            esse::to_string(method);
    std::cout << digest << "  " << key << "\n";
    if (analysis4.at(method) != digest) methods_agree = false;
    // Observation-assembly shuffle invariance is the ESRF's obligation:
    // its serial sweep is order-dependent by construction, so analyze()
    // canonicalizes the set and the digest must not move. The batch-form
    // filters consume the set in the given order (a shuffle permutes
    // their reduction order), so their contract covers threads and
    // member arrival only.
    if (method == esse::AnalysisMethod::kEsrf &&
        shuffled.at(method) != digest)
      methods_agree = false;
  }
  std::cout << (methods_agree ? "all analysis-method digests agree"
                              : "ANALYSIS METHOD DIGEST MISMATCH")
            << "\n";
  if (!methods_agree) return 1;

  if (write_golden) {
    std::ofstream out(golden_path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write " << golden_path << "\n";
      return 1;
    }
    out << runs.front().digest << "  " << service::kGoldenRunKey << "\n";
    std::cout << "wrote " << golden_path << "\n";

    // The per-method digests live in their own file so the historical
    // forecast digest never needs regeneration when a method is added.
    const std::string methods_path =
        golden_path.substr(0, golden_path.find_last_of('/') + 1) +
        "analysis_methods.sha256";
    std::ofstream mout(methods_path, std::ios::trunc);
    if (!mout) {
      std::cerr << "cannot write " << methods_path << "\n";
      return 1;
    }
    for (const auto& [method, digest] : analysis1) {
      mout << digest << "  " << service::kGoldenRunKey << "-"
           << esse::to_string(method) << "\n";
    }
    std::cout << "wrote " << methods_path << "\n";
  }
  return 0;
}
