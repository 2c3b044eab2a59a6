// ESSEX: the §4.1 three-file covariance protocol, on real files.
//
// In memory the differ's versioned AnomalyView (esse/differ.hpp) already
// is the safe snapshot; this class is the literal artifact: "three files,
// a safe one for SVD to use and a live alternating pair for diff to
// write to, with the safe one being updated by the appropriate member of
// the pair". The writer alternates between <base>.live.a and
// <base>.live.b and *promotes* the finished one to <base>.safe with an
// atomic rename(2), so a reader opening the safe file never observes a
// torn write — the same guarantee the paper engineered over NFS.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "esse/error_subspace.hpp"

namespace essex::workflow {

/// Writer/reader pair over three ESXF subspace files.
class CovarianceFileStore {
 public:
  /// `base_path` is the path prefix; the store manages
  /// base.live.a / base.live.b / base.safe.
  explicit CovarianceFileStore(std::string base_path);

  /// Writer side (the differ): persist `subspace` into the current live
  /// file, then atomically promote it to the safe file. Returns the
  /// version number just published.
  std::uint64_t publish(const esse::ErrorSubspace& subspace);

  /// Reader side (the SVD/convergence process): load the latest safe
  /// snapshot, or nullopt if nothing has been promoted yet.
  std::optional<esse::ErrorSubspace> read_safe() const;

  /// Number of promotes performed by THIS writer instance.
  std::uint64_t version() const { return version_; }

  const std::string& safe_path() const { return safe_path_; }

  /// Remove all three files (ignores missing ones).
  void cleanup();

 private:
  std::string base_;
  std::string live_a_, live_b_, safe_path_;
  int active_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace essex::workflow
