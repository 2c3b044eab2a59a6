// ESSEX: per-test scratch directories for tests that touch the filesystem.
//
// A fixed path such as /tmp/essex_foo is shared by every test (and every
// concurrent CI job) that names it, so one test's cleanup can delete
// another's files mid-run under `ctest -j`. Each TempDir is a fresh,
// uniquely named directory under the system temp dir, removed with its
// contents when the object goes out of scope.
#pragma once

#include <filesystem>
#include <string>

namespace essex::testkit {

class TempDir {
 public:
  /// Creates a new directory no other TempDir (in this or any other
  /// process) is using.
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// `name` inside the directory, as a string path (parent directories
  /// in `name` are not created).
  std::string file(const std::string& name) const;

 private:
  std::filesystem::path path_;
};

}  // namespace essex::testkit
