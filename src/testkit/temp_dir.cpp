#include "testkit/temp_dir.hpp"

#include <unistd.h>

#include <atomic>
#include <string>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace essex::testkit {

TempDir::TempDir() {
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path root = std::filesystem::temp_directory_path();
  const std::string stem = "essex_" + std::to_string(::getpid()) + "_";
  // create_directory() is the atomic claim: it reports false when the
  // name already exists (a stale run, another process), so keep drawing.
  for (int tries = 0; tries < 1000; ++tries) {
    std::filesystem::path candidate = root / (stem + std::to_string(counter++));
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = std::move(candidate);
      return;
    }
  }
  ESSEX_REQUIRE(false, "could not create a unique temporary directory");
}

TempDir::~TempDir() {
  std::error_code ec;  // best effort; never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

std::string TempDir::file(const std::string& name) const {
  return (path_ / name).string();
}

}  // namespace essex::testkit
