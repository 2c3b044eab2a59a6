#include "esse/subspace_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "ocean/state_io.hpp"

namespace essex::esse {

namespace esxf = ocean::esxf;

void save_subspace(std::ostream& out, const ErrorSubspace& subspace) {
  ESSEX_REQUIRE(!subspace.empty(), "cannot save an empty subspace");
  esxf::write_header(out, esxf::kKindSubspace);
  esxf::write_u64(out, subspace.dim());
  esxf::write_u64(out, subspace.rank());
  esxf::write_doubles(out, subspace.sigmas().data(), subspace.rank());
  esxf::write_doubles(out, subspace.modes().data().data(),
                      subspace.modes().data().size());
}

void save_subspace(const std::string& path, const ErrorSubspace& subspace) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open for writing: " + path);
  save_subspace(f, subspace);
  if (!f) throw Error("failed writing: " + path);
}

ErrorSubspace load_subspace(std::istream& f, const std::string& name) {
  esxf::read_header(f, esxf::kKindSubspace, name);
  const std::uint64_t dim = esxf::read_u64(f, name);
  const std::uint64_t rank = esxf::read_u64(f, name);
  if (dim == 0 || rank == 0 || rank > dim) {
    throw Error("corrupt subspace header in " + name);
  }
  esxf::require_doubles(f, rank, 1, name);
  la::Vector sigmas(rank);
  esxf::read_doubles(f, sigmas.data(), rank, name);
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    // Same descending tolerance as the ErrorSubspace constructor.
    if (!std::isfinite(sigmas[i]) || sigmas[i] < 0.0 ||
        (i > 0 && sigmas[i] > sigmas[i - 1] * (1.0 + 1e-12))) {
      throw Error("corrupt subspace sigmas in " + name);
    }
  }
  esxf::require_doubles(f, dim, rank, name);
  la::Matrix modes(dim, rank);
  esxf::read_doubles(f, modes.data().data(), modes.data().size(), name);
  return ErrorSubspace(std::move(modes), std::move(sigmas));
}

ErrorSubspace load_subspace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open for reading: " + path);
  return load_subspace(f, path);
}

}  // namespace essex::esse
