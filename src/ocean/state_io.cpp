#include "ocean/state_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.hpp"

namespace essex::ocean {

namespace esxf {

namespace {

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A file cut off mid-header must surface as the truncation error right
// at the short read, not as a misleading failure further on.
template <class T>
T read_pod(std::istream& in, const std::string& name) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw Error("truncated product file: " + name);
  return v;
}

std::uint64_t bytes_left(std::istream& in, const std::string& name) {
  const std::streampos pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  if (!in || pos < 0 || end < pos) {
    throw Error("cannot size product stream: " + name);
  }
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace

void write_header(std::ostream& out, std::uint32_t kind) {
  out.write(kMagic, 4);
  write_u32(out, kVersion);
  write_u32(out, kind);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_doubles(std::ostream& out, const double* v, std::size_t n) {
  out.write(reinterpret_cast<const char*>(v),
            static_cast<std::streamsize>(n * sizeof(double)));
}

void read_header(std::istream& in, std::uint32_t kind,
                 const std::string& name) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw Error("not an ESSEX product file: " + name);
  }
  if (read_pod<std::uint32_t>(in, name) != kVersion) {
    throw Error("unsupported product version in " + name);
  }
  if (read_pod<std::uint32_t>(in, name) != kind) {
    throw Error("wrong product kind in " + name);
  }
}

std::uint64_t read_u64(std::istream& in, const std::string& name) {
  return read_pod<std::uint64_t>(in, name);
}

void require_doubles(std::istream& in, std::uint64_t rows,
                     std::uint64_t cols, const std::string& name) {
  // Divide instead of multiplying: rows × cols may overflow 64 bits.
  const std::uint64_t avail = bytes_left(in, name) / sizeof(double);
  if (cols != 0 && rows > avail / cols) {
    throw Error("truncated product file: " + name);
  }
}

void read_doubles(std::istream& in, double* v, std::size_t n,
                  const std::string& name) {
  in.read(reinterpret_cast<char*>(v),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!in) throw Error("truncated product file: " + name);
}

}  // namespace esxf

void save_state(const std::string& path, const Grid3D& grid,
                const OceanState& state) {
  ESSEX_REQUIRE(state.temperature.size() == grid.points(),
                "state does not match the grid");
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open for writing: " + path);
  esxf::write_header(f, esxf::kKindState);
  esxf::write_u64(f, grid.nx());
  esxf::write_u64(f, grid.ny());
  esxf::write_u64(f, grid.nz());
  const std::vector<double> packed = state.pack();
  esxf::write_doubles(f, packed.data(), packed.size());
  if (!f) throw Error("failed writing: " + path);
}

OceanState load_state(const std::string& path, const Grid3D& grid) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open for reading: " + path);
  esxf::read_header(f, esxf::kKindState, path);
  const std::uint64_t nx = esxf::read_u64(f, path);
  const std::uint64_t ny = esxf::read_u64(f, path);
  const std::uint64_t nz = esxf::read_u64(f, path);
  if (nx != grid.nx() || ny != grid.ny() || nz != grid.nz()) {
    throw Error("grid shape mismatch in " + path);
  }
  const std::size_t n = OceanState::packed_size(grid);
  esxf::require_doubles(f, n, 1, path);
  std::vector<double> packed(n);
  esxf::read_doubles(f, packed.data(), n, path);
  OceanState state(grid);
  state.unpack(packed, grid);
  return state;
}

}  // namespace essex::ocean
