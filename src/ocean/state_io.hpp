// ESSEX: forecast-product files.
//
// The paper's workflow is file-centric: perturbed initial conditions,
// member forecasts and covariance files move between pert, pemodel, the
// differ and the SVD over NFS. ESSEX stores those products in a simple
// self-describing little-endian binary container ("ESXF"): magic, kind
// tag, shape header, raw doubles. No external format libraries — the
// files are the repo's stand-in for HOPS' NetCDF products.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::ocean {

/// Write a packed ocean state with its grid shape. Overwrites.
/// Throws essex::Error on I/O failure.
void save_state(const std::string& path, const Grid3D& grid,
                const OceanState& state);

/// Read a state saved by save_state(). The grid must match the stored
/// shape exactly (nx, ny, nz).
OceanState load_state(const std::string& path, const Grid3D& grid);

/// The ESXF codec, shared by the state files here and the subspace files
/// in esse/subspace_io.hpp. Every read failure throws essex::Error naming
/// `name` (the file path or stream label).
namespace esxf {
inline constexpr char kMagic[4] = {'E', 'S', 'X', 'F'};
inline constexpr std::uint32_t kKindState = 1;
inline constexpr std::uint32_t kKindSubspace = 2;
inline constexpr std::uint32_t kVersion = 1;

/// Magic, version and kind tag.
void write_header(std::ostream& out, std::uint32_t kind);
void write_u64(std::ostream& out, std::uint64_t v);
void write_doubles(std::ostream& out, const double* v, std::size_t n);

/// Read the header and check its magic, version and kind.
void read_header(std::istream& in, std::uint32_t kind,
                 const std::string& name);
std::uint64_t read_u64(std::istream& in, const std::string& name);
/// Throw unless the stream still holds `rows × cols` doubles. Call it
/// before allocating storage for sizes a header declares.
void require_doubles(std::istream& in, std::uint64_t rows,
                     std::uint64_t cols, const std::string& name);
void read_doubles(std::istream& in, double* v, std::size_t n,
                  const std::string& name);
}  // namespace esxf

}  // namespace essex::ocean
