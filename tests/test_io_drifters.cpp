// Tests: ESXF product files (state + subspace round trips, corruption
// handling) and Lagrangian drifters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "esse/subspace_io.hpp"
#include "linalg/qr.hpp"
#include "obs/drifters.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state_io.hpp"
#include "testkit/temp_dir.hpp"

namespace essex {
namespace {

// ---- state round trip ----------------------------------------------------------

TEST(StateIo, RoundTripPreservesEveryField) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  ocean::OceanState s = sc.initial;
  Rng rng(1);
  for (auto& v : s.u) v = rng.normal();
  for (auto& v : s.ssh) v = rng.normal();
  testkit::TempDir tmp;
  const std::string path = tmp.file("state_io_test.esxf");
  ocean::save_state(path, sc.grid, s);
  ocean::OceanState back = ocean::load_state(path, sc.grid);
  EXPECT_DOUBLE_EQ(ocean::state_distance(s, back), 0.0);
}

TEST(StateIo, RejectsWrongGridShape) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  testkit::TempDir tmp;
  const std::string path = tmp.file("state_io_shape.esxf");
  ocean::save_state(path, sc.grid, sc.initial);
  ocean::Scenario other = ocean::make_monterey_scenario(20, 14, 4);
  EXPECT_THROW(ocean::load_state(path, other.grid), Error);
}

TEST(StateIo, RejectsGarbageFile) {
  testkit::TempDir tmp;
  const std::string path = tmp.file("state_io_garbage.esxf");
  {
    std::ofstream f(path);
    f << "this is not a product file";
  }
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  EXPECT_THROW(ocean::load_state(path, sc.grid), Error);
}

TEST(StateIo, RejectsMissingFile) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  EXPECT_THROW(ocean::load_state("/nonexistent/nope.esxf", sc.grid), Error);
}

TEST(StateIo, RejectsTruncatedFile) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  testkit::TempDir tmp;
  const std::string path = tmp.file("state_io_trunc.esxf");
  ocean::save_state(path, sc.grid, sc.initial);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() / 2));
  }
  EXPECT_THROW(ocean::load_state(path, sc.grid), Error);
}

// ---- subspace round trip ---------------------------------------------------------

TEST(SubspaceIo, RoundTripPreservesModesAndSigmas) {
  Rng rng(2);
  la::Matrix e(40, 5);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {5, 4, 3, 2, 1});
  testkit::TempDir tmp;
  const std::string path = tmp.file("subspace_io_test.esxf");
  esse::save_subspace(path, sub);
  esse::ErrorSubspace back = esse::load_subspace(path);
  EXPECT_EQ(back.dim(), sub.dim());
  EXPECT_EQ(back.rank(), sub.rank());
  for (std::size_t j = 0; j < sub.rank(); ++j)
    EXPECT_DOUBLE_EQ(back.sigmas()[j], sub.sigmas()[j]);
  la::Matrix diff = back.modes();
  diff -= sub.modes();
  EXPECT_DOUBLE_EQ(diff.max_abs(), 0.0);
}

TEST(SubspaceIo, EveryHeaderTruncationThrowsTheTruncationError) {
  // A file cut off at ANY point inside the header must throw. The header
  // readers used to return zero-initialised garbage on a short read; a
  // file ending right after the magic then surfaced as "unsupported
  // version" (or worse, sailed through a check that zero satisfies)
  // instead of the truncation error.
  Rng rng(3);
  la::Matrix e(16, 3);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {3, 2, 1});
  testkit::TempDir tmp;
  const std::string path = tmp.file("subspace_io_short.esxf");
  esse::save_subspace(path, sub);
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  // Header = 4 magic + 4 version + 4 kind + 8 dim + 8 rank = 28 bytes.
  for (std::size_t cut = 0; cut <= 28; ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW(esse::load_subspace(path), Error) << "cut at " << cut;
  }
  // Cut inside the payload: still the truncation error, as before.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 8));
  }
  EXPECT_THROW(esse::load_subspace(path), Error);
}

TEST(SubspaceIo, StreamAndFileVariantsProduceIdenticalBytes) {
  // The determinism digests (DESIGN.md §10) hash the stream
  // serialization; it must be byte-identical to the product file.
  Rng rng(4);
  la::Matrix e(20, 4);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {4, 3, 2, 1});
  testkit::TempDir tmp;
  const std::string path = tmp.file("subspace_io_stream.esxf");
  esse::save_subspace(path, sub);
  std::ifstream in(path, std::ios::binary);
  std::string file_bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  std::ostringstream mem(std::ios::binary);
  esse::save_subspace(mem, sub);
  EXPECT_EQ(mem.str(), file_bytes);
  // And the stream loader round-trips it.
  std::istringstream back(mem.str(), std::ios::binary);
  const esse::ErrorSubspace loaded = esse::load_subspace(back);
  EXPECT_EQ(loaded.rank(), sub.rank());
  la::Matrix diff = loaded.modes();
  diff -= sub.modes();
  EXPECT_DOUBLE_EQ(diff.max_abs(), 0.0);
}

TEST(SubspaceIo, StateFileIsNotASubspace) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  testkit::TempDir tmp;
  const std::string path = tmp.file("subspace_kind.esxf");
  ocean::save_state(path, sc.grid, sc.initial);
  EXPECT_THROW(esse::load_subspace(path), Error);
}

std::string subspace_bytes(std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix e(12, 3);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  std::ostringstream out(std::ios::binary);
  esse::save_subspace(out, esse::ErrorSubspace(e, {3, 2, 1}));
  return out.str();
}

/// A subspace header (magic, version, kind, dim, rank) with nothing after.
std::string subspace_header(std::uint64_t dim, std::uint64_t rank) {
  std::string bytes = subspace_bytes(1).substr(0, 12);
  bytes.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  bytes.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
  return bytes;
}

esse::ErrorSubspace load_subspace_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return esse::load_subspace(in);
}

TEST(SubspaceIo, OversizedHeaderIsRejectedBeforeAllocating) {
  // dim = rank = 2^32: dim × rank wraps to 0 in 64 bits, and the sigmas
  // alone would need 32 GiB. Every declared size is checked against the
  // bytes actually left in the stream.
  const std::uint64_t huge = std::uint64_t{1} << 32;
  EXPECT_THROW(load_subspace_bytes(subspace_header(huge, huge) +
                                   std::string(64, '\0')),
               Error);
  EXPECT_THROW(load_subspace_bytes(subspace_header(huge, 1)), Error);
  EXPECT_THROW(load_subspace_bytes(subspace_header(
                   std::numeric_limits<std::uint64_t>::max(), 2)),
               Error);
}

TEST(SubspaceIo, RejectsNonFiniteNegativeOrIncreasingSigmas) {
  const std::string good = subspace_bytes(5);  // sigmas 3, 2, 1
  EXPECT_NO_THROW(load_subspace_bytes(good));
  struct Corruption {
    std::size_t index;
    double value;
  };
  for (const Corruption c :
       {Corruption{0, std::numeric_limits<double>::infinity()},
        Corruption{1, std::numeric_limits<double>::quiet_NaN()},
        Corruption{1, -1.0}, Corruption{1, 10.0}}) {
    std::string bytes = good;
    // The sigmas follow the 28-byte header.
    bytes.replace(28 + c.index * sizeof(double), sizeof(double),
                  reinterpret_cast<const char*>(&c.value), sizeof(double));
    EXPECT_THROW(load_subspace_bytes(bytes), Error)
        << "sigma " << c.index << " = " << c.value;
  }
}

/// Random bytes, a truncated valid file, or a valid file with a few
/// bytes overwritten — the inputs a hostile or damaged product file is.
testkit::Gen<std::string> hostile_bytes(const std::string& valid) {
  testkit::Gen<std::string> gen;
  gen.create = [valid](Rng& rng) {
    switch (rng.uniform_index(3)) {
      case 0: {
        std::string bytes(rng.uniform_index(96), '\0');
        for (char& c : bytes) c = static_cast<char>(rng.uniform_index(256));
        return bytes;
      }
      case 1:
        return valid.substr(0, rng.uniform_index(valid.size()));
      default: {
        std::string bytes = valid;
        for (int k = 0; k < 4; ++k) {
          bytes[rng.uniform_index(bytes.size())] =
              static_cast<char>(rng.uniform_index(256));
        }
        return bytes;
      }
    }
  };
  gen.describe = [](const std::string& b) {
    return std::to_string(b.size()) + " bytes";
  };
  return gen;
}

TEST(EsxfProperty, LoadersOnlyEverThrowEssexErrorsOnHostileBytes) {
  // Either the bytes decode, or the loader throws essex::Error — never a
  // bad_alloc, a length_error or a crash.
  testkit::PropConfig cfg;
  cfg.name = "load_subspace on hostile bytes";
  const auto sub = testkit::check(
      cfg, hostile_bytes(subspace_bytes(9)), [](const std::string& bytes) {
        try {
          load_subspace_bytes(bytes);
        } catch (const Error&) {
        }
      });
  EXPECT_TRUE(sub.ok) << sub.message;

  ocean::Scenario sc = ocean::make_double_gyre_scenario(8, 8, 2);
  testkit::TempDir tmp;
  const std::string path = tmp.file("hostile_state.esxf");
  ocean::save_state(path, sc.grid, sc.initial);
  std::ifstream in(path, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  cfg.name = "load_state on hostile bytes";
  const auto state =
      testkit::check(cfg, hostile_bytes(valid), [&](const std::string& b) {
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          out.write(b.data(), static_cast<std::streamsize>(b.size()));
        }
        try {
          ocean::load_state(path, sc.grid);
        } catch (const Error&) {
        }
      });
  EXPECT_TRUE(state.ok) << state.message;
}

// ---- drifters ----------------------------------------------------------------------

struct DrifterFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(24, 20, 4));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
};

TEST_F(DrifterFixture, ReportsFixesAtRequestedCadence) {
  Rng rng(3);
  auto fixes = obs::advect_drifter(*model, sc->initial, 0.0, 24.0, 40.0,
                                   60.0, 6.0, 0.01, rng);
  ASSERT_GE(fixes.size(), 3u);
  for (std::size_t i = 1; i < fixes.size(); ++i) {
    EXPECT_NEAR(fixes[i].t_hours - fixes[i - 1].t_hours, 6.0, 1.0);
  }
  // SST values are physical.
  for (const auto& f : fixes) {
    EXPECT_GT(f.sst, 5.0);
    EXPECT_LT(f.sst, 20.0);
  }
}

TEST_F(DrifterFixture, MovesWithTheFlow) {
  Rng rng(4);
  // Deploy inside the anticyclonic eddy: the drifter must actually move.
  auto fixes = obs::advect_drifter(*model, sc->initial, 0.0, 48.0, 36.0,
                                   86.0, 12.0, 0.0, rng);
  ASSERT_GE(fixes.size(), 2u);
  const double dx = fixes.back().x_km - fixes.front().x_km;
  const double dy = fixes.back().y_km - fixes.front().y_km;
  EXPECT_GT(std::sqrt(dx * dx + dy * dy), 1.0);  // travelled > 1 km
}

TEST_F(DrifterFixture, RejectsLandDeployment) {
  Rng rng(5);
  const double lx = sc->grid.dx_km() * (sc->grid.nx() - 1);
  EXPECT_THROW(obs::advect_drifter(*model, sc->initial, 0.0, 10.0, lx,
                                   10.0, 1.0, 0.0, rng),
               PreconditionError);
}

TEST_F(DrifterFixture, RejectsNonFiniteTimesAndPositions) {
  Rng rng(7);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto drift = [&](double t0, double duration, double x0, double y0) {
    return obs::advect_drifter(*model, sc->initial, t0, duration, x0, y0,
                               1.0, 0.0, rng);
  };
  EXPECT_THROW(drift(0.0, inf, 40.0, 60.0), PreconditionError);
  EXPECT_THROW(drift(nan, 10.0, 40.0, 60.0), PreconditionError);
  EXPECT_THROW(drift(0.0, 10.0, nan, 60.0), PreconditionError);
  EXPECT_THROW(drift(0.0, 10.0, 40.0, nan), PreconditionError);
}

}  // namespace
}  // namespace essex
