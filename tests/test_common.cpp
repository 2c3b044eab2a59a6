// Unit tests: common substrate (RNG, thread pool, tables, field I/O).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/field_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "testkit/temp_dir.hpp"

namespace essex {
namespace {

// ---- error machinery ----------------------------------------------------

TEST(Error, RequireThrowsPreconditionWithContext) {
  try {
    ESSEX_REQUIRE(1 == 2, "the message");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInvariant) {
  EXPECT_THROW(ESSEX_ASSERT(false, "bug"), InvariantError);
}

TEST(Error, HierarchyCatchableAsEssexError) {
  EXPECT_THROW(ESSEX_REQUIRE(false, "x"), Error);
  EXPECT_THROW(throw ConvergenceError("no"), Error);
}

// ---- RNG -----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeedAndStream) {
  Rng a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(123, 1), b(123, 2);
  // The streams must differ essentially immediately.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitReproducesStream) {
  Rng root(55);
  Rng s1 = root.split(9);
  Rng s2 = Rng(55, 9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(s1(), s2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 2.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.5);
  }
  EXPECT_THROW(r.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng r(11);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng r(12);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
  EXPECT_THROW(r.normal(0.0, -1.0), PreconditionError);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
  EXPECT_THROW(r.exponential(0.0), PreconditionError);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng r(14);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[r.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
  EXPECT_THROW(r.uniform_index(0), PreconditionError);
}

TEST(Rng, NormalsVectorHasRequestedLength) {
  Rng r(15);
  EXPECT_EQ(r.normals(17).size(), 17u);
}

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FuturesReportCompletion) {
  ThreadPool pool(2);
  auto fut = pool.submit([] {});
  EXPECT_NO_THROW(fut.get());
}

TEST(ThreadPool, FuturePropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, CancelPendingDiscardsQueuedTasks) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 10; ++i) {
    futs.push_back(pool.submit([&ran] { ++ran; }));
  }
  pool.cancel_pending();
  release = true;
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 0);
  int cancelled = 0;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (const ThreadPool::TaskCancelled&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(cancelled, 10);
}

TEST(ThreadPool, CancelFlagVisibleToRunningTasks) {
  ThreadPool pool(1);
  std::atomic<bool> saw_cancel{false};
  std::atomic<bool> started{false};
  auto fut = pool.submit([&](const std::atomic<bool>& stop) {
    started = true;
    while (!stop.load()) std::this_thread::yield();
    saw_cancel = true;
  });
  while (!started.load()) std::this_thread::yield();
  pool.cancel_pending();
  fut.get();
  EXPECT_TRUE(saw_cancel.load());
}

TEST(ThreadPool, RejectsZeroWorkersAndNullTasks) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), PreconditionError);
}

TEST(ThreadPool, WaitIdleReturnsImmediatelyWhenEmpty) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  EXPECT_EQ(pool.queued(), 0u);
}

// ---- table ----------------------------------------------------------------

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.set_header({"site", "pert", "pemodel"});
  t.add_row({"local", "6.21", "1531.33"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("pemodel"), std::string::npos);
  EXPECT_NE(s.find("1531.33"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, NumFormatsFixedPrecision) {
  // Away from representation ties the rounding is unambiguous.
  EXPECT_EQ(Table::num(33.946, 2), "33.95");
  EXPECT_EQ(Table::num(33.944, 2), "33.94");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CsvRoundTripQuotesSeparators) {
  Table t("csv");
  t.set_header({"name", "value"});
  t.add_row({"with,comma", "1"});
  testkit::TempDir tmp;
  const std::string path = tmp.file("test_table.csv");
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
  std::getline(f, line);
  EXPECT_EQ(line, "\"with,comma\",1");
}

// ---- field I/O -------------------------------------------------------------

Field2D make_ramp(std::size_t nx, std::size_t ny) {
  Field2D f;
  f.nx = nx;
  f.ny = ny;
  f.values.resize(nx * ny);
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      f.values[iy * nx + ix] = static_cast<double>(ix + iy);
  return f;
}

TEST(Field2D, MinMaxMean) {
  Field2D f = make_ramp(4, 3);
  EXPECT_DOUBLE_EQ(f.min(), 0.0);
  EXPECT_DOUBLE_EQ(f.max(), 5.0);
  EXPECT_NEAR(f.mean(), 2.5, 1e-12);
}

TEST(Field2D, AtBoundsChecked) {
  Field2D f = make_ramp(4, 3);
  EXPECT_THROW(f.at(4, 0), PreconditionError);
  EXPECT_THROW(f.at(0, 3), PreconditionError);
  EXPECT_DOUBLE_EQ(f.at(3, 2), 5.0);
}

TEST(FieldIo, PgmHasCorrectHeaderAndSize) {
  Field2D f = make_ramp(8, 5);
  testkit::TempDir tmp;
  const std::string path = tmp.file("test.pgm");
  write_pgm(f, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  std::size_t w, h, maxv;
  in >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 8u);
  EXPECT_EQ(h, 5u);
  EXPECT_EQ(maxv, 255u);
  in.get();  // single whitespace after header
  std::vector<char> px(w * h);
  in.read(px.data(), static_cast<std::streamsize>(px.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(w * h));
}

TEST(FieldIo, CsvGridHasRowPerY) {
  Field2D f = make_ramp(3, 4);
  testkit::TempDir tmp;
  const std::string path = tmp.file("test_field.csv");
  write_field_csv(f, path);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5);  // header + 4 rows
}

TEST(FieldIo, AsciiMapDownsamplesAndAnnotates) {
  Field2D f = make_ramp(100, 60);
  const std::string map = ascii_map(f, 40, 10);
  EXPECT_NE(map.find("[min=0"), std::string::npos);
  // 10 rows + 1 footer.
  int nl = 0;
  for (char c : map)
    if (c == '\n') ++nl;
  EXPECT_EQ(nl, 11);
}

TEST(FieldIo, AsciiMapConstantFieldDoesNotDivideByZero) {
  Field2D f;
  f.nx = 4;
  f.ny = 4;
  f.values.assign(16, 3.14);
  EXPECT_NO_THROW(ascii_map(f));
}

// ---- SHA-256 (determinism digests) --------------------------------------

TEST(Digest, MatchesFipsTestVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Digest, IncrementalUpdatesMatchOneShot) {
  // Split points straddle the 64-byte block boundary the padding logic
  // cares about.
  std::string msg;
  for (int i = 0; i < 200; ++i) msg.push_back(static_cast<char>('a' + i % 26));
  const std::string expect = sha256_hex(msg);
  for (std::size_t cut : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{128}}) {
    Sha256 h;
    h.update(msg.substr(0, cut));
    h.update(msg.substr(cut));
    EXPECT_EQ(h.hex(), expect) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace essex
