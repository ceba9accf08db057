// tests/test_nwutil.cpp — unit tests for the utility layer.
#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nwutil/atomics.hpp"
#include "nwutil/bitmap.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"
#include "nwutil/rng.hpp"
#include "nwutil/stats.hpp"
#include "nwutil/timer.hpp"

using namespace nw;

// --- rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256ss a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256ss a(1), b(2);
  int          same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  xoshiro256ss rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  xoshiro256ss rng(7);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversSmallRange) {
  xoshiro256ss   rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.bounded(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformInUnitInterval) {
  xoshiro256ss rng(5);
  double       sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 42;
  auto          a = splitmix64(s);
  auto          b = splitmix64(s);
  EXPECT_NE(a, b);
}

// --- bitmap ------------------------------------------------------------

TEST(Bitmap, SetAndGet) {
  bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  for (std::size_t i = 0; i < 130; i += 7) bm.set(i);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_EQ(bm.get(i), i % 7 == 0);
}

TEST(Bitmap, CountMatchesSets) {
  bitmap bm(1000);
  for (std::size_t i = 0; i < 1000; i += 3) bm.set(i);
  EXPECT_EQ(bm.count(), 334u);
}

TEST(Bitmap, AtomicSetReportsFirstWin) {
  bitmap bm(64);
  EXPECT_TRUE(bm.set_atomic(5));
  EXPECT_FALSE(bm.set_atomic(5));
  EXPECT_TRUE(bm.get(5));
}

TEST(Bitmap, ClearResetsEverything) {
  bitmap bm(100);
  bm.set(3);
  bm.set(99);
  bm.clear();
  EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, SwapExchangesContents) {
  bitmap a(10), b(20);
  a.set(1);
  b.set(15);
  a.swap(b);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_TRUE(a.get(15));
  EXPECT_EQ(b.size(), 10u);
  EXPECT_TRUE(b.get(1));
}

TEST(Bitmap, ConcurrentAtomicSetsAllLand) {
  bitmap                   bm(10000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bm, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < 10000; i += 4) bm.set_atomic(i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bm.count(), 10000u);
}

// --- atomics helpers -----------------------------------------------------

TEST(Atomics, WriteMinUpdatesOnlyDownward) {
  int x = 10;
  EXPECT_TRUE(write_min(x, 5));
  EXPECT_EQ(x, 5);
  EXPECT_FALSE(write_min(x, 7));
  EXPECT_EQ(x, 5);
  EXPECT_FALSE(write_min(x, 5));
}

TEST(Atomics, WriteMaxUpdatesOnlyUpward) {
  int x = 10;
  EXPECT_TRUE(write_max(x, 15));
  EXPECT_EQ(x, 15);
  EXPECT_FALSE(write_max(x, 3));
}

TEST(Atomics, CompareAndSwapSingleWinner) {
  vertex_id_t x = null_vertex<>;
  EXPECT_TRUE(compare_and_swap(x, null_vertex<>, 3u));
  EXPECT_FALSE(compare_and_swap(x, null_vertex<>, 4u));
  EXPECT_EQ(x, 3u);
}

TEST(Atomics, ConcurrentWriteMinConverges) {
  std::uint32_t            x = 1u << 30;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&x, t] {
      for (std::uint32_t i = 1000; i > 0; --i) write_min(x, i + static_cast<std::uint32_t>(t));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(x, 1u);
}

TEST(Atomics, FetchAddAccumulates) {
  std::uint64_t            x = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&x] {
      for (int i = 0; i < 1000; ++i) fetch_add(x, std::uint64_t{1});
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(x, 4000u);
}

// --- sparse_accumulator ---------------------------------------------------

TEST(SparseAccumulator, IncrementAndGet) {
  sparse_accumulator<> acc(64);
  acc.increment(10);
  acc.increment(10);
  acc.increment(20, 5);
  EXPECT_EQ(acc.get(10), 2u);
  EXPECT_EQ(acc.get(20), 5u);
  EXPECT_EQ(acc.get(30), 0u);
  EXPECT_EQ(acc.size(), 2u);
}

TEST(SparseAccumulator, ClearIsComplete) {
  // Clearing between rows: the next row sees none of the last one.
  sparse_accumulator<> acc(100);
  for (vertex_id_t k = 0; k < 100; ++k) acc.increment(k);
  acc.clear();
  EXPECT_EQ(acc.size(), 0u);
  for (vertex_id_t k = 0; k < 100; ++k) EXPECT_EQ(acc.get(k), 0u);
  acc.increment(7);
  std::vector<vertex_id_t> seen;
  acc.for_each([&](vertex_id_t k, std::uint32_t c) {
    seen.push_back(k);
    EXPECT_EQ(c, 1u);
  });
  EXPECT_EQ(seen, std::vector<vertex_id_t>{7});
}

TEST(SparseAccumulator, BoundaryIds) {
  // Ids 0 and n - 1 are ordinary keys: 0 is not mistaken for "empty" and
  // n - 1 is inside the array.
  constexpr std::size_t n = 1000;
  sparse_accumulator<>  acc(n);
  acc.increment(0);
  acc.increment(static_cast<vertex_id_t>(n - 1), 3);
  acc.increment(0);
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.get(0), 2u);
  EXPECT_EQ(acc.get(static_cast<vertex_id_t>(n - 1)), 3u);
  std::vector<std::pair<vertex_id_t, std::uint32_t>> seen;
  acc.for_each([&](vertex_id_t k, std::uint32_t c) { seen.push_back({k, c}); });
  EXPECT_EQ(seen, (std::vector<std::pair<vertex_id_t, std::uint32_t>>{{0, 2}, {n - 1, 3}}));
  acc.clear();
  EXPECT_EQ(acc.get(0), 0u);
  EXPECT_EQ(acc.get(static_cast<vertex_id_t>(n - 1)), 0u);
}

TEST(SparseAccumulator, ReuseAfterLargeRow) {
  // A row touching every key, then small rows: each small row sees only
  // its own keys, and ensure_keys never shrinks the key space.
  sparse_accumulator<> acc(4);
  acc.ensure_keys(10000);
  for (vertex_id_t k = 0; k < 10000; ++k) acc.increment(k, k + 1);
  EXPECT_EQ(acc.size(), 10000u);
  for (vertex_id_t k = 0; k < 10000; k += 997) EXPECT_EQ(acc.get(k), k + 1);
  acc.clear();
  acc.ensure_keys(16);  // grows only: key 9999 stays valid
  for (int row = 0; row < 3; ++row) {
    acc.clear();
    acc.increment(static_cast<vertex_id_t>(9999 - row));
    acc.increment(static_cast<vertex_id_t>(row));
    EXPECT_EQ(acc.size(), 2u);
    std::uint64_t sum = 0;
    acc.for_each([&](vertex_id_t, std::uint32_t c) { sum += c; });
    EXPECT_EQ(sum, 2u);
  }
}

TEST(SparseAccumulator, ForEachVisitsAllOnce) {
  sparse_accumulator<> acc(1500);
  for (vertex_id_t k = 0; k < 500; ++k) acc.increment(k * 3, 2);
  std::unordered_map<vertex_id_t, std::uint32_t> seen;
  acc.for_each([&](vertex_id_t k, std::uint32_t c) { seen[k] += c; });
  EXPECT_EQ(seen.size(), 500u);
  for (auto& [k, c] : seen) {
    EXPECT_EQ(k % 3, 0u);
    EXPECT_EQ(c, 2u);
  }
}

TEST(SparseAccumulator, ReuseAcrossManyRows) {
  sparse_accumulator<> acc(1000);
  for (int round = 0; round < 1000; ++round) {
    acc.clear();
    acc.increment(static_cast<vertex_id_t>(round));
    EXPECT_EQ(acc.size(), 1u);
    EXPECT_EQ(acc.get(static_cast<vertex_id_t>(round)), 1u);
  }
}

TEST(SparseAccumulator, MatchesUnorderedMapOnRandomWorkload) {
  sparse_accumulator<>                           acc(512);
  std::unordered_map<vertex_id_t, std::uint32_t> ref;
  xoshiro256ss                                   rng(99);
  for (int i = 0; i < 20000; ++i) {
    auto k = static_cast<vertex_id_t>(rng.bounded(512));
    acc.increment(k);
    ref[k]++;
  }
  for (auto& [k, c] : ref) EXPECT_EQ(acc.get(k), c);
  EXPECT_EQ(acc.size(), ref.size());
}

TEST(SparseAccumulator, StructuralKeepsZeroSums) {
  // SpGEMM's accumulator: a sum that cancels is still an entry.
  sparse_accumulator<double, true> acc(8);
  acc.increment(3, 1.5);
  acc.increment(3, -1.5);
  acc.increment(5, 0.0);
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.get(3), 0.0);
  acc.increment(6, -0.0);  // a first delta is stored as given
  EXPECT_TRUE(std::signbit(acc.get(6)));
  acc.clear();
  acc.increment(3, 2.0);
  EXPECT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc.get(3), 2.0);
}

// --- stats -----------------------------------------------------------------

TEST(Stats, DegreeStatsBasics) {
  std::vector<std::size_t> degrees{1, 2, 3, 4, 10};
  auto s = compute_degree_stats(std::span<const std::size_t>(degrees));
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_EQ(s.max, 10u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_NEAR(s.stddev, 3.1623, 1e-3);
}

TEST(Stats, EmptyInput) {
  std::vector<std::size_t> empty;
  auto s = compute_degree_stats(std::span<const std::size_t>(empty));
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, FormatCompact) {
  EXPECT_EQ(format_compact(15300000), "15.3M");
  EXPECT_EQ(format_compact(3100), "3.1k");
  EXPECT_EQ(format_compact(42), "42");
}

// --- timer -------------------------------------------------------------------

TEST(Timer, MonotoneNonNegative) {
  timer t;
  double a = t.elapsed_ms();
  double b = t.elapsed_ms();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Timer, LapResets) {
  timer t;
  (void)t.lap_ms();
  double lap = t.lap_ms();
  EXPECT_GE(lap, 0.0);
  EXPECT_LE(lap, t.elapsed_ms() + 1.0);
}
