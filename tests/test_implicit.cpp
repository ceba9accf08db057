// tests/test_implicit.cpp — implicit s-line traversal (no materialized
// line graph) against the materialized facade, the engines' cancellation
// contract, plus the configuration-model generator and the parallel CSR
// builder's determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <utility>

#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwpar/cancel.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::same_partition;

// --- implicit vs materialized ---------------------------------------------------

class ImplicitParam : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(ImplicitParam, ComponentsMatchMaterialized) {
  auto [seed, s] = GetParam();
  NWHypergraph hg(gen::powerlaw_hypergraph(80, 60, 18, 1.4, 1.0, seed));
  auto         implicit     = hg.s_connected_components_implicit(s);
  auto         materialized = hg.make_s_linegraph(s).s_connected_components();
  ASSERT_EQ(implicit.size(), materialized.size());
  // Same inactive set and same partition of active hyperedges.
  std::vector<vertex_id_t> a, b;
  for (std::size_t e = 0; e < implicit.size(); ++e) {
    EXPECT_EQ(implicit[e] == nw::null_vertex<>, materialized[e] == nw::null_vertex<>) << e;
    if (implicit[e] != nw::null_vertex<>) {
      a.push_back(implicit[e]);
      b.push_back(materialized[e]);
    }
  }
  EXPECT_TRUE(same_partition(a, b));
}

TEST_P(ImplicitParam, DistancesMatchMaterialized) {
  auto [seed, s] = GetParam();
  NWHypergraph hg(gen::uniform_random_hypergraph(70, 50, 5, seed + 7));
  auto         lg = hg.make_s_linegraph(s);
  for (vertex_id_t src : {0u, 9u}) {
    for (vertex_id_t dst : {3u, 25u, 60u}) {
      auto a = hg.s_distance_implicit(s, src, dst);
      auto b = lg.s_distance(src, dst);
      // The materialized route reports distance even between inactive
      // isolated vertices (src == dst); the implicit one declares them
      // unreachable.  Compare only when both endpoints are active.
      if (hg.edge_sizes()[src] >= s && hg.edge_sizes()[dst] >= s) {
        EXPECT_EQ(a, b) << src << "->" << dst;
      } else {
        EXPECT_FALSE(a.has_value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndS, ImplicitParam,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(std::size_t{1}, std::size_t{2},
                                                              std::size_t{3})));

TEST(Implicit, Figure1KnownAnswers) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         comp1 = hg.s_connected_components_implicit(1);
  for (auto c : comp1) EXPECT_EQ(c, comp1[0]);
  auto comp2 = hg.s_connected_components_implicit(2);
  EXPECT_EQ(comp2[0], comp2[1]);
  EXPECT_NE(comp2[2], comp2[0]);
  EXPECT_NE(comp2[3], comp2[2]);

  EXPECT_EQ(hg.s_distance_implicit(1, 0, 3), std::optional<std::size_t>{3});
  EXPECT_EQ(hg.s_distance_implicit(1, 0, 0), std::optional<std::size_t>{0});
  EXPECT_FALSE(hg.s_distance_implicit(2, 0, 3).has_value());
}

TEST(Implicit, SDegreeMatchesMaterialized) {
  NWHypergraph hg(gen::planted_community_hypergraph(50, 120, 20, 1.5, 0.3, 77));
  const auto&  he = hg.hyperedges();
  const auto&  hn = hg.hypernodes();
  for (std::size_t s : {1, 2}) {
    auto lg = hg.make_s_linegraph(s);
    for (vertex_id_t e = 0; e < hg.num_hyperedges(); e += 7) {
      auto nbrs = s_neighbors_implicit(he, hn, hg.edge_sizes(), s, e);
      EXPECT_EQ(nbrs.size(), lg.s_degree(e)) << "e=" << e << " s=" << s;
      EXPECT_EQ(nbrs, lg.s_neighbors(e)) << "e=" << e << " s=" << s;
    }
  }
}

// --- cancellation contract -------------------------------------------------------
//
// Every engine takes a stop hook.  A hook that fires must end the engine
// with par::cancelled thrown on the calling thread, whichever poll fires
// and however many workers the pool has; a hook that never fires must not
// change the result.

namespace {

/// Stop hook: counts its polls and fires on every poll after the first `k`.
struct fire_after {
  std::atomic<std::size_t>* polls;
  std::size_t               k;
  bool operator()() const { return polls->fetch_add(1, std::memory_order_relaxed) >= k; }
};

/// `run(hook)` runs one engine with `hook` and returns its result.
template <class Run>
void expect_cancellation_contract(Run run, const char* engine) {
  SCOPED_TRACE(engine);
  std::atomic<std::size_t> polls{0};
  const auto silent = run(fire_after{&polls, ~std::size_t{0}});
  const std::size_t n = polls.load();
  ASSERT_GT(n, 1u) << "the engine never polled its hook";
  EXPECT_EQ(silent, run(nw::par::never_stop{})) << "a hook that never fires changed the result";
  for (std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
    polls = 0;
    EXPECT_THROW((void)run(fire_after{&polls, k}), nw::par::cancelled) << "k=" << k;
  }
}

}  // namespace

class ImplicitCancel : public ::testing::TestWithParam<unsigned> {};

TEST_P(ImplicitCancel, FiredHookThrowsFromCallerSilentHookChangesNothing) {
  nw::par::thread_pool pool(GetParam());
  // A random hypergraph plus one hyperedge on hypernodes of its own, so
  // s-distance to it is a full, deterministic flood of the other component.
  auto el = gen::uniform_random_hypergraph(400, 300, 6, 5);
  const auto isolated = static_cast<vertex_id_t>(el.num_vertices(0));
  for (vertex_id_t v = 0; v < 3; ++v) {
    el.push_back(isolated, static_cast<vertex_id_t>(el.num_vertices(1)));
  }
  NWHypergraph      hg(std::move(el));
  const auto&       E   = hg.hyperedges();
  const auto&       N   = hg.hypernodes();
  const auto&       deg = hg.edge_sizes();
  const std::size_t s   = 2;

  expect_cancellation_contract(
      [&](auto hook) { return s_distance_implicit(E, N, deg, s, 0, isolated, hook, pool); },
      "s_distance_implicit");
  expect_cancellation_contract(
      [&](auto hook) { return s_connected_components_implicit(E, N, deg, s, hook, pool); },
      "s_connected_components_implicit");
  expect_cancellation_contract(
      [&](auto hook) { return s_bfs_distances_implicit(E, N, deg, s, 0, hook, pool); },
      "s_bfs_distances_implicit");
  expect_cancellation_contract(
      [&](auto hook) {
        auto r = hyper_bfs(E, N, 0, 0, 0, hook, pool);
        return std::pair(r.dist_edge, r.dist_node);  // parents vary with the schedule
      },
      "hyper_bfs");
}

INSTANTIATE_TEST_SUITE_P(Threads, ImplicitCancel, ::testing::Values(1u, 2u, 4u));

TEST(Implicit, SDistanceSkipsTheRestOfTheTargetLevel) {
  // Hub hyperedge 0 = {0..k-1}; leaf i = {i-1, k} for i = 1..k; target
  // k+1 = {k}.  Every leaf reaches the target, so the first leaf expanded
  // at level 2 claims it and the other k-1 are never expanded (or polled).
  constexpr vertex_id_t k = 20;
  biedgelist<>          el;
  for (vertex_id_t v = 0; v < k; ++v) el.push_back(0, v);
  for (vertex_id_t i = 1; i <= k; ++i) {
    el.push_back(i, i - 1);
    el.push_back(i, k);
  }
  el.push_back(k + 1, k);
  NWHypergraph             hg(std::move(el));
  nw::par::thread_pool     serial(1);
  std::atomic<std::size_t> polls{0};
  auto d = s_distance_implicit(hg.hyperedges(), hg.hypernodes(), hg.edge_sizes(), 1, 0, k + 1,
                               fire_after{&polls, ~std::size_t{0}}, serial);
  EXPECT_EQ(d, std::optional<std::size_t>{2});
  EXPECT_EQ(polls.load(), 2u);  // the hub, then one leaf
}

// --- configuration model ----------------------------------------------------------

TEST(ConfigurationModel, RealizesPrescribedSequences) {
  std::vector<std::size_t> sizes{3, 2, 4, 1};
  std::vector<std::size_t> degrees{2, 2, 2, 2, 1, 1};
  auto                     el = gen::configuration_model_hypergraph(sizes, degrees, 99);
  EXPECT_EQ(el.size(), 10u);
  // Before dedupe, stub counts are exact.
  std::vector<std::size_t> got_sizes(4, 0), got_degrees(6, 0);
  for (std::size_t i = 0; i < el.size(); ++i) {
    auto [e, v] = el[i];
    ++got_sizes[e];
    ++got_degrees[v];
  }
  EXPECT_EQ(got_sizes, sizes);
  EXPECT_EQ(got_degrees, degrees);
}

TEST(ConfigurationModel, DeterministicPerSeed) {
  std::vector<std::size_t> sizes(50, 4);
  std::vector<std::size_t> degrees(100, 2);
  auto a = gen::configuration_model_hypergraph(sizes, degrees, 5);
  auto b = gen::configuration_model_hypergraph(sizes, degrees, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ConfigurationModel, RejectsMismatchedSums) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::vector<std::size_t> sizes{3};
  std::vector<std::size_t> degrees{1};
  EXPECT_DEATH(gen::configuration_model_hypergraph(sizes, degrees, 1), "equal stub sums");
}

TEST(ConfigurationModel, PowerlawSequenceSurvivesAnalytics) {
  // Zipf-ish size sequence with matching degree total.
  std::vector<std::size_t> sizes;
  std::size_t              total = 0;
  for (std::size_t e = 0; e < 60; ++e) {
    std::size_t s = 1 + 24 / (e + 1);
    sizes.push_back(s);
    total += s;
  }
  std::vector<std::size_t> degrees(total, 1);  // every node used exactly once
  auto         el = gen::configuration_model_hypergraph(sizes, degrees, 3);
  NWHypergraph hg(std::move(el));
  // One membership per node => hyperedges are disjoint => no 1-line edges.
  EXPECT_EQ(hg.make_s_linegraph(1).num_edges(), 0u);
  EXPECT_EQ(hg.edge_sizes(), sizes);
}

// --- parallel CSR builder determinism ----------------------------------------------

TEST(ParallelCsrBuild, IdenticalToSerialAcrossPoolSizes) {
  // Large enough to trigger the parallel path (m >= 2^16).
  auto el = gen::uniform_random_hypergraph(20000, 15000, 5, 0xC5A);
  el.sort_and_unique();

  nw::par::thread_pool::set_default_concurrency(1);
  biadjacency<0> serial(el);
  for (unsigned threads : {2u, 4u, 8u}) {
    nw::par::thread_pool::set_default_concurrency(threads);
    biadjacency<0> parallel(el);
    ASSERT_EQ(parallel.num_edges(), serial.num_edges());
    for (std::size_t e = 0; e < serial.size(); e += 997) {
      auto a = serial[e];
      auto b = parallel[e];
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "edge " << e;
    }
  }
  nw::par::thread_pool::set_default_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ParallelScan, MatchesSerialScan) {
  nw::par::thread_pool pool(4);
  for (std::size_t n : {0u, 1u, 100u, 1u << 16}) {
    std::vector<std::uint64_t> values(n);
    nw::xoshiro256ss           rng(n);
    for (auto& v : values) v = rng.bounded(100);
    auto expected = values;
    std::uint64_t total = 0;
    for (auto& v : expected) {
      auto next = total + v;
      v         = total;
      total     = next;
    }
    auto got_total = nw::par::parallel_exclusive_scan(values, pool);
    EXPECT_EQ(values, expected);
    EXPECT_EQ(got_total, total);
  }
}
