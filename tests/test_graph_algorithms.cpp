// tests/test_graph_algorithms.cpp — the NWGraph substrate's algorithms:
// BFS variants, CC variants, SSSP, centralities, PageRank, k-core,
// triangles.  Strategy: exact expectations on small hand-built graphs plus
// agreement-with-reference properties on seeded random graphs.
#include <gtest/gtest.h>

#include <cmath>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/algorithms/closeness.hpp"
#include "nwgraph/algorithms/connected_components.hpp"
#include "nwgraph/algorithms/kcore.hpp"
#include "nwgraph/algorithms/pagerank.hpp"
#include "nwgraph/algorithms/sssp.hpp"
#include "nwgraph/algorithms/triangle_count.hpp"
#include "nwhy/algorithms/s_betweenness.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::graph;
using nw::hypergraph::betweenness_batched;
using nw::hypergraph::betweenness_sampled;
using nw::vertex_id_t;
using nwtest::random_graph;
using nwtest::reference_bfs_distances;
using nwtest::reference_components;
using nwtest::same_partition;

namespace {

adjacency<> path_graph(std::size_t n) {
  edge_list<> el(n);
  for (vertex_id_t v = 0; v + 1 < n; ++v) {
    el.push_back(v, v + 1);
    el.push_back(v + 1, v);
  }
  el.sort_and_unique();
  return adjacency<>(el);
}

adjacency<> star_graph(std::size_t leaves) {
  edge_list<> el(leaves + 1);
  for (vertex_id_t v = 1; v <= leaves; ++v) {
    el.push_back(0, v);
    el.push_back(v, 0);
  }
  el.sort_and_unique();
  return adjacency<>(el);
}

/// Check a parent array is a valid BFS forest with exactly the reachable set.
template <class Graph>
void check_parents_valid(const Graph& g, vertex_id_t source,
                         const std::vector<vertex_id_t>& parents) {
  auto dist = reference_bfs_distances(g, source);
  ASSERT_EQ(parents.size(), g.size());
  EXPECT_EQ(parents[source], source);
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (dist[v] == nw::null_vertex<>) {
      EXPECT_EQ(parents[v], nw::null_vertex<>) << "unreachable " << v;
    } else {
      ASSERT_NE(parents[v], nw::null_vertex<>) << "reachable " << v;
      if (v != source) {
        // Parent must be exactly one BFS level above the child.
        EXPECT_EQ(dist[parents[v]] + 1, dist[v]) << "vertex " << v;
      }
    }
  }
}

}  // namespace

// --- BFS -----------------------------------------------------------------

class BfsParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsParam, TopDownParentsValid) {
  auto        el = random_graph(200, 500, GetParam());
  adjacency<> g(el);
  nw::obs::registry::get().reset();
  check_parents_valid(g, 0, bfs_direction_optimizing(g, 0, nwtest::top_down_alpha));
  EXPECT_EQ(nwtest::direction_steps("graph_bfs").second, 0u);
}

TEST_P(BfsParam, BottomUpParentsValid) {
  auto        el = random_graph(200, 500, GetParam());
  adjacency<> g(el);
  nw::obs::registry::get().reset();
  check_parents_valid(
      g, 0, bfs_direction_optimizing(g, 0, nwtest::bottom_up_alpha, nwtest::bottom_up_beta));
  EXPECT_EQ(nwtest::direction_steps("graph_bfs").first, 0u);
}

TEST_P(BfsParam, DirectionOptimizingParentsValid) {
  auto        el = random_graph(200, 500, GetParam());
  adjacency<> g(el);
  check_parents_valid(g, 0, bfs_direction_optimizing(g, 0));
}

TEST_P(BfsParam, DistancesMatchReference) {
  auto        el = random_graph(300, 900, GetParam());
  adjacency<> g(el);
  EXPECT_EQ(bfs_distances(g, 5), reference_bfs_distances(g, 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsParam, ::testing::Values(11, 22, 33, 44, 55));

TEST(Bfs, PathGraphDistances) {
  auto g    = path_graph(10);
  auto dist = bfs_distances(g, 0);
  for (vertex_id_t v = 0; v < 10; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, DisconnectedStaysUnreached) {
  edge_list<> el(4);
  el.push_back(0, 1);
  el.push_back(1, 0);
  adjacency<> g(el);
  auto        parents = bfs_direction_optimizing(g, 0, nwtest::top_down_alpha);
  EXPECT_EQ(parents[2], nw::null_vertex<>);
  EXPECT_EQ(parents[3], nw::null_vertex<>);
}

TEST(Bfs, SingleVertexGraph) {
  edge_list<> el(1);
  adjacency<> g(el, 1);
  auto        parents = bfs_direction_optimizing(g, 0);
  EXPECT_EQ(parents[0], 0u);
}

TEST(Bfs, StarForcesBottomUpSwitch) {
  // Star: the centre's scout count is half the graph's edges, so the
  // 15/18 heuristic switches to bottom-up once, and stays there.
  auto g = star_graph(5000);
  nw::obs::registry::get().reset();
  auto parents = bfs_direction_optimizing(g, 0, /*alpha=*/15, /*beta=*/18);
  for (std::size_t v = 1; v < g.size(); ++v) EXPECT_EQ(parents[v], 0u);
  EXPECT_GT(nwtest::direction_steps("graph_bfs").second, 0u);
  EXPECT_EQ(nw::obs::registry::get().counters_snapshot().at("graph_bfs.direction_switches"), 1u);
}

// --- connected components ---------------------------------------------------

class CcParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CcParam, LabelPropagationMatchesReference) {
  auto        el = random_graph(300, 450, GetParam());  // sparse: multiple comps
  adjacency<> g(el);
  EXPECT_TRUE(same_partition(cc_label_propagation(g), reference_components(g)));
}

TEST_P(CcParam, AfforestMatchesReference) {
  auto        el = random_graph(300, 450, GetParam());
  adjacency<> g(el);
  EXPECT_TRUE(same_partition(cc_afforest(g), reference_components(g)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcParam, ::testing::Values(101, 202, 303, 404, 505));

TEST(Cc, IsolatedVerticesAreSingletons) {
  edge_list<> el(5);
  el.push_back(0, 1);
  el.push_back(1, 0);
  adjacency<> g(el);
  auto        labels = cc_afforest(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[2], labels[0]);
  EXPECT_NE(labels[2], labels[3]);
  EXPECT_EQ(count_components(labels), 4u);
}

TEST(Cc, CountAndLargestHelpers) {
  std::vector<vertex_id_t> labels{0, 0, 1, 0, 2, 2};
  EXPECT_EQ(count_components(labels), 3u);
  EXPECT_EQ(largest_component_size(labels), 3u);
}

TEST(Cc, GiantComponentPlusFringe) {
  // Dense core of 100 + 50 isolated pairs: exercises Afforest's skip logic.
  edge_list<> el(200);
  nw::xoshiro256ss rng(7);
  for (int i = 0; i < 600; ++i) {
    auto u = static_cast<vertex_id_t>(rng.bounded(100));
    auto v = static_cast<vertex_id_t>(rng.bounded(100));
    if (u == v) continue;
    el.push_back(u, v);
    el.push_back(v, u);
  }
  // Make the core definitely connected.
  for (vertex_id_t v = 1; v < 100; ++v) {
    el.push_back(0, v);
    el.push_back(v, 0);
  }
  for (vertex_id_t p = 0; p < 50; ++p) {
    el.push_back(100 + 2 * p, 101 + 2 * p);
    el.push_back(101 + 2 * p, 100 + 2 * p);
  }
  el.sort_and_unique();
  adjacency<> g(el);
  auto        labels = cc_afforest(g);
  EXPECT_TRUE(same_partition(labels, reference_components(g)));
  EXPECT_EQ(count_components(labels), 51u);
  EXPECT_EQ(largest_component_size(labels), 100u);
}

// Concurrent path compression in cc_afforest once stored a stale root over
// a pointer that another thread had already lowered, closing a two-cycle
// that every later find_root spun on (about one call in 150 hung at 4
// threads on this input).  The calls match the library's afforest users:
// s-line graphs at s=2 and s=8 and the adjoin graph of a skewed social
// hypergraph.  A hang fails through this binary's ctest TIMEOUT.
TEST(Cc, AfforestStressAtFourThreadsTerminates) {
  nwtest::concurrency_guard    guard;
  nw::hypergraph::NWHypergraph h(
      nw::hypergraph::gen::powerlaw_hypergraph(8000, 40000, 128, 1.2, 0.8, 8000));
  const auto s2     = h.make_s_linegraph(2);
  const auto s8     = h.make_s_linegraph(8);
  const auto adjoin = h.adjoin();
  // Graph i of the three, handed to `fn`.
  const auto on_graph = [&](std::size_t i, auto fn) {
    return i == 0 ? fn(s2.graph()) : i == 1 ? fn(s8.graph()) : fn(adjoin);
  };
  const auto afforest = [](const auto& g) { return cc_afforest(g); };
  constexpr std::size_t num_graphs = 3;
  nw::par::thread_pool::set_default_concurrency(1);
  std::vector<std::vector<vertex_id_t>> want;
  for (std::size_t i = 0; i < num_graphs; ++i) {
    want.push_back(on_graph(i, afforest));
    ASSERT_TRUE(same_partition(
        want.back(), on_graph(i, [](const auto& g) { return reference_components(g); })));
  }
  nw::par::thread_pool::set_default_concurrency(4);
  // Labels are each component's minimum id, so every run matches exactly.
  const std::uint64_t iters = 25 * nwtest::env_u64("NWHY_TEST_ITERS", 24);
  for (std::uint64_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < num_graphs; ++i) {
      ASSERT_EQ(on_graph(i, afforest), want[i]) << "iteration " << it << ", graph " << i;
    }
  }
}

// --- SSSP ---------------------------------------------------------------------

namespace {
adjacency<float> weighted_random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  nw::xoshiro256ss rng(seed);
  edge_list<float> el(n);
  for (std::size_t i = 0; i < m; ++i) {
    auto  u = static_cast<vertex_id_t>(rng.bounded(n));
    auto  v = static_cast<vertex_id_t>(rng.bounded(n));
    float w = 0.1f + static_cast<float>(rng.uniform()) * 9.9f;
    if (u == v) continue;
    el.push_back(u, v, w);
    el.push_back(v, u, w);
  }
  return adjacency<float>(el, n);
}
}  // namespace

class SsspParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsspParam, DeltaSteppingMatchesDijkstra) {
  auto g        = weighted_random_graph(150, 600, GetParam());
  auto dijkstra = sssp_dijkstra(g, 0);
  for (float delta : {0.5f, 2.0f, 20.0f}) {
    auto ds = sssp_delta_stepping(g, 0, delta);
    ASSERT_EQ(ds.size(), dijkstra.size());
    for (std::size_t v = 0; v < ds.size(); ++v) {
      if (dijkstra[v] == infinite_distance<float>) {
        EXPECT_EQ(ds[v], infinite_distance<float>);
      } else {
        EXPECT_NEAR(ds[v], dijkstra[v], 1e-4) << "vertex " << v << " delta " << delta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsspParam, ::testing::Values(3, 13, 23));

TEST(Sssp, KnownSmallGraph) {
  edge_list<float> el(4);
  el.push_back(0, 1, 1.0f);
  el.push_back(1, 0, 1.0f);
  el.push_back(1, 2, 2.0f);
  el.push_back(2, 1, 2.0f);
  el.push_back(0, 2, 5.0f);
  el.push_back(2, 0, 5.0f);
  adjacency<float> g(el, 4);
  auto             d = sssp_dijkstra(g, 0);
  EXPECT_FLOAT_EQ(d[0], 0.0f);
  EXPECT_FLOAT_EQ(d[1], 1.0f);
  EXPECT_FLOAT_EQ(d[2], 3.0f);  // 0-1-2 beats the direct 5.0 edge
  EXPECT_EQ(d[3], infinite_distance<float>);
}

// --- betweenness -----------------------------------------------------------------

TEST(Betweenness, PathGraphCenterDominates) {
  auto g  = path_graph(5);  // 0-1-2-3-4
  auto bc = betweenness_batched(g, /*normalized=*/false);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 3.0);  // pairs (0,2), (0,3), (0,4)
  EXPECT_DOUBLE_EQ(bc[2], 4.0);  // pairs (0,3), (0,4), (1,3), (1,4)
  EXPECT_DOUBLE_EQ(bc[3], 3.0);
  EXPECT_DOUBLE_EQ(bc[4], 0.0);
}

TEST(Betweenness, StarCenterTakesAll) {
  auto g  = star_graph(6);
  auto bc = betweenness_batched(g, /*normalized=*/false);
  EXPECT_DOUBLE_EQ(bc[0], 15.0);  // C(6,2) pairs all route through the hub
  for (std::size_t v = 1; v < g.size(); ++v) EXPECT_DOUBLE_EQ(bc[v], 0.0);
}

TEST(Betweenness, CycleIsUniform) {
  edge_list<> el(6);
  for (vertex_id_t v = 0; v < 6; ++v) {
    el.push_back(v, (v + 1) % 6);
    el.push_back((v + 1) % 6, v);
  }
  el.sort_and_unique();
  adjacency<> g(el);
  auto        bc = betweenness_batched(g, false);
  for (std::size_t v = 1; v < 6; ++v) EXPECT_NEAR(bc[v], bc[0], 1e-12);
}

TEST(Betweenness, NormalizationScales) {
  auto g   = star_graph(6);
  auto raw = betweenness_batched(g, false);
  auto nrm = betweenness_batched(g, true);
  double scale = 2.0 / (6.0 * 5.0);  // n = 7
  EXPECT_NEAR(nrm[0], raw[0] * scale, 1e-12);
}

TEST(Betweenness, SplitShortestPathsShareCredit) {
  // 4-cycle: two equal-length paths between opposite corners.
  edge_list<> el(4);
  for (vertex_id_t v = 0; v < 4; ++v) {
    el.push_back(v, (v + 1) % 4);
    el.push_back((v + 1) % 4, v);
  }
  el.sort_and_unique();
  adjacency<> g(el);
  auto        bc = betweenness_batched(g, false);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_NEAR(bc[v], 0.5, 1e-12);
}

TEST(Betweenness, ApproxConvergesToExactOnFullSampling) {
  auto        el = random_graph(60, 200, 77);
  adjacency<> g(el);
  auto        exact  = betweenness_batched(g, false);
  auto        approx = betweenness_sampled(g, g.size(), 42);
  // Full sampling with replacement is unbiased but not exact; demand the top
  // vertex agrees and the scale is in the right ballpark.
  auto imax_exact  = std::max_element(exact.begin(), exact.end()) - exact.begin();
  auto imax_approx = std::max_element(approx.begin(), approx.end()) - approx.begin();
  EXPECT_EQ(imax_exact, imax_approx);
}

// --- closeness / harmonic / eccentricity ---------------------------------------

TEST(Closeness, PathGraphKnownValues) {
  auto g = path_graph(4);  // 0-1-2-3
  auto c = closeness_centrality(g);
  EXPECT_NEAR(c[0], 3.0 / 6.0, 1e-12);
  EXPECT_NEAR(c[1], 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(c[2], 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(c[3], 3.0 / 6.0, 1e-12);
}

TEST(Closeness, IsolatedVertexIsZero) {
  edge_list<> el(3);
  el.push_back(0, 1);
  el.push_back(1, 0);
  adjacency<> g(el);
  auto        c = closeness_centrality(g);
  EXPECT_DOUBLE_EQ(c[2], 0.0);
}

TEST(Harmonic, StarKnownValues) {
  auto g = star_graph(4);
  auto h = harmonic_closeness_centrality(g);
  EXPECT_NEAR(h[0], 4.0, 1e-12);            // hub: four at distance 1
  EXPECT_NEAR(h[1], 1.0 + 3.0 * 0.5, 1e-12);  // leaf: hub at 1, three at 2
}

TEST(Eccentricity, PathGraph) {
  auto g = path_graph(5);
  auto e = eccentricity(g);
  EXPECT_EQ(e[0], 4u);
  EXPECT_EQ(e[2], 2u);
  EXPECT_EQ(e[4], 4u);
}

TEST(Eccentricity, GreaterOrEqualToAnyDistance) {
  auto        el = random_graph(100, 300, 9);
  adjacency<> g(el);
  auto        ecc  = eccentricity(g);
  auto        dist = bfs_distances(g, 0);
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (dist[v] != nw::null_vertex<>) {
      EXPECT_GE(ecc[0], dist[v]);
    }
  }
}

// --- pagerank --------------------------------------------------------------------

TEST(PageRank, SumsToOne) {
  auto        el = random_graph(200, 800, 31);
  adjacency<> g(el);
  auto        pr  = pagerank(g);
  double      sum = 0;
  for (auto r : pr) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRank, StarHubDominates) {
  auto g  = star_graph(20);
  auto pr = pagerank(g);
  for (std::size_t v = 1; v < g.size(); ++v) EXPECT_GT(pr[0], pr[v]);
  // All leaves are symmetric.
  for (std::size_t v = 2; v < g.size(); ++v) EXPECT_NEAR(pr[v], pr[1], 1e-12);
}

TEST(PageRank, RegularGraphIsUniform) {
  edge_list<> el(8);
  for (vertex_id_t v = 0; v < 8; ++v) {
    el.push_back(v, (v + 1) % 8);
    el.push_back((v + 1) % 8, v);
  }
  el.sort_and_unique();
  adjacency<> g(el);
  auto        pr = pagerank(g);
  for (auto r : pr) EXPECT_NEAR(r, 1.0 / 8.0, 1e-9);
}

// --- k-core -----------------------------------------------------------------------

TEST(KCore, CliquePlusTail) {
  // K4 on {0,1,2,3} plus a tail 3-4-5.
  edge_list<> el(6);
  for (vertex_id_t u = 0; u < 4; ++u) {
    for (vertex_id_t v = 0; v < 4; ++v) {
      if (u != v) el.push_back(u, v);
    }
  }
  el.push_back(3, 4);
  el.push_back(4, 3);
  el.push_back(4, 5);
  el.push_back(5, 4);
  el.sort_and_unique();
  adjacency<> g(el);
  auto        core = kcore_decomposition(g);
  for (vertex_id_t v = 0; v < 4; ++v) EXPECT_EQ(core[v], 3u);
  EXPECT_EQ(core[4], 1u);
  EXPECT_EQ(core[5], 1u);
}

TEST(KCore, CycleIsTwoCore) {
  edge_list<> el(5);
  for (vertex_id_t v = 0; v < 5; ++v) {
    el.push_back(v, (v + 1) % 5);
    el.push_back((v + 1) % 5, v);
  }
  el.sort_and_unique();
  adjacency<> g(el);
  for (auto c : kcore_decomposition(g)) EXPECT_EQ(c, 2u);
}

// --- triangles ---------------------------------------------------------------------

TEST(Triangles, KnownCounts) {
  // K4 has 4 triangles.
  edge_list<> el(4);
  for (vertex_id_t u = 0; u < 4; ++u) {
    for (vertex_id_t v = 0; v < 4; ++v) {
      if (u != v) el.push_back(u, v);
    }
  }
  el.sort_and_unique();
  adjacency<> g(el);
  EXPECT_EQ(triangle_count(g), 4u);
}

TEST(Triangles, TriangleFreeGraph) {
  auto g = path_graph(20);
  EXPECT_EQ(triangle_count(g), 0u);
}

TEST(Triangles, MatchesBruteForce) {
  auto        el = random_graph(40, 200, 57);
  adjacency<> g(el);
  // Brute force over ordered triples.
  auto        has_edge = [&](vertex_id_t u, vertex_id_t v) {
    auto nbrs = g[u];
    return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
  };
  std::size_t expected = 0;
  for (vertex_id_t a = 0; a < 40; ++a) {
    for (vertex_id_t b = a + 1; b < 40; ++b) {
      if (!has_edge(a, b)) continue;
      for (vertex_id_t c = b + 1; c < 40; ++c) {
        if (has_edge(a, c) && has_edge(b, c)) ++expected;
      }
    }
  }
  EXPECT_EQ(triangle_count(g), expected);
}
