// tests/test_extensions.cpp — weighted s-line graphs, MIS / s-independent
// edges, the extended s-metrics (s-PageRank, s-core, s-triangles,
// s-diameter), hypergraph transforms, and the relabel facade.
#include <gtest/gtest.h>

#include <set>

#include "nwgraph/algorithms/mis.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/slinegraph/weighted.hpp"
#include "nwhy/transforms.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::canonical_pairs;

// --- weighted s-line graph ---------------------------------------------------

TEST(WeightedLineGraph, WeightsAreExactOverlaps) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         w = hg.weighted_linegraph_edges(1);
  ASSERT_EQ(w.size(), 3u);
  // Pairs (sorted by construction): {0,1} overlap 2, {1,2} overlap 1,
  // {2,3} overlap 1.
  std::map<std::pair<vertex_id_t, vertex_id_t>, std::uint32_t> weights;
  for (std::size_t i = 0; i < w.size(); ++i) {
    auto [a, b, ov] = w[i];
    weights[{std::min(a, b), std::max(a, b)}] = ov;
  }
  EXPECT_EQ((weights[{0, 1}]), 2u);
  EXPECT_EQ((weights[{1, 2}]), 1u);
  EXPECT_EQ((weights[{2, 3}]), 1u);
}

class WeightedParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedParam, WeightsMatchBruteForceIntersections) {
  auto el = gen::powerlaw_hypergraph(60, 40, 15, 1.4, 1.0, GetParam());
  NWHypergraph hg(std::move(el));
  const auto&  he = hg.hyperedges();
  auto         w  = hg.weighted_linegraph_edges(1);
  for (std::size_t i = 0; i < w.size(); ++i) {
    auto [a, b, ov] = w[i];
    EXPECT_EQ(ov, intersection_size(he[a], he[b])) << a << "," << b;
  }
}

TEST_P(WeightedParam, ThresholdingReproducesEverySLineGraph) {
  auto         el = gen::uniform_random_hypergraph(70, 50, 6, GetParam() + 50);
  NWHypergraph hg(std::move(el));
  auto         weighted = hg.weighted_linegraph_edges(1);
  for (std::size_t s : {1, 2, 3, 4}) {
    auto sliced = canonical_pairs(threshold_weighted(weighted, s));
    auto direct = canonical_pairs(
        to_two_graph_hashmap(hg.hyperedges(), hg.hypernodes(), hg.edge_sizes(), s));
    // Thresholding ignores the per-s degree filter; apply it for comparison.
    // (A pair in L_s requires both endpoints to have >= s hypernodes, which
    // overlap >= s already implies — so the sets must be identical.)
    EXPECT_EQ(sliced, direct) << "s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedParam, ::testing::Values(1, 2, 3));

TEST(WeightedLineGraph, CsrCostsAreInverseOverlaps) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         w   = hg.weighted_linegraph_edges(1);
  auto         csr = weighted_linegraph_csr(w, hg.num_hyperedges());
  ASSERT_EQ(csr.size(), 4u);
  // e0-e1 share 2 hypernodes: cost 0.5 in both directions.
  bool found = false;
  for (auto&& [v, cost] : csr[0]) {
    if (v == 1) {
      EXPECT_FLOAT_EQ(cost, 0.5f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WeightedLineGraph, WeightedSDistancePrefersStrongOverlaps) {
  // Triangle of hyperedges: e0-e1 overlap 4 (cost .25), e0-e2 overlap 1
  // (cost 1), e1-e2 overlap 1 (cost 1).  Cheapest e0 -> e2 walk is the
  // direct hop (1.0) vs e0-e1-e2 (1.25).
  biedgelist<> el;
  for (vertex_id_t v : {0, 1, 2, 3, 8}) el.push_back(0, v);
  for (vertex_id_t v : {0, 1, 2, 3, 9}) el.push_back(1, v);
  for (vertex_id_t v : {8, 9}) el.push_back(2, v);
  NWHypergraph hg(std::move(el));
  auto         w   = hg.weighted_linegraph_edges(1);
  auto         csr = weighted_linegraph_csr(w, hg.num_hyperedges());
  EXPECT_FLOAT_EQ(weighted_s_distance(csr, 0, 1), 0.25f);
  EXPECT_FLOAT_EQ(weighted_s_distance(csr, 0, 2), 1.0f);
  // Unreachable: a hypergraph with an isolated hyperedge.
  biedgelist<> el2;
  el2.push_back(0, 0);
  el2.push_back(1, 1);
  NWHypergraph hg2(std::move(el2));
  auto         w2   = hg2.weighted_linegraph_edges(1);
  auto         csr2 = weighted_linegraph_csr(w2, hg2.num_hyperedges());
  EXPECT_EQ(weighted_s_distance(csr2, 0, 1), nw::graph::infinite_distance<float>);
}

TEST(WeightedLineGraph, WeightedDistanceLowerBoundsHopDistance) {
  // Each step costs 1/overlap <= 1, so weighted distance <= hop distance.
  NWHypergraph hg(gen::uniform_random_hypergraph(50, 40, 5, 0xFEED));
  auto         w   = hg.weighted_linegraph_edges(1);
  auto         csr = weighted_linegraph_csr(w, hg.num_hyperedges());
  auto         lg  = hg.make_s_linegraph(1);
  for (vertex_id_t dst : {5u, 13u, 31u}) {
    auto hop = lg.s_distance(0, dst);
    auto wd  = weighted_s_distance(csr, 0, dst);
    if (hop) {
      EXPECT_LE(wd, static_cast<float>(*hop) + 1e-5f);
    } else {
      EXPECT_EQ(wd, nw::graph::infinite_distance<float>);
    }
  }
}

// --- MIS -----------------------------------------------------------------------

class MisParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisParam, InvariantsHoldOnRandomGraphs) {
  auto                   el = nwtest::random_graph(200, 600, GetParam());
  nw::graph::adjacency<> g(el);
  auto                   mis = nw::graph::maximal_independent_set(g);
  EXPECT_TRUE(nw::graph::is_maximal_independent_set(g, mis));
}

TEST_P(MisParam, DeterministicPerSeed) {
  auto                   el = nwtest::random_graph(100, 300, GetParam() + 10);
  nw::graph::adjacency<> g(el);
  EXPECT_EQ(nw::graph::maximal_independent_set(g, 7), nw::graph::maximal_independent_set(g, 7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisParam, ::testing::Values(11, 12, 13, 14));

TEST(Mis, EdgelessGraphIsAllIn) {
  nw::graph::edge_list<> el(5);
  nw::graph::adjacency<> g(el, 5);
  auto                   mis = nw::graph::maximal_independent_set(g);
  for (auto m : mis) EXPECT_EQ(m, 1);
}

TEST(Mis, CompleteGraphHasExactlyOne) {
  nw::graph::edge_list<> el(6);
  for (vertex_id_t u = 0; u < 6; ++u) {
    for (vertex_id_t v = 0; v < 6; ++v) {
      if (u != v) el.push_back(u, v);
    }
  }
  nw::graph::adjacency<> g(el);
  auto                   mis   = nw::graph::maximal_independent_set(g);
  int                    count = 0;
  for (auto m : mis) count += m;
  EXPECT_EQ(count, 1);
}

TEST(Mis, SIndependentEdgesArePairwiseNonAdjacent) {
  NWHypergraph hg(gen::powerlaw_hypergraph(60, 40, 12, 1.4, 1.0, 0xCAFE));
  auto         lg  = hg.make_s_linegraph(2);
  auto         set = lg.s_independent_edges();
  std::set<vertex_id_t> members(set.begin(), set.end());
  for (auto e : set) {
    for (auto n : lg.s_neighbors(e)) {
      EXPECT_EQ(members.count(n), 0u) << e << " and " << n << " both in the s-matching";
    }
  }
}

// --- extended s-metrics ------------------------------------------------------------

TEST(ExtendedSMetrics, DiameterOfFigure1LinePath) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  EXPECT_EQ(hg.make_s_linegraph(1).s_diameter(), 3u);  // path of 4
  EXPECT_EQ(hg.make_s_linegraph(2).s_diameter(), 1u);  // single edge
}

TEST(ExtendedSMetrics, PagerankSumsToOne) {
  NWHypergraph hg(gen::uniform_random_hypergraph(80, 60, 5, 0xFACE));
  auto         pr  = hg.make_s_linegraph(1).s_pagerank();
  double       sum = 0;
  for (auto r : pr) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(ExtendedSMetrics, TrianglesAndClustering) {
  // Three mutually overlapping hyperedges: a triangle in the line graph.
  biedgelist<> el;
  el.push_back(0, 0);
  el.push_back(0, 1);
  el.push_back(1, 1);
  el.push_back(1, 2);
  el.push_back(2, 2);
  el.push_back(2, 0);
  NWHypergraph hg(std::move(el));
  auto         lg = hg.make_s_linegraph(1);
  EXPECT_EQ(lg.s_triangle_count(), 1u);
  EXPECT_DOUBLE_EQ(lg.s_clustering_coefficient(), 1.0);
}

TEST(ExtendedSMetrics, CoreNumbersOfLinePath) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         core = hg.make_s_linegraph(1).s_core_numbers();
  for (auto c : core) EXPECT_EQ(c, 1u);  // a path is a 1-core
}

// --- transforms ----------------------------------------------------------------------

TEST(Transforms, CollapseMergesDuplicates) {
  biedgelist<> el;
  for (vertex_id_t v : {0, 1, 2}) el.push_back(0, v);
  for (vertex_id_t v : {0, 1, 2}) el.push_back(1, v);  // duplicate of e0
  for (vertex_id_t v : {3, 4}) el.push_back(2, v);
  el.sort_and_unique();
  auto r = collapse_duplicate_edges(el);
  ASSERT_EQ(r.representative.size(), 2u);
  EXPECT_EQ(r.representative[0], 0u);
  EXPECT_EQ(r.multiplicity[0], 2u);
  EXPECT_EQ(r.representative[1], 2u);
  EXPECT_EQ(r.multiplicity[1], 1u);
  EXPECT_EQ(r.el.num_vertices(0), 2u);
}

TEST(Transforms, CollapseIsIdempotent) {
  auto el = gen::uniform_random_hypergraph(80, 20, 3, 0xAAA);
  el.sort_and_unique();
  auto once  = collapse_duplicate_edges(el);
  auto el2   = once.el;
  el2.sort_and_unique();
  auto twice = collapse_duplicate_edges(el2);
  EXPECT_EQ(once.el.num_vertices(0), twice.el.num_vertices(0));
  for (auto m : twice.multiplicity) EXPECT_EQ(m, 1u);
}

TEST(Transforms, FilterEdgesBySize) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  std::vector<vertex_id_t> kept;
  auto filtered = filter_edges_by_size(el, 4, 100, &kept);
  EXPECT_EQ(kept, (std::vector<vertex_id_t>{1}));  // only e1 has 4 hypernodes
  EXPECT_EQ(filtered.num_vertices(0), 1u);
  EXPECT_EQ(filtered.size(), 4u);
  // Hypernode space preserved.
  EXPECT_EQ(filtered.num_vertices(1), el.num_vertices(1));
}

TEST(Transforms, FilterEverythingYieldsEmpty) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto filtered = filter_edges_by_size(el, 100, 200);
  EXPECT_EQ(filtered.size(), 0u);
}

TEST(Transforms, InducedSubhypergraph) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  // Keep only hypernodes {0..4}: e2 shrinks to {4}, e3 disappears.
  std::vector<char> keep(9, 0);
  for (int v = 0; v <= 4; ++v) keep[v] = 1;
  std::vector<vertex_id_t> kept_edges;
  auto sub = induced_subhypergraph(el, keep, &kept_edges);
  EXPECT_EQ(kept_edges, (std::vector<vertex_id_t>{0, 1, 2}));
  NWHypergraph hg(std::move(sub));
  EXPECT_EQ(hg.edge_sizes(), (std::vector<std::size_t>{3, 4, 1}));
}

TEST(Transforms, DegreeHistogram) {
  std::vector<std::size_t> degrees{0, 1, 1, 3, 3, 3};
  auto                     h = degree_histogram(degrees);
  EXPECT_EQ(h, (std::vector<std::size_t>{1, 2, 0, 3}));
}
