// tests/test_nwhypergraph.cpp — integration tests for the NWHypergraph
// facade: representation caching, cross-representation consistency, and
// end-to-end workflows on generated data.
#include <gtest/gtest.h>

#include "nwhy/nwhypergraph.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwhy/slinegraph/incremental.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

TEST(NWHypergraph, ConstructFromArrays) {
  std::vector<vertex_id_t> edges{0, 0, 1, 1, 1};
  std::vector<vertex_id_t> nodes{0, 1, 1, 2, 3};
  NWHypergraph             hg(edges, nodes);
  EXPECT_EQ(hg.num_hyperedges(), 2u);
  EXPECT_EQ(hg.num_hypernodes(), 4u);
  EXPECT_EQ(hg.num_incidences(), 5u);
  EXPECT_EQ(hg.edge_sizes(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(hg.node_degrees(), (std::vector<std::size_t>{1, 2, 1, 1}));
}

TEST(NWHypergraph, DuplicateIncidencesCollapse) {
  std::vector<vertex_id_t> edges{0, 0, 0};
  std::vector<vertex_id_t> nodes{1, 1, 1};
  NWHypergraph             hg(edges, nodes);
  EXPECT_EQ(hg.num_incidences(), 1u);
}

// The facade's adjoin view reads the same rows as an adjacency<> built
// independently from the paper's Listing 2 reader (graph_reader_adjoin).
TEST(NWHypergraph, AdjoinViewMatchesListing2Reader) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  const auto   g = hg.adjoin();
  EXPECT_EQ(g.nrealedges(), hg.num_hyperedges());
  EXPECT_EQ(g.nrealnodes(), hg.num_hypernodes());
  std::size_t ne = 0, nv = 0;
  auto        flat = graph_reader_adjoin(NWHY_TEST_DATA_DIR "/fig1.mtx", ne, nv);
  flat.sort_and_unique();
  nw::graph::adjacency<> csr(flat, ne + nv);
  ASSERT_EQ(g.size(), csr.size());
  EXPECT_EQ(g.num_edges(), csr.num_edges());
  EXPECT_EQ(g.degrees(), csr.degrees());
  for (std::size_t u = 0; u < g.size(); ++u) {
    EXPECT_EQ(std::vector<vertex_id_t>(g[u].begin(), g[u].end()),
              std::vector<vertex_id_t>(csr[u].begin(), csr[u].end()))
        << "row " << u;
  }
}

TEST(NWHypergraph, BothCcEnginesAgreeOnFacade) {
  NWHypergraph hg(gen::planted_community_hypergraph(60, 150, 20, 1.5, 0.2, 5));
  auto         exact  = hg.connected_components();
  auto         adjoin = hg.connected_components_adjoin();
  EXPECT_EQ(exact.labels_edge, adjoin.labels_edge);
  EXPECT_EQ(exact.labels_node, adjoin.labels_node);
}

TEST(NWHypergraph, BothBfsEnginesReachSameSet) {
  NWHypergraph hg(gen::uniform_random_hypergraph(80, 200, 3, 6));
  auto         exact  = hg.bfs(0);
  auto         adjoin = hg.bfs_adjoin(0);
  for (std::size_t e = 0; e < exact.parents_edge.size(); ++e) {
    EXPECT_EQ(exact.parents_edge[e] == nw::null_vertex<>,
              adjoin.parents_edge[e] == nw::null_vertex<>);
  }
}

TEST(NWHypergraph, CliqueExpansionMatchesSCliqueCounts) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         ce = hg.clique_expansion_graph();
  auto         cg = hg.make_s_linegraph(1, /*edges=*/false);
  EXPECT_EQ(ce.size(), hg.num_hypernodes());
  EXPECT_EQ(ce.num_edges() / 2, cg.num_edges());
}

TEST(NWHypergraph, SLineGraphCardinalityMatchesHyperedges) {
  NWHypergraph hg(gen::powerlaw_hypergraph(40, 30, 10, 1.5, 1.0, 8));
  for (std::size_t s : {1, 2, 3}) {
    auto lg = hg.make_s_linegraph(s);
    EXPECT_EQ(lg.num_vertices(), hg.num_hyperedges());
    EXPECT_EQ(lg.s(), s);
  }
}

TEST(NWHypergraph, SEntryPointsRejectZero) {
  // s counts shared members; s = 0 has no line graph to build.
  NWHypergraph hg(nwtest::figure1_hypergraph());
  EXPECT_THROW((void)hg.make_s_linegraph(0), std::invalid_argument);
  EXPECT_THROW((void)hg.make_s_linegraph(0, /*edges=*/false), std::invalid_argument);
  EXPECT_THROW((void)hg.s_connected_components_implicit(0), std::invalid_argument);
  EXPECT_THROW((void)hg.s_distance_implicit(0, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)hg.weighted_linegraph_edges(0), std::invalid_argument);
  EXPECT_THROW(incremental_slinegraph(hg, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)hg.make_s_linegraph(1));
}

TEST(NWHypergraph, EndToEndWorkflow) {
  // The README workflow: generate, project, analyze.
  NWHypergraph hg(gen::planted_community_hypergraph(50, 100, 15, 1.5, 0.3, 9));
  auto         lg     = hg.make_s_linegraph(2);
  auto         labels = lg.s_connected_components();
  auto         bc     = lg.s_betweenness_centrality();
  ASSERT_EQ(labels.size(), hg.num_hyperedges());
  ASSERT_EQ(bc.size(), hg.num_hyperedges());
  auto t = hg.toplexes();
  EXPECT_FALSE(t.empty());
  for (auto e : t) EXPECT_LT(e, hg.num_hyperedges());
}
