// tests/test_hypergraph_containers.cpp — biedgelist, biadjacency (the two
// mutually indexed CSRs), and the adjoin representation.
#include <gtest/gtest.h>

#include <ranges>
#include <set>

#include "nwhy/adjoin.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwhy/biedgelist.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

TEST(Biedgelist, CardinalitiesTrackIds) {
  biedgelist<> el;
  el.push_back(3, 7);
  EXPECT_EQ(el.num_vertices(0), 4u);
  EXPECT_EQ(el.num_vertices(1), 8u);
  el.push_back(0, 20);
  EXPECT_EQ(el.num_vertices(0), 4u);
  EXPECT_EQ(el.num_vertices(1), 21u);
}

TEST(Biedgelist, DeclaredCardinalitiesAreFloors) {
  biedgelist<> el(10, 10);
  el.push_back(0, 1);
  EXPECT_EQ(el.num_vertices(0), 10u);
  EXPECT_EQ(el.num_vertices(1), 10u);
}

TEST(Biedgelist, SortAndUniqueCanonicalizes) {
  biedgelist<> el;
  el.push_back(1, 5);
  el.push_back(0, 3);
  el.push_back(1, 5);
  el.push_back(1, 2);
  el.sort_and_unique();
  EXPECT_EQ(el.size(), 3u);
  auto [e0, v0] = el[0];
  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(v0, 3u);
  auto [e1, v1] = el[1];
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(v1, 2u);
}

TEST(Biadjacency, MutualIndexingIsConsistent) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);

  EXPECT_EQ(hyperedges.size(), 4u);
  EXPECT_EQ(hypernodes.size(), 9u);
  EXPECT_EQ(hyperedges.num_edges(), el.size());
  EXPECT_EQ(hypernodes.num_edges(), el.size());

  // Every incidence visible from one side must be visible from the other.
  for (std::size_t e = 0; e < hyperedges.size(); ++e) {
    for (auto&& ev : hyperedges[e]) {
      vertex_id_t v    = target(ev);
      auto        back = hypernodes[v];
      bool        found = false;
      for (auto&& ve : back) {
        if (target(ve) == e) found = true;
      }
      EXPECT_TRUE(found) << "incidence (" << e << ", " << v << ") missing from node side";
    }
  }
}

TEST(Biadjacency, DegreesAreEdgeSizesAndNodeMemberships) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  EXPECT_EQ(hyperedges.degree(0), 3u);
  EXPECT_EQ(hyperedges.degree(1), 4u);
  EXPECT_EQ(hypernodes.degree(1), 2u);  // v1 in e0 and e1
  EXPECT_EQ(hypernodes.degree(7), 1u);
  std::size_t total = 0;
  for (auto d : hyperedges.degrees()) total += d;
  EXPECT_EQ(total, el.size());
}

TEST(Biadjacency, RectangularIndexSpaces) {
  biedgelist<> el(2, 100);
  el.push_back(0, 99);
  el.push_back(1, 50);
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  EXPECT_EQ(hyperedges.size(), 2u);
  EXPECT_EQ(hypernodes.size(), 100u);
  EXPECT_EQ(hyperedges.num_targets(), 100u);
  EXPECT_EQ(hypernodes.num_targets(), 2u);
}

TEST(Biadjacency, Listing3FreeFunctionFacade) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  EXPECT_EQ(num_vertices(hyperedges, 0), 4u);
  EXPECT_EQ(num_vertices(hyperedges, 1), 9u);
}

TEST(Biadjacency, RangeOfRangesIteration) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  // Listing 3 style: outer + inner range loops.
  std::size_t incidences = 0;
  for (auto&& e_neighbors : hyperedges) {
    for (auto&& e : e_neighbors) {
      (void)target(e);
      ++incidences;
    }
  }
  EXPECT_EQ(incidences, el.size());
  static_assert(std::ranges::random_access_range<biadjacency<0>>);
  static_assert(std::ranges::forward_range<std::ranges::range_reference_t<biadjacency<0>>>);
}

TEST(Biadjacency, EmptyHypergraph) {
  biedgelist<>   el;
  biadjacency<0> hyperedges(el);
  EXPECT_EQ(hyperedges.size(), 0u);
  EXPECT_EQ(hyperedges.num_edges(), 0u);
}

TEST(Biadjacency, IsolatedEntitiesHaveZeroDegree) {
  biedgelist<> el(5, 5);
  el.push_back(0, 0);
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  EXPECT_EQ(hyperedges.degree(4), 0u);
  EXPECT_EQ(hypernodes.degree(4), 0u);
}

// --- adjoin ----------------------------------------------------------------

TEST(Adjoin, StructureMatchesDefinition) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto g = nwtest::adjoin_of(el);
  EXPECT_EQ(g.nrealedges(), 4u);
  EXPECT_EQ(g.nrealnodes(), 9u);
  EXPECT_EQ(g.num_ids(), 13u);
  EXPECT_EQ(g.size(), 13u);
  // Twice the incidences (both directions).
  EXPECT_EQ(g.num_edges(), 2 * el.size());
}

TEST(Adjoin, BipartiteBlockStructure) {
  // A_G = [[0, Bt], [B, 0]]: hyperedge ids only neighbor hypernode ids and
  // vice versa — no edge-edge or node-node adjacency.
  auto g = nwtest::adjoin_of(nwtest::figure1_hypergraph());
  for (std::size_t u = 0; u < g.num_ids(); ++u) {
    bool u_is_edge = g.is_edge_id(static_cast<vertex_id_t>(u));
    for (auto&& e : g[u]) {
      bool v_is_edge = g.is_edge_id(nw::graph::target(e));
      EXPECT_NE(u_is_edge, v_is_edge) << "same-class adjacency at " << u;
    }
  }
}

TEST(Adjoin, SymmetricAdjacency) {
  auto g = nwtest::adjoin_of(nwtest::figure1_hypergraph());
  for (std::size_t u = 0; u < g.num_ids(); ++u) {
    for (auto&& e : g[u]) {
      vertex_id_t v     = nw::graph::target(e);
      auto        back  = g[v];
      bool        found = std::find(back.begin(), back.end(), u) != back.end();
      EXPECT_TRUE(found);
    }
  }
}

TEST(Adjoin, DegreesMatchBipartiteSides) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  auto           g = nwtest::adjoin_of(el);
  for (std::size_t e = 0; e < hyperedges.size(); ++e) {
    EXPECT_EQ(g.degree(e), hyperedges.degree(e));
  }
  for (std::size_t v = 0; v < hypernodes.size(); ++v) {
    EXPECT_EQ(g.degree(g.node_to_adjoin(static_cast<vertex_id_t>(v))),
              hypernodes.degree(v));
  }
}

TEST(Adjoin, IdMappingRoundTrips) {
  auto g = nwtest::adjoin_of(nwtest::figure1_hypergraph());
  for (vertex_id_t v = 0; v < g.nrealnodes(); ++v) {
    auto shared = g.node_to_adjoin(v);
    EXPECT_FALSE(g.is_edge_id(shared));
    EXPECT_EQ(g.adjoin_to_node(shared), v);
  }
  for (vertex_id_t e = 0; e < g.nrealedges(); ++e) EXPECT_TRUE(g.is_edge_id(e));
}

TEST(Adjoin, SplitResultsPartitionsArray) {
  std::vector<int> combined{10, 11, 12, 20, 21};
  auto [edges, nodes] = split_results(combined, 3);
  EXPECT_EQ(edges, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(nodes, (std::vector<int>{20, 21}));
}

// The paper's Listing 2 reader flattens a file straight into the adjoin
// edge list and reports both partition sizes.
TEST(Adjoin, EdgeListReaderOutputsCardinalities) {
  std::size_t ne = 0, nv = 0;
  auto        flat = graph_reader_adjoin(NWHY_TEST_DATA_DIR "/fig1.mtx", ne, nv);
  EXPECT_EQ(ne, 4u);
  EXPECT_EQ(nv, 9u);
  EXPECT_EQ(flat.size(), 2 * nwtest::figure1_hypergraph().size());
  EXPECT_EQ(flat.num_vertices(), 13u);
}

// Shared ids are vertex_id_t with null_vertex<> reserved, so a generation
// whose nE + nV ids would wrap is refused when the view is built (here a
// one-row E2N CSR declaring 2^32 - 1 hypernodes, without allocating them).
TEST(Adjoin, RejectsIdSpaceOverflow) {
  auto gen        = std::make_shared<hypergraph_generation>();
  gen->hyperedges = biadjacency<0>::from_csr(
      nw::graph::adjacency<>::from_csr_vectors({0, 0}, {}, 1), 1, nw::null_vertex<>);
  EXPECT_THROW((void)adjoin_graph(gen), std::length_error);
}
