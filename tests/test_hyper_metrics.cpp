// tests/test_hyper_metrics.cpp — exact hypergraph PageRank and (k, l)-core
// decomposition on the bipartite representation.
#include <gtest/gtest.h>

#include <set>

#include "nwhy/algorithms/hyper_kcore.hpp"
#include "nwhy/algorithms/hyper_pagerank.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

struct fixture {
  biadjacency<0> hyperedges;
  biadjacency<1> hypernodes;

  explicit fixture(biedgelist<> el) {
    el.sort_and_unique();
    hyperedges = biadjacency<0>(el);
    hypernodes = biadjacency<1>(el);
  }
};

}  // namespace

// --- hypergraph PageRank -----------------------------------------------------------

TEST(HyperPagerank, NodeRanksSumToOne) {
  fixture f(gen::powerlaw_hypergraph(100, 80, 20, 1.5, 1.0, 1));
  auto    r   = hyper_pagerank(f.hyperedges, f.hypernodes);
  double  sum = 0;
  for (auto x : r.rank_node) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(r.iterations, 0u);
}

TEST(HyperPagerank, SymmetricStructureIsUniform) {
  // A cycle of hyperedges: e_i = {v_i, v_{i+1}} — every node equivalent.
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 8; ++e) {
    el.push_back(e, e);
    el.push_back(e, (e + 1) % 8);
  }
  fixture f(std::move(el));
  auto    r = hyper_pagerank(f.hyperedges, f.hypernodes);
  for (auto x : r.rank_node) EXPECT_NEAR(x, 1.0 / 8.0, 1e-8);
}

TEST(HyperPagerank, HubNodeOutranksLeaves) {
  // Star of hyperedges all containing v0: e_i = {v0, v_i}.
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 10; ++e) {
    el.push_back(e, 0);
    el.push_back(e, e + 1);
  }
  fixture f(std::move(el));
  auto    r = hyper_pagerank(f.hyperedges, f.hypernodes);
  for (std::size_t v = 1; v < r.rank_node.size(); ++v) {
    EXPECT_GT(r.rank_node[0], r.rank_node[v]);
    EXPECT_NEAR(r.rank_node[1], r.rank_node[v], 1e-10);  // leaves symmetric
  }
  // Hyperedge ranks are symmetric too.
  for (std::size_t e = 1; e < r.rank_edge.size(); ++e) {
    EXPECT_NEAR(r.rank_edge[0], r.rank_edge[e], 1e-10);
  }
}

TEST(HyperPagerank, IsolatedNodesKeepTeleportMass) {
  biedgelist<> el(1, 4);  // v2, v3 isolated
  el.push_back(0, 0);
  el.push_back(0, 1);
  fixture f(std::move(el));
  auto    r = hyper_pagerank(f.hyperedges, f.hypernodes);
  double  sum = 0;
  for (auto x : r.rank_node) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(r.rank_node[2], 0.0);
  EXPECT_NEAR(r.rank_node[2], r.rank_node[3], 1e-12);
}

TEST(HyperPagerank, AgreesWithAdjoinGraphPagerank) {
  // The surfer model equals PageRank on the adjoin graph; node ranks must
  // match the adjoin ranks restricted to the node class, renormalized.
  auto el = gen::uniform_random_hypergraph(40, 50, 4, 5);
  el.sort_and_unique();
  fixture f(el);
  auto    exact  = hyper_pagerank(f.hyperedges, f.hypernodes, 0.85, 1e-13, 500);
  auto    adjoin = nwtest::adjoin_of(el);
  auto    full   = nw::graph::pagerank(adjoin, 0.85, 1e-13, 500);
  auto [edge_part, node_part] = split_results(full, adjoin.nrealedges());
  double  a = 0, b = 0;
  for (auto x : node_part) a += x;
  for (auto x : exact.rank_node) b += x;
  // Compare shapes (rank ratios), not scales: the teleport models differ
  // (adjoin teleports to both classes).  Rank ordering must agree.
  std::vector<std::size_t> order_a(node_part.size()), order_b(node_part.size());
  for (std::size_t i = 0; i < order_a.size(); ++i) order_a[i] = order_b[i] = i;
  std::sort(order_a.begin(), order_a.end(),
            [&](std::size_t x, std::size_t y) { return node_part[x] > node_part[y]; });
  std::sort(order_b.begin(), order_b.end(), [&](std::size_t x, std::size_t y) {
    return exact.rank_node[x] > exact.rank_node[y];
  });
  // The teleport models differ slightly (the adjoin surfer can teleport to
  // a hyperedge id), so demand the top vertex and near-total top-5 set
  // agreement rather than exact ordering.
  EXPECT_EQ(order_a[0], order_b[0]) << "top-ranked hypernode";
  std::set<std::size_t> top_a(order_a.begin(), order_a.begin() + 5);
  std::set<std::size_t> top_b(order_b.begin(), order_b.begin() + 5);
  std::vector<std::size_t> common;
  std::set_intersection(top_a.begin(), top_a.end(), top_b.begin(), top_b.end(),
                        std::back_inserter(common));
  EXPECT_GE(common.size(), 4u);
}

// --- (k, l)-core ----------------------------------------------------------------------

TEST(KlCore, FullHypergraphSurvivesTrivialThresholds) {
  fixture f(nwtest::figure1_hypergraph());
  auto    r = kl_core(f.hyperedges, f.hypernodes, 1, 1);
  EXPECT_EQ(count_alive(r.edge_alive), 4u);
  EXPECT_EQ(count_alive(r.node_alive), 9u);
}

TEST(KlCore, Figure1PeelsToEmptyAtK2L3) {
  // Fig. 1: requiring every node in >= 2 edges and every edge >= 3 nodes
  // unravels everything (v0, v3, v5, v7, v8 have degree 1).
  fixture f(nwtest::figure1_hypergraph());
  auto    r = kl_core(f.hyperedges, f.hypernodes, 2, 3);
  EXPECT_EQ(count_alive(r.edge_alive), 0u);
  EXPECT_EQ(count_alive(r.node_alive), 0u);
  EXPECT_GT(r.rounds, 1u);  // cascading peel, not a single pass
}

TEST(KlCore, DenseCoreSurvivesSparseFringe) {
  // Core: 4 hyperedges over the same 4 nodes (complete-ish); fringe: a
  // chain of degree-1 attachments.
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 4; ++e) {
    for (vertex_id_t v = 0; v < 4; ++v) el.push_back(e, v);
  }
  el.push_back(4, 3);  // fringe edge {v3, v10}
  el.push_back(4, 10);
  fixture f(std::move(el));
  auto    r = kl_core(f.hyperedges, f.hypernodes, 2, 3);
  EXPECT_EQ(count_alive(r.edge_alive), 4u);  // fringe edge peeled (size 2 < 3)
  EXPECT_FALSE(r.edge_alive[4]);
  EXPECT_EQ(count_alive(r.node_alive), 4u);  // v10 peeled
  EXPECT_FALSE(r.node_alive[10]);
  for (vertex_id_t v = 0; v < 4; ++v) EXPECT_TRUE(r.node_alive[v]);
}

TEST(KlCore, MonotoneInKAndL) {
  fixture f(gen::planted_community_hypergraph(60, 150, 20, 1.4, 0.3, 9));
  auto    base = kl_core(f.hyperedges, f.hypernodes, 2, 2);
  auto    harder_k = kl_core(f.hyperedges, f.hypernodes, 3, 2);
  auto    harder_l = kl_core(f.hyperedges, f.hypernodes, 2, 3);
  EXPECT_LE(count_alive(harder_k.node_alive), count_alive(base.node_alive));
  EXPECT_LE(count_alive(harder_k.edge_alive), count_alive(base.edge_alive));
  EXPECT_LE(count_alive(harder_l.node_alive), count_alive(base.node_alive));
  EXPECT_LE(count_alive(harder_l.edge_alive), count_alive(base.edge_alive));
  // Survivors genuinely satisfy the invariant.
  auto check_invariant = [&](const kl_core_result& r, std::size_t k, std::size_t l) {
    for (std::size_t e = 0; e < f.hyperedges.size(); ++e) {
      if (!r.edge_alive[e]) continue;
      std::size_t members = 0;
      for (auto&& ev : f.hyperedges[e]) members += r.node_alive[target(ev)];
      EXPECT_GE(members, l) << "edge " << e;
    }
    for (std::size_t v = 0; v < f.hypernodes.size(); ++v) {
      if (!r.node_alive[v]) continue;
      std::size_t memberships = 0;
      for (auto&& ve : f.hypernodes[v]) memberships += r.edge_alive[target(ve)];
      EXPECT_GE(memberships, k) << "node " << v;
    }
  };
  check_invariant(base, 2, 2);
  check_invariant(harder_k, 3, 2);
  check_invariant(harder_l, 2, 3);
}

TEST(KlCore, MaximalityOnUniformInput) {
  // Every peeled entity must have been below threshold at some point: the
  // survivors form the *maximal* such sub-hypergraph, so re-running on the
  // survivor structure changes nothing.
  auto el = gen::uniform_random_hypergraph(80, 60, 4, 11);
  el.sort_and_unique();
  fixture f(el);
  auto    r = kl_core(f.hyperedges, f.hypernodes, 2, 2);

  // Build the survivor hypergraph and re-peel.
  biedgelist<> survivor(f.hyperedges.size(), f.hypernodes.size());
  for (std::size_t i = 0; i < el.size(); ++i) {
    auto [e, v] = el[i];
    if (r.edge_alive[e] && r.node_alive[v]) survivor.push_back(e, v);
  }
  fixture g(std::move(survivor));  // same declared cardinalities as f
  auto    again = kl_core(g.hyperedges, g.hypernodes, 2, 2);
  EXPECT_EQ(count_alive(again.edge_alive), count_alive(r.edge_alive));
  EXPECT_EQ(count_alive(again.node_alive), count_alive(r.node_alive));
  for (std::size_t e = 0; e < f.hyperedges.size(); ++e) {
    if (r.edge_alive[e]) {
      EXPECT_TRUE(again.edge_alive[e]) << e;
    }
  }
}