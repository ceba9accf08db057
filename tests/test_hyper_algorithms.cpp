// tests/test_hyper_algorithms.cpp — the exact hypergraph algorithms:
// HyperBFS (3 engines), HyperCC, AdjoinBFS, AdjoinCC (2 engines), and the
// Hygra baseline; all cross-checked against each other and against serial
// references on the adjoin graph.
#include <gtest/gtest.h>

#include <atomic>

#include "hygra/algorithms.hpp"
#include "nwhy/algorithms/adjoin_algorithms.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/gen/generators.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::same_partition;

namespace {

struct hypergraph_fixture {
  std::shared_ptr<const hypergraph_generation> gen;
  const biedgelist<>&                          el;
  const biadjacency<0>&                        hyperedges;
  const biadjacency<1>&                        hypernodes;
  adjoin_graph                                 adjoin;

  explicit hypergraph_fixture(biedgelist<> input)
      : gen(make_generation((input.sort_and_unique(), std::move(input)))),
        el(gen->el),
        hyperedges(gen->hyperedges),
        hypernodes(gen->hypernodes),
        adjoin(gen) {}
};

/// Reference distances on the adjoin graph from hyperedge `src`: even depths
/// are hyperedges, odd depths hypernodes.
std::pair<std::vector<vertex_id_t>, std::vector<vertex_id_t>> reference_hyper_distances(
    const hypergraph_fixture& h, vertex_id_t src) {
  auto dist = nwtest::reference_bfs_distances(h.adjoin, src);
  auto [de, dn] = split_results(dist, h.adjoin.nrealedges());
  return {de, dn};
}

biedgelist<> medium_random_hypergraph(std::uint64_t seed) {
  return gen::uniform_random_hypergraph(120, 150, 4, seed);
}

biedgelist<> sparse_random_hypergraph(std::uint64_t seed) {
  // Very sparse: guaranteed multiple connected components.
  return gen::uniform_random_hypergraph(60, 400, 2, seed);
}

}  // namespace

// --- HyperBFS engines --------------------------------------------------------

class HyperBfsParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HyperBfsParam, TopDownMatchesAdjoinReference) {
  hypergraph_fixture h(medium_random_hypergraph(GetParam()));
  nw::obs::registry::get().reset();
  auto r        = hyper_bfs(h.hyperedges, h.hypernodes, 0, nwtest::top_down_alpha);
  auto [de, dn] = reference_hyper_distances(h, 0);
  EXPECT_EQ(r.dist_edge, de);
  EXPECT_EQ(r.dist_node, dn);
  EXPECT_EQ(nwtest::direction_steps("hyper_bfs").second, 0u);
}

TEST_P(HyperBfsParam, BottomUpMatchesAdjoinReference) {
  hypergraph_fixture h(medium_random_hypergraph(GetParam()));
  nw::obs::registry::get().reset();
  auto r = hyper_bfs(h.hyperedges, h.hypernodes, 0, nwtest::bottom_up_alpha,
                     nwtest::bottom_up_beta);
  auto [de, dn] = reference_hyper_distances(h, 0);
  EXPECT_EQ(r.dist_edge, de);
  EXPECT_EQ(r.dist_node, dn);
  EXPECT_EQ(nwtest::direction_steps("hyper_bfs").first, 0u);
}

TEST_P(HyperBfsParam, DirectionOptimizingMatchesAdjoinReference) {
  hypergraph_fixture h(medium_random_hypergraph(GetParam()));
  auto               r = hyper_bfs(h.hyperedges, h.hypernodes, 0);
  auto [de, dn]        = reference_hyper_distances(h, 0);
  EXPECT_EQ(r.dist_edge, de);
  EXPECT_EQ(r.dist_node, dn);
}

TEST_P(HyperBfsParam, SparseInputsLeaveUnreachedEntities) {
  hypergraph_fixture h(sparse_random_hypergraph(GetParam()));
  auto               r = hyper_bfs(h.hyperedges, h.hypernodes, 0);
  auto [de, dn]        = reference_hyper_distances(h, 0);
  EXPECT_EQ(r.dist_edge, de);
  EXPECT_EQ(r.dist_node, dn);
  // Sanity: the generator left some hypernode out of e0's component.
  EXPECT_NE(std::count(de.begin(), de.end(), nw::null_vertex<>), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyperBfsParam, ::testing::Values(1, 2, 3, 4, 5));

TEST(HyperBfs, Figure1Depths) {
  hypergraph_fixture h(nwtest::figure1_hypergraph());
  auto               r = hyper_bfs(h.hyperedges, h.hypernodes, 0);
  EXPECT_EQ(r.dist_edge, (std::vector<vertex_id_t>{0, 2, 4, 6}));
  // v0..v8 depths: members of e0 at 1; v3, v4 at 3; v5, v6 at 5; v7, v8 at 7.
  EXPECT_EQ(r.dist_node, (std::vector<vertex_id_t>{1, 1, 1, 3, 3, 5, 5, 7, 7}));
}

TEST(HyperBfs, ParentsFormValidForest) {
  hypergraph_fixture h(medium_random_hypergraph(42));
  auto               r = hyper_bfs(h.hyperedges, h.hypernodes, 0);
  EXPECT_EQ(r.parents_edge[0], 0u);
  for (std::size_t v = 0; v < r.parents_node.size(); ++v) {
    if (r.parents_node[v] == nw::null_vertex<>) continue;
    // A hypernode's parent is a hyperedge one level up that contains it.
    vertex_id_t pe = r.parents_node[v];
    EXPECT_EQ(r.dist_edge[pe] + 1, r.dist_node[v]);
    auto nbrs = h.hypernodes[v];
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), pe), nbrs.end());
  }
  for (std::size_t e = 1; e < r.parents_edge.size(); ++e) {
    if (r.parents_edge[e] == nw::null_vertex<>) continue;
    vertex_id_t pv = r.parents_edge[e];
    EXPECT_EQ(r.dist_node[pv] + 1, r.dist_edge[e]);
    auto nbrs = h.hyperedges[e];
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), pv), nbrs.end());
  }
}

// --- AdjoinBFS ----------------------------------------------------------------

class AdjoinBfsParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjoinBfsParam, DistancesMatchReference) {
  hypergraph_fixture h(medium_random_hypergraph(GetParam() + 100));
  auto [de, dn] = adjoin_bfs_distances(h.adjoin, 0);
  auto [re, rn] = reference_hyper_distances(h, 0);
  EXPECT_EQ(de, re);
  EXPECT_EQ(dn, rn);
}

TEST_P(AdjoinBfsParam, ReachesSameSetAsHyperBfs) {
  hypergraph_fixture h(sparse_random_hypergraph(GetParam() + 200));
  auto               a = adjoin_bfs(h.adjoin, 0);
  auto               b = hyper_bfs(h.hyperedges, h.hypernodes, 0);
  for (std::size_t e = 0; e < a.parents_edge.size(); ++e) {
    EXPECT_EQ(a.parents_edge[e] == nw::null_vertex<>, b.parents_edge[e] == nw::null_vertex<>);
  }
  for (std::size_t v = 0; v < a.parents_node.size(); ++v) {
    EXPECT_EQ(a.parents_node[v] == nw::null_vertex<>, b.parents_node[v] == nw::null_vertex<>);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjoinBfsParam, ::testing::Values(1, 2, 3));

TEST(AdjoinBfs, RejectsHypernodeSource) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  hypergraph_fixture h(nwtest::figure1_hypergraph());
  EXPECT_DEATH(adjoin_bfs(h.adjoin, 4), "hyperedge id");
}

// --- HyperCC / AdjoinCC / HygraCC ----------------------------------------------

class CcEquivalenceParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CcEquivalenceParam, AllEnginesInduceSamePartition) {
  hypergraph_fixture h(sparse_random_hypergraph(GetParam() + 300));

  auto hyper = hyper_cc(h.adjoin);
  auto aff   = adjoin_cc(h.adjoin);
  auto hygra = nw::hygra::hygra_cc(h.hyperedges, h.hypernodes);

  // Label propagation and Afforest both root a component at its minimum
  // shared id: the raw labels agree, not only the partitions.
  EXPECT_EQ(hyper.labels_edge, aff.labels_edge);
  EXPECT_EQ(hyper.labels_node, aff.labels_node);

  // Compare as one combined partition over [edges ++ nodes].
  auto combine = [](const std::vector<vertex_id_t>& e, const std::vector<vertex_id_t>& n) {
    std::vector<vertex_id_t> all(e);
    all.insert(all.end(), n.begin(), n.end());
    return all;
  };
  auto ref = nwtest::reference_components(h.adjoin);
  EXPECT_TRUE(same_partition(combine(hyper.labels_edge, hyper.labels_node), ref));
  EXPECT_TRUE(same_partition(combine(aff.labels_edge, aff.labels_node), ref));
  EXPECT_TRUE(same_partition(combine(hygra.labels_edge, hygra.labels_node), ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcEquivalenceParam, ::testing::Values(7, 17, 27, 37));

TEST(HyperCc, Figure1IsOneComponent) {
  hypergraph_fixture h(nwtest::figure1_hypergraph());
  auto               r = hyper_cc(h.adjoin);
  for (auto l : r.labels_edge) EXPECT_EQ(l, r.labels_edge[0]);
  for (auto l : r.labels_node) EXPECT_EQ(l, r.labels_edge[0]);
}

TEST(HyperCc, DisjointEdgesStaySeparate) {
  biedgelist<> el;
  el.push_back(0, 0);
  el.push_back(0, 1);
  el.push_back(1, 2);
  el.push_back(1, 3);
  hypergraph_fixture h(std::move(el));
  auto               r = hyper_cc(h.adjoin);
  EXPECT_NE(r.labels_edge[0], r.labels_edge[1]);
  EXPECT_EQ(r.labels_node[0], r.labels_node[1]);
  EXPECT_EQ(r.labels_node[2], r.labels_node[3]);
  EXPECT_NE(r.labels_node[0], r.labels_node[2]);
}

TEST(HyperCc, IsolatedHypernodeKeepsOwnLabel) {
  biedgelist<> el(1, 3);  // v2 is isolated
  el.push_back(0, 0);
  el.push_back(0, 1);
  hypergraph_fixture h(std::move(el));
  auto               r = hyper_cc(h.adjoin);
  EXPECT_EQ(r.labels_node[0], r.labels_node[1]);
  EXPECT_NE(r.labels_node[2], r.labels_node[0]);
}

// --- Hygra baseline -------------------------------------------------------------

class HygraParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HygraParam, BfsReachesSameSetAsHyperBfs) {
  hypergraph_fixture h(sparse_random_hypergraph(GetParam() + 400));
  auto               a = nw::hygra::hygra_bfs(h.hyperedges, h.hypernodes, 0);
  auto               b = hyper_bfs(h.hyperedges, h.hypernodes, 0, nwtest::top_down_alpha);
  for (std::size_t e = 0; e < a.parents_edge.size(); ++e) {
    EXPECT_EQ(a.parents_edge[e] == nw::null_vertex<>, b.parents_edge[e] == nw::null_vertex<>);
  }
  for (std::size_t v = 0; v < a.parents_node.size(); ++v) {
    EXPECT_EQ(a.parents_node[v] == nw::null_vertex<>, b.parents_node[v] == nw::null_vertex<>);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HygraParam, ::testing::Values(1, 2, 3));

TEST(Hygra, VertexSubsetBasics) {
  nw::hygra::vertex_subset empty;
  EXPECT_TRUE(empty.empty());
  nw::hygra::vertex_subset single(5u);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.ids()[0], 5u);
}

TEST(Hygra, VertexMapVisitsAllMembers) {
  nw::hygra::vertex_subset subset(std::vector<vertex_id_t>{2, 5, 9});
  std::vector<std::atomic<int>> hits(10);
  nw::hygra::vertex_map(subset, [&](vertex_id_t v) { hits[v].fetch_add(1); });
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_EQ(hits[v].load(), (v == 2 || v == 5 || v == 9) ? 1 : 0);
  }
}

TEST(Hygra, EdgeMapOnEmptyFrontierIsEmpty) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0>           hyperedges(el);
  nw::hygra::vertex_subset empty;
  auto out = nw::hygra::edge_map(
      hyperedges, empty, [](vertex_id_t, vertex_id_t) { return true; },
      [](vertex_id_t) { return true; });
  EXPECT_TRUE(out.empty());
}

TEST(Hygra, EdgeMapAppliesCondAndUpdate) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  nw::hygra::vertex_subset frontier(0u);  // e0 = {v0, v1, v2}
  std::vector<int>         touched(9, 0);
  auto out = nw::hygra::edge_map(
      hyperedges, frontier,
      [&](vertex_id_t, vertex_id_t v) {
        touched[v] = 1;
        return v != 1;  // drop v1 from the output subset
      },
      [](vertex_id_t v) { return v != 2; });  // never visit v2
  EXPECT_EQ(touched[0], 1);
  EXPECT_EQ(touched[1], 1);
  EXPECT_EQ(touched[2], 0);
  std::vector<vertex_id_t> ids(out.begin(), out.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<vertex_id_t>{0}));
}
