// tests/test_slinegraph_construction.cpp — property tests for the six
// s-line-graph construction algorithms: all variants must produce the same
// edge set, on every representation (bipartite / adjoin), under every
// partitioning strategy, with and without relabel-by-degree.
#include <gtest/gtest.h>

#include <map>

#include "nwgraph/relabel.hpp"
#include "nwhy/adjoin.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwhy/slinegraph/weighted.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::canonical_pairs;

namespace {

struct fixture {
  biedgelist<>             el;
  biadjacency<0>           hyperedges;
  biadjacency<1>           hypernodes;
  std::vector<std::size_t> degrees;

  explicit fixture(biedgelist<> input) {
    input.sort_and_unique();
    el         = std::move(input);
    hyperedges = biadjacency<0>(el);
    hypernodes = biadjacency<1>(el);
    degrees    = hyperedges.degrees();
  }

  std::vector<vertex_id_t> all_ids() const {
    std::vector<vertex_id_t> q(hyperedges.size());
    for (std::size_t i = 0; i < q.size(); ++i) q[i] = static_cast<vertex_id_t>(i);
    return q;
  }
};

using pairs_t = std::vector<std::pair<vertex_id_t, vertex_id_t>>;

/// Ground truth by brute force over unordered hyperedge pairs.
pairs_t brute_force_slinegraph(const fixture& f, std::size_t s) {
  pairs_t result;
  for (std::size_t i = 0; i < f.hyperedges.size(); ++i) {
    for (std::size_t j = i + 1; j < f.hyperedges.size(); ++j) {
      if (intersection_size(f.hyperedges[i], f.hyperedges[j]) >= s) {
        result.push_back({static_cast<vertex_id_t>(i), static_cast<vertex_id_t>(j)});
      }
    }
  }
  return result;
}

}  // namespace

// --- Fig. 1 / Fig. 5 worked example ---------------------------------------------

TEST(SLineGraph, Figure5ExactEdgeSets) {
  fixture f(nwtest::figure1_hypergraph());
  // s = 1: e0-e1 (v1, v2), e1-e2 (v4), e2-e3 (v6).
  auto l1 = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 1));
  EXPECT_EQ(l1, (pairs_t{{0, 1}, {1, 2}, {2, 3}}));
  // s = 2: only e0-e1.
  auto l2 = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 2));
  EXPECT_EQ(l2, (pairs_t{{0, 1}}));
  // s = 3: empty.
  auto l3 = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 3));
  EXPECT_TRUE(l3.empty());
}

// s counts shared members, so s = 0 is a precondition violation at every
// kernel entry point (the hashmap and naive builds would disagree on it:
// 3 pairs against 6 on Figure 1).
TEST(SLineGraph, KernelsRejectZeroS) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  fixture f(nwtest::figure1_hypergraph());
  EXPECT_DEATH(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 0), "s >= 1");
  EXPECT_DEATH(to_two_graph_naive(f.hyperedges, f.hypernodes, f.degrees, 0), "s >= 1");
  EXPECT_DEATH(to_two_graph_weighted(f.hyperedges, f.hypernodes, f.degrees, 0), "s >= 1");
  EXPECT_DEATH(s_connected_components_implicit(f.hyperedges, f.hypernodes, f.degrees, 0),
               "s >= 1");
}

TEST(SLineGraph, CliqueExpansionOfFigure1) {
  fixture f(nwtest::figure1_hypergraph());
  auto    node_degrees = f.hypernodes.degrees();
  auto    ce = canonical_pairs(clique_expansion(f.hypernodes, f.hyperedges, node_degrees));
  // e0 contributes C(3,2)=3, e1 C(4,2)=6, e2 3, e3 3; pair {1,2} shared once.
  EXPECT_EQ(ce.size(), 14u);
  EXPECT_TRUE(std::find(ce.begin(), ce.end(), std::pair<vertex_id_t, vertex_id_t>{1, 2}) !=
              ce.end());
}

// --- all-variant agreement, parameterized over (dataset, s) ----------------------

struct VariantCase {
  const char* name;
  biedgelist<> (*build)();
  std::size_t s;
};

biedgelist<> build_fig1() { return nwtest::figure1_hypergraph(); }
biedgelist<> build_uniform() { return gen::uniform_random_hypergraph(80, 60, 5, 0xBEEF); }
biedgelist<> build_powerlaw() {
  return gen::powerlaw_hypergraph(70, 50, 20, 1.5, 1.0, 0xBEEF);
}
biedgelist<> build_community() {
  return gen::planted_community_hypergraph(50, 120, 25, 1.4, 0.4, 0xBEEF);
}
biedgelist<> build_nested() { return gen::nested_hypergraph(6, 6); }

class SLineVariants : public ::testing::TestWithParam<VariantCase> {};

TEST_P(SLineVariants, AllSixAlgorithmsAgreeWithBruteForce) {
  auto [name, build, s] = GetParam();
  fixture f(build());
  auto    expected = brute_force_slinegraph(f, s);

  auto naive = canonical_pairs(to_two_graph_naive(f.hyperedges, f.hypernodes, f.degrees, s));
  EXPECT_EQ(naive, expected) << "naive";

  auto isect =
      canonical_pairs(to_two_graph_intersection(f.hyperedges, f.hypernodes, f.degrees, s));
  EXPECT_EQ(isect, expected) << "intersection";

  auto hmap = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, s));
  EXPECT_EQ(hmap, expected) << "hashmap";

  auto queue = f.all_ids();
  auto q1    = canonical_pairs(to_two_graph_queue_hashmap(
      queue, f.hyperedges, f.hypernodes, f.degrees, s, f.hyperedges.size()));
  EXPECT_EQ(q1, expected) << "Algorithm 1 (queue hashmap)";

  auto q2 = canonical_pairs(to_two_graph_queue_intersection(
      queue, f.hyperedges, f.hypernodes, f.degrees, s, f.hyperedges.size()));
  EXPECT_EQ(q2, expected) << "Algorithm 2 (queue two-phase)";

  auto ensemble = to_two_graph_ensemble(f.hyperedges, f.hypernodes, f.degrees, {s});
  EXPECT_EQ(canonical_pairs(ensemble[0]), expected) << "ensemble";

  auto nbr_range =
      canonical_pairs(to_two_graph_neighbor_range(f.hyperedges, f.hypernodes, f.degrees, s, 7));
  EXPECT_EQ(nbr_range, expected) << "cyclic_neighbor_range driver";
}

TEST_P(SLineVariants, CyclicPartitioningGivesSameResult) {
  auto [name, build, s] = GetParam();
  fixture f(build());
  auto    blocked = canonical_pairs(
      to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, s, nw::par::blocked{}));
  auto cyc = canonical_pairs(
      to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, s, nw::par::cyclic{13}));
  EXPECT_EQ(blocked, cyc);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndS, SLineVariants,
    ::testing::Values(VariantCase{"fig1_s1", &build_fig1, 1},
                      VariantCase{"fig1_s2", &build_fig1, 2},
                      VariantCase{"uniform_s1", &build_uniform, 1},
                      VariantCase{"uniform_s2", &build_uniform, 2},
                      VariantCase{"uniform_s3", &build_uniform, 3},
                      VariantCase{"powerlaw_s1", &build_powerlaw, 1},
                      VariantCase{"powerlaw_s2", &build_powerlaw, 2},
                      VariantCase{"powerlaw_s4", &build_powerlaw, 4},
                      VariantCase{"community_s1", &build_community, 1},
                      VariantCase{"community_s2", &build_community, 2},
                      VariantCase{"community_s4", &build_community, 4},
                      VariantCase{"nested_s1", &build_nested, 1},
                      VariantCase{"nested_s3", &build_nested, 3}),
    [](const ::testing::TestParamInfo<VariantCase>& info) { return info.param.name; });

// --- ensemble over multiple s values ----------------------------------------------

TEST(SLineGraphEnsemble, MatchesPerSResults) {
  fixture                  f(build_powerlaw());
  std::vector<std::size_t> svals{1, 2, 3, 5, 8};
  auto ensemble = to_two_graph_ensemble(f.hyperedges, f.hypernodes, f.degrees, svals);
  ASSERT_EQ(ensemble.size(), svals.size());
  for (std::size_t k = 0; k < svals.size(); ++k) {
    auto single =
        to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, svals[k]);
    EXPECT_EQ(canonical_pairs(ensemble[k]), canonical_pairs(single)) << "s=" << svals[k];
  }
}

TEST(SLineGraphEnsemble, MonotoneInS) {
  fixture f(build_uniform());
  auto    ensemble = to_two_graph_ensemble(f.hyperedges, f.hypernodes, f.degrees, {1, 2, 4});
  EXPECT_GE(ensemble[0].size(), ensemble[1].size());
  EXPECT_GE(ensemble[1].size(), ensemble[2].size());
}

// --- queue algorithms on the adjoin representation ---------------------------------
//
// The whole point of Algorithms 1 and 2: they run unchanged when hyperedges
// and hypernodes share one index set (where the non-queue algorithms'
// contiguous-[0, nE) assumption breaks).

class AdjoinQueueParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdjoinQueueParam, QueueAlgorithmsWorkOnAdjoinGraph) {
  std::size_t s = GetParam();
  auto        raw = build_community();
  fixture     f(std::move(raw));
  auto        adjoin = nwtest::adjoin_of(f.el);

  // Work queue = the hyperedge ids inside the shared index set ([0, nE)).
  std::vector<vertex_id_t> queue(adjoin.nrealedges());
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i] = static_cast<vertex_id_t>(i);
  // Degrees indexed by shared id; hyperedge part is what the kernel reads.
  std::vector<std::size_t> adjoin_degrees = adjoin.degrees();

  auto expected = brute_force_slinegraph(f, s);

  auto q1 = canonical_pairs(to_two_graph_queue_hashmap(queue, adjoin, adjoin, adjoin_degrees, s,
                                                       adjoin.nrealedges()));
  EXPECT_EQ(q1, expected);

  auto q2 = canonical_pairs(to_two_graph_queue_intersection(
      queue, adjoin, adjoin, adjoin_degrees, s, adjoin.nrealedges()));
  EXPECT_EQ(q2, expected);
}

INSTANTIATE_TEST_SUITE_P(SValues, AdjoinQueueParam, ::testing::Values(1, 2, 3, 5));

// --- queue algorithms on relabeled (permuted) ids -----------------------------------

TEST(SLineGraphRelabel, QueueAlgorithmsHandleDegreePermutedIds) {
  fixture f(build_powerlaw());
  auto    perm = nw::graph::degree_permutation(f.degrees, nw::graph::degree_order::descending);

  // Relabel the hyperedge side only (hypernode ids unchanged).
  biedgelist<> rel_el(f.el.num_vertices(0), f.el.num_vertices(1));
  for (std::size_t i = 0; i < f.el.size(); ++i) {
    auto [e, v] = f.el[i];
    rel_el.push_back(perm[e], v);
  }
  fixture rf(std::move(rel_el));

  std::vector<vertex_id_t> queue(rf.hyperedges.size());
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i] = static_cast<vertex_id_t>(i);

  for (std::size_t s : {1, 2, 3}) {
    auto relabeled = canonical_pairs(to_two_graph_queue_hashmap(
        queue, rf.hyperedges, rf.hypernodes, rf.degrees, s, rf.hyperedges.size()));
    // Map back to original ids and compare with the unpermuted result.
    auto inv = nw::graph::inverse_permutation(perm);
    pairs_t mapped;
    for (auto [a, b] : relabeled) {
      vertex_id_t x = inv[a], y = inv[b];
      if (x > y) std::swap(x, y);
      mapped.push_back({x, y});
    }
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(mapped, brute_force_slinegraph(f, s)) << "s=" << s;
  }
}

// --- degenerate inputs ----------------------------------------------------------------

TEST(SLineGraph, EmptyHypergraph) {
  biedgelist<> el;
  fixture      f(std::move(el));
  auto         result = to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 1);
  EXPECT_TRUE(result.empty());
}

TEST(SLineGraph, SingleHyperedgeHasNoLineEdges) {
  biedgelist<> el;
  for (vertex_id_t v = 0; v < 5; ++v) el.push_back(0, v);
  fixture f(std::move(el));
  EXPECT_TRUE(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 1).empty());
}

TEST(SLineGraph, DuplicateHyperedgesAreSAdjacent) {
  biedgelist<> el;
  for (vertex_id_t v = 0; v < 4; ++v) {
    el.push_back(0, v);
    el.push_back(1, v);
  }
  fixture f(std::move(el));
  auto    l4 = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 4));
  EXPECT_EQ(l4, (pairs_t{{0, 1}}));
  auto l5 = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 5));
  EXPECT_TRUE(l5.empty());
}

TEST(SLineGraph, LargeSFiltersEverythingByDegree) {
  fixture f(build_uniform());
  auto    result = to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 1000);
  EXPECT_TRUE(result.empty());
}

TEST(SLineGraph, IntersectionSizeEarlyExitCapsCount) {
  std::vector<vertex_id_t> a{1, 2, 3, 4, 5};
  std::vector<vertex_id_t> b{1, 2, 3, 4, 5};
  EXPECT_EQ(intersection_size(a, b), 5u);
  EXPECT_EQ(intersection_size(a, b, 2), 2u);
  std::vector<vertex_id_t> c{6, 7};
  EXPECT_EQ(intersection_size(a, c), 0u);
  std::vector<vertex_id_t> empty;
  EXPECT_EQ(intersection_size(a, empty), 0u);
}

TEST(SLineGraph, Listing2CyclicSpellingMatches) {
  fixture f(build_uniform());
  auto    a = canonical_pairs(
      to_two_graph_hashmap_cyclic(f.hyperedges, f.hypernodes, f.degrees, 2, 4, 32));
  auto b = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 2));
  EXPECT_EQ(a, b);
}
