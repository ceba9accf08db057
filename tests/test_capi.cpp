// tests/test_capi.cpp — the C binding surface, driven exactly like the
// paper's Listing 5 Python session.
#include <gtest/gtest.h>

#include <vector>

#include "capi/nwhy_capi.h"

namespace {

/// RAII wrappers so test failures don't leak handles.
struct hg_ptr {
  nwhy_hypergraph* p;
  ~hg_ptr() { nwhy_hypergraph_destroy(p); }
};
struct lg_ptr {
  nwhy_slinegraph* p;
  ~lg_ptr() { nwhy_slinegraph_destroy(p); }
};

}  // namespace

TEST(CApi, Listing5Session) {
  // col = [0,0,0,1,1,1], row = [0,1,2,0,1,2], weight = ones — two identical
  // hyperedges {v0, v1, v2}.
  std::vector<uint32_t> col{0, 0, 0, 1, 1, 1};
  std::vector<uint32_t> row{0, 1, 2, 0, 1, 2};
  std::vector<double>   weight{1, 1, 1, 1, 1, 1};

  hg_ptr hg{nwhy_hypergraph_create(col.data(), row.data(), weight.data(), col.size())};
  ASSERT_NE(hg.p, nullptr);
  EXPECT_EQ(nwhy_num_hyperedges(hg.p), 2u);
  EXPECT_EQ(nwhy_num_hypernodes(hg.p), 3u);
  EXPECT_EQ(nwhy_num_incidences(hg.p), 6u);

  // s2lg = hg.s_linegraph(s=2, edges=True)
  lg_ptr lg{nwhy_s_linegraph(hg.p, 2, 1)};
  ASSERT_NE(lg.p, nullptr);
  EXPECT_EQ(nwhy_slg_num_vertices(lg.p), 2u);
  EXPECT_EQ(nwhy_slg_num_edges(lg.p), 1u);  // |e0 ∩ e1| = 3 >= 2

  // tmp = s2lg.is_s_connected()
  EXPECT_EQ(nwhy_slg_is_s_connected(lg.p), 1);

  // sn = s2lg.s_neighbors(v=0)
  EXPECT_EQ(nwhy_slg_s_degree(lg.p, 0), 1u);
  std::vector<uint32_t> nbrs(nwhy_slg_s_degree(lg.p, 0));
  EXPECT_EQ(nwhy_slg_s_neighbors(lg.p, 0, nbrs.data()), 1u);
  EXPECT_EQ(nbrs[0], 1u);

  // scc = s2lg.s_connected_components()
  std::vector<uint32_t> labels(nwhy_slg_num_vertices(lg.p));
  nwhy_slg_s_connected_components(lg.p, labels.data());
  EXPECT_EQ(labels[0], labels[1]);

  // sdist = s2lg.s_distance(src=0, dest=1)
  EXPECT_EQ(nwhy_slg_s_distance(lg.p, 0, 1), 1u);

  // sp = s2lg.s_path(src=0, dest=1)
  std::vector<uint32_t> path(nwhy_slg_num_vertices(lg.p));
  EXPECT_EQ(nwhy_slg_s_path(lg.p, 0, 1, path.data()), 2u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);

  // sbc / sc / shc / se
  std::vector<double> bc(2), cc(2), hc(2);
  std::vector<uint32_t> ecc(2);
  nwhy_slg_s_betweenness_centrality(lg.p, 1, bc.data());
  nwhy_slg_s_closeness_centrality(lg.p, cc.data());
  nwhy_slg_s_harmonic_closeness_centrality(lg.p, hc.data());
  nwhy_slg_s_eccentricity(lg.p, ecc.data());
  EXPECT_DOUBLE_EQ(bc[0], 0.0);  // 2-vertex graph: nothing between
  EXPECT_DOUBLE_EQ(cc[0], 1.0);
  EXPECT_DOUBLE_EQ(hc[0], 1.0);
  EXPECT_EQ(ecc[0], 1u);
}

TEST(CApi, BatchedAndSampledBetweennessWithStaleSentinels) {
  // Fig. 1: the s=1 line graph is the path e0-e1-e2-e3.
  std::vector<uint32_t> edges{0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  std::vector<uint32_t> nodes{0, 1, 2, 1, 2, 3, 4, 4, 5, 6, 6, 7, 8};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  lg_ptr lg{nwhy_s_linegraph(hg.p, 1, 1)};
  ASSERT_EQ(nwhy_slg_num_vertices(lg.p), 4u);

  std::vector<double> bc(4);
  nwhy_slg_s_betweenness_batched(lg.p, 0, bc.data());
  EXPECT_EQ(bc, (std::vector<double>{0.0, 2.0, 2.0, 0.0}));

  // Sampled with every vertex drawn is the exact raw scores scaled by
  // n / samples = 1 once the clamp kicks in; just pin determinism here.
  std::vector<double> s1(4), s2(4);
  nwhy_slg_s_betweenness_sampled(lg.p, 3, 7, s1.data());
  nwhy_slg_s_betweenness_sampled(lg.p, 3, 7, s2.data());
  EXPECT_EQ(s1, s2);

  // Mutating the source hypergraph stales the handle: sentinel fills.
  uint32_t members[] = {0, 8};
  ASSERT_EQ(nwhy_insert_edge(hg.p, 4, members, 2), 0);
  nwhy_slg_s_betweenness_batched(lg.p, 1, bc.data());
  EXPECT_EQ(bc, std::vector<double>(4, 0.0));
  nwhy_slg_s_betweenness_sampled(lg.p, 3, 7, s1.data());
  EXPECT_EQ(s1, std::vector<double>(4, 0.0));
}

TEST(CApi, MotifCounts) {
  // Fig. 1 census: 4 wedges, 2 closed (e0/e1 share {1, 2}), 1 butterfly.
  std::vector<uint32_t> edges{0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  std::vector<uint32_t> nodes{0, 1, 2, 1, 2, 3, 4, 4, 5, 6, 6, 7, 8};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  uint64_t wedges = 0, triads = 0, open = 0, butterflies = 0;
  ASSERT_EQ(nwhy_motif_counts(hg.p, &wedges, &triads, &open, &butterflies), 0);
  EXPECT_EQ(wedges, 4u);
  EXPECT_EQ(triads, 2u);
  EXPECT_EQ(open, 2u);
  EXPECT_EQ(butterflies, 1u);
  // NULL outputs are count-only holes; NULL hypergraph is rejected.
  EXPECT_EQ(nwhy_motif_counts(hg.p, nullptr, nullptr, nullptr, nullptr), 0);
  EXPECT_EQ(nwhy_motif_counts(nullptr, &wedges, nullptr, nullptr, nullptr), -1);
}

TEST(CApi, EdgeSizesAndNodeDegrees) {
  std::vector<uint32_t> edges{0, 0, 0, 1, 1};
  std::vector<uint32_t> nodes{0, 1, 2, 2, 3};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  std::vector<size_t> es(nwhy_num_hyperedges(hg.p)), nd(nwhy_num_hypernodes(hg.p));
  nwhy_edge_sizes(hg.p, es.data());
  nwhy_node_degrees(hg.p, nd.data());
  EXPECT_EQ(es, (std::vector<size_t>{3, 2}));
  EXPECT_EQ(nd, (std::vector<size_t>{1, 1, 2, 1}));
}

TEST(CApi, ToplexesTwoPhaseQuery) {
  // e0 ⊂ e1; only e1 is a toplex.
  std::vector<uint32_t> edges{0, 1, 1};
  std::vector<uint32_t> nodes{0, 0, 1};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  size_t count = nwhy_toplexes(hg.p, nullptr);
  ASSERT_EQ(count, 1u);
  std::vector<uint32_t> out(count);
  nwhy_toplexes(hg.p, out.data());
  EXPECT_EQ(out[0], 1u);
}

TEST(CApi, NullInputsRejected) {
  EXPECT_EQ(nwhy_hypergraph_create(nullptr, nullptr, nullptr, 5), nullptr);
  // Zero-length input is a valid empty hypergraph.
  hg_ptr hg{nwhy_hypergraph_create(nullptr, nullptr, nullptr, 0)};
  ASSERT_NE(hg.p, nullptr);
  EXPECT_EQ(nwhy_num_hyperedges(hg.p), 0u);
  // No line graph of a missing hypergraph, and none for s = 0.
  EXPECT_EQ(nwhy_s_linegraph(nullptr, 1, 1), nullptr);
  EXPECT_EQ(nwhy_s_linegraph(hg.p, 0, 1), nullptr);
  EXPECT_EQ(nwhy_s_linegraph(hg.p, 0, 0), nullptr);
}

TEST(CApi, DualDirectionSCliqueGraph) {
  // edges=false: s-clique graph over hypernodes.
  std::vector<uint32_t> edges{0, 0, 0};
  std::vector<uint32_t> nodes{0, 1, 2};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  lg_ptr cg{nwhy_s_linegraph(hg.p, 1, 0)};
  EXPECT_EQ(nwhy_slg_num_vertices(cg.p), 3u);
  EXPECT_EQ(nwhy_slg_num_edges(cg.p), 3u);  // triangle among v0, v1, v2
}

TEST(CApi, OutOfRangeIdsMapToSentinelsNotExceptions) {
  // The C++ point queries now throw std::out_of_range; the C ABI must keep
  // its sentinel contract (0 / NWHY_NULL_ID) — no exception may cross the
  // language boundary.
  std::vector<uint32_t> edges{0, 0, 1, 1};
  std::vector<uint32_t> nodes{0, 1, 1, 2};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  lg_ptr lg{nwhy_s_linegraph(hg.p, 1, 1)};
  uint32_t bad = static_cast<uint32_t>(nwhy_slg_num_vertices(lg.p));
  EXPECT_EQ(nwhy_slg_s_degree(lg.p, bad), 0u);
  EXPECT_EQ(nwhy_slg_s_neighbors(lg.p, bad, nullptr), 0u);
  EXPECT_EQ(nwhy_slg_s_distance(lg.p, bad, 0), NWHY_NULL_ID);
  EXPECT_EQ(nwhy_slg_s_distance(lg.p, 0, bad), NWHY_NULL_ID);
  EXPECT_EQ(nwhy_slg_s_path(lg.p, bad, 0, nullptr), 0u);
  EXPECT_EQ(nwhy_slg_s_path(lg.p, 0, bad, nullptr), 0u);
  // Valid queries keep working on the same handle afterwards.
  EXPECT_EQ(nwhy_slg_s_distance(lg.p, 0, 1), 1u);
}

TEST(CApi, EmptyHypergraphLineGraphAnswersWithSentinels) {
  // A zero-size hypergraph is valid; every query on it (and on its s-line
  // graph) must answer with the documented sentinels, never crash or throw.
  hg_ptr hg{nwhy_hypergraph_create(nullptr, nullptr, nullptr, 0)};
  ASSERT_NE(hg.p, nullptr);
  EXPECT_EQ(nwhy_num_hyperedges(hg.p), 0u);
  EXPECT_EQ(nwhy_num_hypernodes(hg.p), 0u);
  EXPECT_EQ(nwhy_num_incidences(hg.p), 0u);
  EXPECT_EQ(nwhy_toplexes(hg.p, nullptr), 0u);

  lg_ptr lg{nwhy_s_linegraph(hg.p, 1, 1)};
  ASSERT_NE(lg.p, nullptr);
  EXPECT_EQ(nwhy_slg_num_vertices(lg.p), 0u);
  EXPECT_EQ(nwhy_slg_num_edges(lg.p), 0u);
  EXPECT_EQ(nwhy_slg_is_s_connected(lg.p), 0);  // no active entity
  // Every id is out of range on an empty line graph: sentinels, not traps.
  EXPECT_EQ(nwhy_slg_s_degree(lg.p, 0), 0u);
  EXPECT_EQ(nwhy_slg_s_neighbors(lg.p, 0, nullptr), 0u);
  EXPECT_EQ(nwhy_slg_s_distance(lg.p, 0, 0), NWHY_NULL_ID);
  EXPECT_EQ(nwhy_slg_s_path(lg.p, 0, 0, nullptr), 0u);
}

TEST(CApi, OversizedSLeavesEveryEntityInactive) {
  // s far above the largest overlap: the line graph is edgeless and every
  // hyperedge is inactive — components report NWHY_NULL_ID across the board
  // and the graph is not s-connected.
  std::vector<uint32_t> edges{0, 0, 1, 1};
  std::vector<uint32_t> nodes{0, 1, 1, 2};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  lg_ptr lg{nwhy_s_linegraph(hg.p, 99, 1)};
  ASSERT_NE(lg.p, nullptr);
  EXPECT_EQ(nwhy_slg_num_edges(lg.p), 0u);
  EXPECT_EQ(nwhy_slg_is_s_connected(lg.p), 0);
  std::vector<uint32_t> labels(nwhy_slg_num_vertices(lg.p), 0);
  nwhy_slg_s_connected_components(lg.p, labels.data());
  for (auto l : labels) EXPECT_EQ(l, NWHY_NULL_ID);
}

TEST(CApi, CountOnlyQueriesAcceptNullOutputBuffers) {
  // Two-phase query protocol: a NULL out pointer means "count only" — the
  // implementation must not write through it.
  std::vector<uint32_t> edges{0, 0, 0, 1, 2};
  std::vector<uint32_t> nodes{0, 1, 2, 1, 2};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  size_t count = nwhy_toplexes(hg.p, nullptr);
  EXPECT_GE(count, 1u);
  lg_ptr lg{nwhy_s_linegraph(hg.p, 1, 1)};
  EXPECT_EQ(nwhy_slg_s_neighbors(lg.p, 0, nullptr), nwhy_slg_s_degree(lg.p, 0));
  EXPECT_EQ(nwhy_slg_s_path(lg.p, 0, 1, nullptr), 2u);  // e0 — e1 share v1
}

TEST(CApi, RelabelByDegreeIsInvisibleToQueries) {
  // Skewed degrees so the relabel actually permutes: e0 tiny, e2 huge.
  std::vector<uint32_t> edges{0, 1, 1, 2, 2, 2, 2};
  std::vector<uint32_t> nodes{0, 0, 1, 0, 1, 2, 3};
  hg_ptr hg{nwhy_hypergraph_create(edges.data(), nodes.data(), nullptr, edges.size())};
  ASSERT_NE(hg.p, nullptr);
  EXPECT_EQ(nwhy_is_relabeled(hg.p), 0);

  std::vector<size_t> sizes_before(nwhy_num_hyperedges(hg.p));
  nwhy_edge_sizes(hg.p, sizes_before.data());
  size_t                toplex_count = nwhy_toplexes(hg.p, nullptr);
  std::vector<uint32_t> toplexes_before(toplex_count);
  nwhy_toplexes(hg.p, toplexes_before.data());

  ASSERT_EQ(nwhy_relabel_by_degree(hg.p), 0);
  EXPECT_EQ(nwhy_is_relabeled(hg.p), 1);

  // Every query must still speak original external ids.
  std::vector<size_t> sizes_after(nwhy_num_hyperedges(hg.p));
  nwhy_edge_sizes(hg.p, sizes_after.data());
  EXPECT_EQ(sizes_before, sizes_after);
  std::vector<uint32_t> toplexes_after(nwhy_toplexes(hg.p, nullptr));
  ASSERT_EQ(toplexes_after.size(), toplexes_before.size());
  nwhy_toplexes(hg.p, toplexes_after.data());
  EXPECT_EQ(toplexes_before, toplexes_after);
  std::vector<uint32_t> members(sizes_after[2]);
  ASSERT_EQ(nwhy_edge_members(hg.p, 2, members.data()), 4u);
  EXPECT_EQ(members, (std::vector<uint32_t>{0, 1, 2, 3}));

  // Mutation drops the relabel layer automatically...
  ASSERT_EQ(nwhy_insert_edge(hg.p, 3, nodes.data(), 2), 0);
  EXPECT_EQ(nwhy_is_relabeled(hg.p), 0);
  // ...and a pending delta blocks a fresh relabel until compaction.
  if (nwhy_delta_size(hg.p) > 0) {
    EXPECT_EQ(nwhy_relabel_by_degree(hg.p), -1);
  }
  ASSERT_EQ(nwhy_compact(hg.p), 0);
  EXPECT_EQ(nwhy_relabel_by_degree(hg.p), 0);
  EXPECT_EQ(nwhy_is_relabeled(hg.p), 1);
}

TEST(CApi, RelabelNullHandleRejected) {
  EXPECT_EQ(nwhy_relabel_by_degree(nullptr), -1);
  EXPECT_EQ(nwhy_is_relabeled(nullptr), 0);
}
