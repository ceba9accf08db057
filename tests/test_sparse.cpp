// tests/test_sparse.cpp — the rectangular sparse-matrix substrate and the
// algebraic (SpGEMM) construction route: B·Bᵗ thresholding must agree with
// every combinatorial s-line algorithm, Bᵗ·B with the clique expansion.
#include <gtest/gtest.h>

#include "nwgraph/sparse/csr_matrix.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/slinegraph/spgemm.hpp"
#include "test_util.hpp"

using namespace nw::sparse;
using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::canonical_pairs;

using mat = csr_matrix<std::uint32_t>;

TEST(CsrMatrix, TripletConstructionSortsAndSums) {
  mat m(3, 4,
        {{0, 2, 5}, {0, 1, 1}, {2, 0, 3}, {0, 2, 2}});  // duplicate (0,2) sums to 7
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 4u);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_EQ(m.at(0, 1), 1u);
  EXPECT_EQ(m.at(0, 2), 7u);
  EXPECT_EQ(m.at(2, 0), 3u);
  EXPECT_EQ(m.at(1, 1), 0u);
  auto cols = m.row_columns(0);
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
}

TEST(CsrMatrix, EmptyMatrix) {
  mat m(0, 0, {});
  EXPECT_EQ(m.num_nonzeros(), 0u);
  mat m2(5, 7, {});
  EXPECT_EQ(m2.num_nonzeros(), 0u);
  EXPECT_EQ(m2.at(4, 6), 0u);
}

TEST(CsrMatrix, OutOfBoundsTripletAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(mat(2, 2, {{2, 0, 1}}), "bounds");
}

TEST(CsrMatrix, TransposeIsInvolution) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto b   = mat::from_incidence(el);
  auto bt  = b.transpose();
  auto btt = bt.transpose();
  EXPECT_EQ(bt.num_rows(), b.num_cols());
  EXPECT_EQ(bt.num_cols(), b.num_rows());
  EXPECT_EQ(btt.num_nonzeros(), b.num_nonzeros());
  for (std::size_t r = 0; r < b.num_rows(); ++r) {
    for (auto c : b.row_columns(r)) {
      EXPECT_EQ(bt.at(c, r), b.at(r, c));
      EXPECT_EQ(btt.at(r, c), b.at(r, c));
    }
  }
}

TEST(CsrMatrix, IncidenceMatrixMatchesHypergraph) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto b = mat::from_incidence(el);
  EXPECT_EQ(b.num_rows(), 4u);
  EXPECT_EQ(b.num_cols(), 9u);
  EXPECT_EQ(b.num_nonzeros(), 13u);
  EXPECT_EQ(b.at(0, 1), 1u);  // v1 in e0
  EXPECT_EQ(b.at(0, 5), 0u);  // v5 not in e0
}

TEST(CsrMatrix, SpmvDegreeIdentities) {
  // B · 1 = hyperedge sizes, Bᵗ · 1 = hypernode degrees.
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  NWHypergraph hg(el);
  auto         b  = mat::from_incidence(el);
  auto         bt = b.transpose();
  std::vector<std::uint64_t> ones_v(b.num_cols(), 1), ones_e(b.num_rows(), 1);
  auto sizes   = b.spmv(std::span<const std::uint64_t>(ones_v));
  auto degrees = bt.spmv(std::span<const std::uint64_t>(ones_e));
  for (std::size_t e = 0; e < hg.num_hyperedges(); ++e) {
    EXPECT_EQ(sizes[e], hg.edge_sizes()[e]);
  }
  for (std::size_t v = 0; v < hg.num_hypernodes(); ++v) {
    EXPECT_EQ(degrees[v], hg.node_degrees()[v]);
  }
}

TEST(CsrMatrix, SpmvRejectsDimensionMismatch) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  mat                        m(2, 3, {{0, 0, 1}});
  std::vector<std::uint64_t> wrong(2, 1);
  EXPECT_DEATH(m.spmv(std::span<const std::uint64_t>(wrong)), "dimension");
}

TEST(CsrMatrix, MultiplySmallKnown) {
  // [1 2]   [5 6]   [ 5+14  6+16 ]   [19 22]
  // [3 4] x [7 8] = [ 15+28 18+32] = [43 50]
  mat a(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}});
  mat b(2, 2, {{0, 0, 5}, {0, 1, 6}, {1, 0, 7}, {1, 1, 8}});
  auto c = a.multiply(b);
  EXPECT_EQ(c.at(0, 0), 19u);
  EXPECT_EQ(c.at(0, 1), 22u);
  EXPECT_EQ(c.at(1, 0), 43u);
  EXPECT_EQ(c.at(1, 1), 50u);
}

TEST(CsrMatrix, MultiplyRejectsDimensionMismatch) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  mat a(2, 3, {{0, 0, 1}});
  mat b(2, 2, {{0, 0, 1}});
  EXPECT_DEATH(a.multiply(b), "dimension");
}

TEST(CsrMatrix, BBtDiagonalIsEdgeSizes) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  NWHypergraph hg(el);
  auto         b   = mat::from_incidence(el);
  auto         bbt = b.multiply(b.transpose());
  for (std::size_t e = 0; e < hg.num_hyperedges(); ++e) {
    EXPECT_EQ(bbt.at(e, e), hg.edge_sizes()[e]);
  }
  // Off-diagonals are overlaps: |e0 ∩ e1| = 2.
  EXPECT_EQ(bbt.at(0, 1), 2u);
  EXPECT_EQ(bbt.at(1, 0), 2u);
  EXPECT_EQ(bbt.at(0, 3), 0u);
}

// --- the algebraic construction route ---------------------------------------------

class SpgemmParam : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(SpgemmParam, SpgemmLineGraphMatchesHashmap) {
  auto [seed, s] = GetParam();
  auto el        = gen::powerlaw_hypergraph(60, 45, 15, 1.4, 1.0, seed);
  el.sort_and_unique();
  NWHypergraph hg(el);
  auto algebraic     = canonical_pairs(to_two_graph_spgemm(hg.edge_list(), s));
  auto combinatorial = canonical_pairs(
      to_two_graph_hashmap(hg.hyperedges(), hg.hypernodes(), hg.edge_sizes(), s));
  EXPECT_EQ(algebraic, combinatorial);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndS, SpgemmParam,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(std::size_t{1}, std::size_t{2},
                                                              std::size_t{4})));

TEST(Spgemm, CliqueExpansionMatchesCombinatorial) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  NWHypergraph hg(el);
  auto algebraic = canonical_pairs(clique_expansion_spgemm(hg.edge_list()));
  auto node_deg  = hg.node_degrees();
  auto combi = canonical_pairs(clique_expansion(hg.hypernodes(), hg.hyperedges(), node_deg));
  EXPECT_EQ(algebraic, combi);
  EXPECT_EQ(algebraic.size(), 14u);
}

// --- GraphBLAS-style exact algorithms over the adjoin matrix -------------------------

TEST(GraphBlas, AdjoinMatrixHasBlockStructure) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto b = mat::from_incidence(el);
  auto a = nw::sparse::adjoin_matrix(b);
  EXPECT_EQ(a.num_rows(), 13u);
  EXPECT_EQ(a.num_nonzeros(), 26u);
  // Diagonal blocks are zero: no edge-edge or node-node entries.
  for (std::size_t e = 0; e < 4; ++e) {
    for (auto c : a.row_columns(e)) EXPECT_GE(c, 4u);
  }
  for (std::size_t v = 4; v < 13; ++v) {
    for (auto c : a.row_columns(v)) EXPECT_LT(c, 4u);
  }
  // Symmetry.
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (auto c : a.row_columns(r)) EXPECT_EQ(a.at(c, r), a.at(r, c));
  }
}

class GraphBlasParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphBlasParam, SpmvBfsMatchesAdjacencyBfs) {
  auto el = gen::uniform_random_hypergraph(60, 80, 3, GetParam());
  el.sort_and_unique();
  auto b      = mat::from_incidence(el);
  auto a      = nw::sparse::adjoin_matrix(b);
  auto adjoin = nwtest::adjoin_of(el);
  auto matrix_levels = nw::sparse::bfs_levels_spmv(a, 0);
  auto list_levels   = nwtest::reference_bfs_distances(adjoin, 0);
  EXPECT_EQ(matrix_levels, list_levels);
}

TEST_P(GraphBlasParam, SpmvCcMatchesAdjacencyCc) {
  auto el = gen::planted_community_hypergraph(40, 100, 15, 1.4, 0.2, GetParam());
  el.sort_and_unique();
  auto b      = mat::from_incidence(el);
  auto a      = nw::sparse::adjoin_matrix(b);
  auto adjoin = nwtest::adjoin_of(el);
  EXPECT_TRUE(nwtest::same_partition(nw::sparse::cc_spmv(a),
                                     nwtest::reference_components(adjoin)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphBlasParam, ::testing::Values(1, 2, 3));

TEST(GraphBlas, BfsRejectsRectangular) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  mat b(2, 3, {{0, 0, 1}});
  EXPECT_DEATH(nw::sparse::bfs_levels_spmv(b, 0), "square");
}

TEST(Spgemm, Figure1SLineGraphs) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  using pairs_t = std::vector<std::pair<vertex_id_t, vertex_id_t>>;
  EXPECT_EQ(canonical_pairs(to_two_graph_spgemm(el, 1)),
            (pairs_t{{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_EQ(canonical_pairs(to_two_graph_spgemm(el, 2)), (pairs_t{{0, 1}}));
  EXPECT_TRUE(to_two_graph_spgemm(el, 3).empty());
}
