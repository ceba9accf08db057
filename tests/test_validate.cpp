// tests/test_validate.cpp — the non-aborting structural validator, plus an
// exhaustive small-graph cross-check of Brandes betweenness against a
// brute-force all-pairs shortest-path counter.
#include <gtest/gtest.h>

#include "nwhy/algorithms/s_betweenness.hpp"
#include "nwhy/validate.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

TEST(Validate, CanonicalInputPasses) {
  auto el = nwtest::figure1_hypergraph();
  el.sort_and_unique();
  auto r = validate(el);
  EXPECT_TRUE(r.canonical());
  EXPECT_EQ(r.empty_hyperedges, 0u);
  EXPECT_EQ(r.isolated_nodes, 0u);
}

TEST(Validate, DetectsUnsorted) {
  biedgelist<> el;
  el.push_back(1, 0);
  el.push_back(0, 0);
  auto r = validate(el);
  EXPECT_FALSE(r.canonical_order);
  EXPECT_TRUE(r.no_duplicates);
  EXPECT_FALSE(r.canonical());
}

TEST(Validate, DetectsDuplicates) {
  biedgelist<> el;
  el.push_back(0, 0);
  el.push_back(0, 0);
  auto r = validate(el);
  EXPECT_FALSE(r.no_duplicates);
  EXPECT_TRUE(r.canonical_order);
}

TEST(Validate, CountsEmptyAndIsolated) {
  biedgelist<> el(5, 6);  // declared larger than used
  el.push_back(0, 0);
  el.push_back(2, 3);
  auto r = validate(el);
  EXPECT_EQ(r.empty_hyperedges, 3u);  // e1, e3, e4
  EXPECT_EQ(r.isolated_nodes, 4u);    // v1, v2, v4, v5
}

TEST(Validate, ReportStringMentionsProblems) {
  biedgelist<> el;
  el.push_back(1, 0);
  el.push_back(0, 0);
  auto s = validate(el).to_string();
  EXPECT_NE(s.find("NOT SORTED"), std::string::npos);
}

// --- exhaustive betweenness cross-check ---------------------------------------------

namespace {

/// Brute-force betweenness: enumerate all shortest paths by BFS-counting
/// from every source, O(n * m) with explicit pair accumulation.
std::vector<double> brute_force_bc(const nw::graph::adjacency<>& g) {
  const std::size_t   n = g.size();
  std::vector<double> bc(n, 0.0);
  for (vertex_id_t s = 0; s < n; ++s) {
    for (vertex_id_t t = 0; t < n; ++t) {
      if (s >= t) continue;
      // Count shortest s-t paths through each vertex via two BFS passes.
      auto ds = nwtest::reference_bfs_distances(g, s);
      auto dt = nwtest::reference_bfs_distances(g, t);
      if (ds[t] == nw::null_vertex<>) continue;
      // sigma counts via DP in distance order from s.
      std::vector<double>      sigma_s(n, 0.0), sigma_t(n, 0.0);
      std::vector<vertex_id_t> order(n);
      for (vertex_id_t v = 0; v < n; ++v) order[v] = v;
      std::sort(order.begin(), order.end(),
                [&](vertex_id_t a, vertex_id_t b) { return ds[a] < ds[b]; });
      sigma_s[s] = 1;
      for (auto v : order) {
        if (ds[v] == nw::null_vertex<> || v == s) continue;
        for (auto&& e : g[v]) {
          vertex_id_t u = nw::graph::target(e);
          if (ds[u] != nw::null_vertex<> && ds[u] + 1 == ds[v]) sigma_s[v] += sigma_s[u];
        }
      }
      std::sort(order.begin(), order.end(),
                [&](vertex_id_t a, vertex_id_t b) { return dt[a] < dt[b]; });
      sigma_t[t] = 1;
      for (auto v : order) {
        if (dt[v] == nw::null_vertex<> || v == t) continue;
        for (auto&& e : g[v]) {
          vertex_id_t u = nw::graph::target(e);
          if (dt[u] != nw::null_vertex<> && dt[u] + 1 == dt[v]) sigma_t[v] += sigma_t[u];
        }
      }
      double total = sigma_s[t];
      for (vertex_id_t v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        if (ds[v] != nw::null_vertex<> && dt[v] != nw::null_vertex<> &&
            ds[v] + dt[v] == ds[t]) {
          bc[v] += sigma_s[v] * sigma_t[v] / total;
        }
      }
    }
  }
  return bc;
}

}  // namespace

class BrandesExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BrandesExhaustive, MatchesBruteForceOnSmallGraphs) {
  auto                   el = nwtest::random_graph(14, 30, GetParam());
  nw::graph::adjacency<> g(el);
  auto brandes = betweenness_batched(g, /*normalized=*/false);
  auto brute   = brute_force_bc(g);
  ASSERT_EQ(brandes.size(), brute.size());
  for (std::size_t v = 0; v < brute.size(); ++v) {
    EXPECT_NEAR(brandes[v], brute[v], 1e-9) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrandesExhaustive,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- differential: planted defect counts (gen::adversarial_hypergraph) --------------
//
// The adversarial generator *plants* exact defect counts; the validator
// must report them number for number.  This is the contract that makes the
// validator differential-testable — a boolean "something is wrong" flag
// could pass these cases while miscounting wildly.

#include "nwhy/gen/generators.hpp"
#include "prop_harness.hpp"

TEST(Validate, AdversarialPlantedDefectCountsReportedExactly) {
  for (auto seed : nwtest::differential_seeds(0x0BAD'0000)) {
    NWHY_SEED_TRACE(seed);
    auto a = gen::adversarial_hypergraph(seed);
    auto r = validate(a.el);
    EXPECT_EQ(r.out_of_bounds, a.out_of_bounds);
    EXPECT_EQ(r.duplicates, a.duplicates);
    EXPECT_EQ(r.empty_hyperedges, a.empty_hyperedges);
    EXPECT_EQ(r.isolated_nodes, a.isolated_nodes);
    EXPECT_EQ(r.ids_in_bounds, a.out_of_bounds == 0);
    EXPECT_FALSE(r.no_duplicates);  // the generator always plants >= 1
    EXPECT_FALSE(r.canonical());
    // The report string carries the counts for human triage.
    auto s = r.to_string();
    EXPECT_NE(s.find("DUPLICATE"), std::string::npos);
    if (a.out_of_bounds > 0) {
      EXPECT_NE(s.find("OUT OF BOUNDS"), std::string::npos);
    }
  }
}

TEST(Validate, AdversarialShapesCanonicalizeCleanWithoutPlantedOob) {
  // Without planted out-of-bounds ids the adversarial list is legal input:
  // sort_and_unique must absorb every planted duplicate, and the empty /
  // isolated counts survive canonicalization untouched (they are declared
  // cardinalities, not incidences).
  for (auto seed : nwtest::differential_seeds(0x0BAD'8000)) {
    NWHY_SEED_TRACE(seed);
    auto a  = gen::adversarial_hypergraph(seed, /*plant_out_of_bounds=*/false);
    auto el = a.el;
    el.sort_and_unique();
    auto r = validate(el);
    EXPECT_TRUE(r.canonical()) << r.to_string();
    EXPECT_EQ(r.duplicates, 0u);
    EXPECT_EQ(r.out_of_bounds, 0u);
    EXPECT_EQ(r.empty_hyperedges, a.empty_hyperedges);
    EXPECT_EQ(r.isolated_nodes, a.isolated_nodes);
  }
}
