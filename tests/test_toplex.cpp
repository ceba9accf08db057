// tests/test_toplex.cpp — Algorithm 3 (toplex computation): the parallel
// dominance kernel against the all-pairs `ref::toplexes` oracle and
// against hand-computed cases.
#include <gtest/gtest.h>

#include "nwhy/algorithms/toplex.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwhy/ref/incidence.hpp"
#include "nwhy/ref/serial_toplex.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

std::pair<biadjacency<0>, biadjacency<1>> build(biedgelist<> el) {
  el.sort_and_unique();
  return {biadjacency<0>(el), biadjacency<1>(el)};
}

// The all-pairs oracle on the same edge list.
std::vector<vertex_id_t> oracle(const biedgelist<>& el) {
  return ref::toplexes(ref::from_biedgelist(el));
}

}  // namespace

TEST(Toplex, Figure1AllEdgesAreMaximal) {
  auto [he, hn] = build(nwtest::figure1_hypergraph());
  EXPECT_EQ(toplexes(he, hn), (std::vector<vertex_id_t>{0, 1, 2, 3}));
}

TEST(Toplex, StrictNesting) {
  biedgelist<> el;
  // e0 = {0}, e1 = {0,1}, e2 = {0,1,2}: only e2 is a toplex.
  el.push_back(0, 0);
  el.push_back(1, 0);
  el.push_back(1, 1);
  el.push_back(2, 0);
  el.push_back(2, 1);
  el.push_back(2, 2);
  auto [he, hn] = build(std::move(el));
  EXPECT_EQ(toplexes(he, hn), (std::vector<vertex_id_t>{2}));
}

TEST(Toplex, DuplicateEdgesKeepOneRepresentative) {
  biedgelist<> el;
  for (vertex_id_t v : {0, 1, 2}) {
    el.push_back(0, v);
    el.push_back(1, v);
  }
  el.push_back(2, 5);  // unrelated edge
  auto [he, hn] = build(std::move(el));
  EXPECT_EQ(toplexes(he, hn), (std::vector<vertex_id_t>{0, 2}));
}

TEST(Toplex, PartialOverlapIsNotContainment) {
  biedgelist<> el;
  // e0 = {0,1}, e1 = {1,2}: overlapping but neither contains the other.
  el.push_back(0, 0);
  el.push_back(0, 1);
  el.push_back(1, 1);
  el.push_back(1, 2);
  auto [he, hn] = build(std::move(el));
  EXPECT_EQ(toplexes(he, hn), (std::vector<vertex_id_t>{0, 1}));
}

TEST(Toplex, NestedChainsYieldOneToplexEach) {
  for (std::size_t chains : {1u, 3u, 8u}) {
    auto [he, hn] = build(gen::nested_hypergraph(chains, 5));
    auto t        = toplexes(he, hn);
    EXPECT_EQ(t.size(), chains);
    // The toplex of chain c is its last (largest) hyperedge.
    for (std::size_t c = 0; c < chains; ++c) {
      EXPECT_EQ(t[c], static_cast<vertex_id_t>(c * 5 + 4));
    }
  }
}

TEST(Toplex, SerialReferenceAgreesOnKnownCases) {
  auto [he1, hn1] = build(nwtest::figure1_hypergraph());
  EXPECT_EQ(oracle(nwtest::figure1_hypergraph()), toplexes(he1, hn1));
  auto [he2, hn2] = build(gen::nested_hypergraph(4, 6));
  EXPECT_EQ(oracle(gen::nested_hypergraph(4, 6)), toplexes(he2, hn2));
}

class ToplexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ToplexProperty, ParallelMatchesSerialOnRandomInputs) {
  auto seed = GetParam();
  for (auto el : {gen::uniform_random_hypergraph(60, 30, 4, seed),
                  gen::powerlaw_hypergraph(50, 25, 12, 1.3, 1.0, seed),
                  gen::planted_community_hypergraph(40, 60, 15, 1.5, 0.5, seed)}) {
    auto [he, hn] = build(el);
    EXPECT_EQ(toplexes(he, hn), oracle(el));
  }
}

TEST_P(ToplexProperty, EveryNonToplexIsContainedInAToplex) {
  auto el       = gen::uniform_random_hypergraph(50, 20, 3, GetParam() + 1000);
  auto [he, hn] = build(std::move(el));
  auto t        = toplexes(he, hn);
  std::vector<char> is_toplex(he.size(), 0);
  for (auto e : t) is_toplex[e] = 1;

  auto contains = [&](vertex_id_t big, vertex_id_t small) {
    auto rb = he[big];
    auto rs = he[small];
    return std::includes(rb.begin(), rb.end(), rs.begin(), rs.end());
  };
  for (vertex_id_t e = 0; e < he.size(); ++e) {
    if (is_toplex[e]) continue;
    bool covered = false;
    for (auto f : t) {
      if (contains(f, e)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "non-toplex " << e << " not contained in any toplex";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToplexProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Toplex, EmptyHypergraph) {
  auto [he, hn] = build(biedgelist<>{});
  EXPECT_TRUE(toplexes(he, hn).empty());
}

TEST(Toplex, SingleEdge) {
  biedgelist<> el;
  el.push_back(0, 0);
  auto [he, hn] = build(std::move(el));
  EXPECT_EQ(toplexes(he, hn), (std::vector<vertex_id_t>{0}));
}
