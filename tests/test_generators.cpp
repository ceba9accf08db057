// tests/test_generators.cpp — the synthetic dataset generators and the
// Table-I analog suite: determinism, and the distributional shape claims
// DESIGN.md's substitutions rest on.
#include <gtest/gtest.h>

#include "nwhy/algorithms/adjoin_algorithms.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwhy/gen/dataset_suite.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwutil/stats.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

struct shape {
  std::size_t ne, nv;
  nw::degree_stats edge_stats, node_stats;
  std::size_t      components;

  explicit shape(biedgelist<> el) {
    el.sort_and_unique();
    biadjacency<0> he(el);
    biadjacency<1> hn(el);
    ne              = he.size();
    nv              = hn.size();
    auto ed         = he.degrees();
    auto nd         = hn.degrees();
    edge_stats      = nw::compute_degree_stats(std::span<const std::size_t>(ed));
    node_stats      = nw::compute_degree_stats(std::span<const std::size_t>(nd));
    auto labels     = nw::graph::cc_afforest(nwtest::adjoin_of(el));
    components      = nw::graph::count_components(labels);
  }
};

}  // namespace

TEST(Generators, UniformIsDeterministicPerSeed) {
  auto a = gen::uniform_random_hypergraph(100, 100, 5, 42);
  auto b = gen::uniform_random_hypergraph(100, 100, 5, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  auto c = gen::uniform_random_hypergraph(100, 100, 5, 43);
  bool identical = a.size() == c.size();
  if (identical) {
    identical = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != c[i]) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Generators, UniformHasNarrowDegreeSpread) {
  shape s(gen::uniform_random_hypergraph(2000, 2000, 10, 7));
  // Every hyperedge has <= 10 members (duplicates collapse), mean near 10.
  EXPECT_LE(s.edge_stats.max, 10u);
  EXPECT_GT(s.edge_stats.mean, 9.0);
  // Uniform node degrees: max is a small multiple of the mean, unlike the
  // skewed generators below.
  EXPECT_LT(static_cast<double>(s.node_stats.max), 5.0 * s.node_stats.mean);
}

TEST(Generators, UniformDenseEnoughFormsGiantComponent) {
  shape s(gen::uniform_random_hypergraph(3000, 3000, 10, 11));
  // The Rand1 claim: essentially one connected component.
  EXPECT_LE(s.components, 1u + s.nv / 100);
}

TEST(Generators, PowerlawIsSkewed) {
  shape s(gen::powerlaw_hypergraph(3000, 2000, 200, 1.6, 1.0, 13));
  // Hub hypernodes join far more hyperedges than the average.
  EXPECT_GT(static_cast<double>(s.node_stats.max), 20.0 * s.node_stats.mean);
  // Hyperedge sizes are also skewed.
  EXPECT_GT(static_cast<double>(s.edge_stats.max), 5.0 * s.edge_stats.mean);
}

TEST(Generators, PowerlawRespectsBounds) {
  auto el = gen::powerlaw_hypergraph(500, 300, 50, 1.5, 1.0, 17);
  for (std::size_t i = 0; i < el.size(); ++i) {
    auto [e, v] = el[i];
    EXPECT_LT(e, 500u);
    EXPECT_LT(v, 300u);
  }
}

TEST(Generators, PlantedCommunitiesHaveManyComponents) {
  shape s(gen::planted_community_hypergraph(800, 4000, 30, 1.5, 0.05, 19));
  // Low overlap => the structure stays fragmented (the Orkut-group/Web
  // property the paper's BFS discussion leans on).
  EXPECT_GT(s.components, 20u);
}

TEST(Generators, NestedChainsAreExactlyNested) {
  auto el = gen::nested_hypergraph(3, 4);
  el.sort_and_unique();
  biadjacency<0> he(el);
  EXPECT_EQ(he.size(), 12u);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(he.degree(c * 4 + d), d + 1);
    }
  }
}

TEST(Generators, StarHasOneGiantEdge) {
  auto el = gen::star_hypergraph(500, 20, 23);
  el.sort_and_unique();
  biadjacency<0> he(el);
  EXPECT_EQ(he.degree(0), 500u);
  for (std::size_t e = 1; e < he.size(); ++e) EXPECT_LE(he.degree(e), 2u);
}

// --- Table-I analog suite -----------------------------------------------------------

TEST(DatasetSuite, HasSixDatasetsInPaperOrder) {
  auto suite = gen::dataset_suite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].name, "com-Orkut-sim");
  EXPECT_EQ(suite[5].name, "Rand1-sim");
  EXPECT_EQ(suite[4].type, "Web");
}

TEST(DatasetSuite, AllBuildersProduceNonTrivialHypergraphs) {
  for (const auto& spec : gen::dataset_suite()) {
    auto el = spec.build(/*scale=*/1);
    EXPECT_GT(el.size(), 1000u) << spec.name;
    EXPECT_GT(el.num_vertices(0), 100u) << spec.name;
    EXPECT_GT(el.num_vertices(1), 100u) << spec.name;
  }
}

TEST(DatasetSuite, SocialAndWebAnalogsAreSkewedRand1IsNot) {
  // The Table-I caption: "All the real-world hypergraphs have a skewed
  // hyperedge degree distribution."  Check the suite reproduces skew where
  // the paper has it and uniformity for Rand1.
  auto suite = gen::dataset_suite();
  auto skew  = [](const gen::dataset_spec& spec) {
    shape s(spec.build(1));
    return static_cast<double>(s.node_stats.max) / std::max(1.0, s.node_stats.mean);
  };
  EXPECT_GT(skew(suite[0]), 10.0) << "com-Orkut-sim";
  EXPECT_GT(skew(suite[4]), 10.0) << "Web-sim";
  EXPECT_LT(skew(suite[5]), 5.0) << "Rand1-sim must stay uniform";
}

TEST(DatasetSuite, Rand1HasGiantComponentCommunityAnalogsDoNot) {
  auto suite = gen::dataset_suite();
  shape rand1(suite[5].build(1));
  EXPECT_LE(rand1.components, rand1.nv / 50 + 1);
  shape orkut_group(suite[2].build(1));
  EXPECT_GT(orkut_group.components, 10u);
}
