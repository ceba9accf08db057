// tests/test_motif.cpp — the parallel wedge/triad/butterfly census
// (nwhy/algorithms/motif.hpp) against the definitional serial oracle
// (nwhy/ref/serial_motif.hpp) and the planted closed forms.  All counters
// are integers, so every comparison is exact at every thread count.
// Replay a failing seed with `NWHY_TEST_SEED=<n> ./tests/test_motif`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nwhy/nwhypergraph.hpp"
#include "nwhy/ref/ref.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
namespace ref = nw::hypergraph::ref;

namespace {

/// Field-by-field comparison across the engine/oracle struct types.
void expect_census_eq(const motif_census& got, const ref::motif_census& want) {
  EXPECT_EQ(got.wedges, want.wedges) << "wedges";
  EXPECT_EQ(got.triads, want.triads) << "triads";
  EXPECT_EQ(got.open_wedges, want.open_wedges) << "open wedges";
  EXPECT_EQ(got.butterflies, want.butterflies) << "butterflies";
}

}  // namespace

// --- differential: engine vs serial oracle across the ladder -----------------------

TEST(Motif, CensusMatchesSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x307F'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc = ref::from_biedgelist(hg.edge_list());
      expect_census_eq(hg.motifs(), ref::motif_counts(inc));
    }
  }
}

TEST(Motif, CensusIsInvariantUnderStorageRelabeling) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x3080'0000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    auto         before = hg.motifs();
    hg.relabel_by_degree();
    EXPECT_EQ(hg.motifs(), before);
  }
}

TEST(Motif, CensusThroughPendingDeltaMatchesCompactedCensus) {
  // A pending mutation runs the census on the composed generation; it must
  // agree with the compacted census and with the serial oracle.
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x3081'0000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    const auto   ne = hg.num_hyperedges();
    if (ne == 0) continue;
    hg.update_edge(static_cast<vertex_id_t>(seed % ne),
                   {0, static_cast<vertex_id_t>(hg.num_hypernodes() / 2)});
    auto through_delta = hg.motifs();  // composed generation while pending
    hg.compact();
    EXPECT_EQ(hg.motifs(), through_delta);
    expect_census_eq(through_delta, ref::motif_counts(ref::from_biedgelist(hg.edge_list())));
  }
}

// --- planted closed forms ----------------------------------------------------------

TEST(Motif, PlantedCliquesMatchClosedForm) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x3082'0000)) {
      NWHY_SEED_TRACE(seed);
      auto plant = gen::planted_clique_hypergraph(1 + seed % 6, seed);
      NWHypergraph hg(plant.el);
      auto         census = hg.motifs();
      EXPECT_EQ(census.wedges, plant.wedges);
      EXPECT_EQ(census.triads, plant.triads);
      EXPECT_EQ(census.open_wedges, plant.wedges - plant.triads);
      EXPECT_EQ(census.butterflies, plant.butterflies);
    }
  }
}

TEST(Motif, Figure1Census) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto         census = hg.motifs();
  // Fig. 1: wedge centers are nodes 1, 2 (e0/e1), 4 (e1/e2), 6 (e2/e3);
  // only e0/e1 overlap twice, closing both of its wedges and forming the
  // single butterfly {e0, e1} x {1, 2}.
  EXPECT_EQ(census.wedges, 4u);
  EXPECT_EQ(census.triads, 2u);
  EXPECT_EQ(census.open_wedges, 2u);
  EXPECT_EQ(census.butterflies, 1u);
}

// --- edge cases --------------------------------------------------------------------

TEST(Motif, DegenerateShapesCountZero) {
  // Degree-one hypernodes center no wedges.
  biedgelist<> disjoint;
  disjoint.push_back(0, 0);
  disjoint.push_back(0, 1);
  disjoint.push_back(1, 2);
  NWHypergraph hg(disjoint);
  EXPECT_EQ(hg.motifs(), (motif_census{0, 0, 0, 0}));
}

TEST(Motif, CensusIsDeterministicAcrossRuns) {
  nwtest::concurrency_guard guard;
  nw::par::thread_pool::set_default_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
  NWHypergraph hg(gen::uniform_random_hypergraph(60, 90, 5, 0x3083'0000));
  auto         first = hg.motifs();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hg.motifs(), first);
}
