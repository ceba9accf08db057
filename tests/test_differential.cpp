// tests/test_differential.cpp — the differential correctness harness.
//
// Every parallel algorithm family is pitted against the serial oracles in
// nwhy/ref/ over a stream of generated hypergraphs (gen::arbitrary_hypergraph
// dispatches across uniform / power-law / community / nested / star /
// planted-chain / planted-toplex / adversarial shapes), at thread counts
// {1, 2, 4, hardware}, across the bipartite and adjoin representations, and
// across all s-line construction algorithms.  Distances, line-graph edge
// sets, toplex sets, core numbers and the distance-aggregate centralities
// must agree *bit-exactly*; component labels must agree with the oracle up
// to renaming, and the two CC engines with each other label for label.
//
// Replay: every assertion failure embeds the generator seed and the
// one-command repro (`NWHY_TEST_SEED=<n> ./tests/test_differential`).
// Budget: `NWHY_TEST_ITERS=<k>` scales the seed stream (default 24);
// check.sh --differential and scripts/sanitize.sh tsan use smaller budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nwhy/algorithms/hyper_kcore.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/ref/ref.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::same_partition;
namespace ref = nw::hypergraph::ref;

namespace {

/// A few BFS sources spread across the hyperedge id range.
std::vector<vertex_id_t> sources_for(std::size_t ne) {
  std::vector<vertex_id_t> s;
  if (ne == 0) return s;
  s.push_back(0);
  if (ne > 2) s.push_back(static_cast<vertex_id_t>(ne / 2));
  if (ne > 1) s.push_back(static_cast<vertex_id_t>(ne - 1));
  return s;
}

/// One label vector across both entity classes, so a parallel engine that
/// splits a component at the edge/node boundary cannot pass.
std::vector<vertex_id_t> concat_labels(const std::vector<vertex_id_t>& edge,
                                       const std::vector<vertex_id_t>& node) {
  std::vector<vertex_id_t> all = edge;
  all.insert(all.end(), node.begin(), node.end());
  return all;
}

const std::vector<std::size_t> kSValues = {1, 2, 3};

}  // namespace

// --- harness self-checks -----------------------------------------------------------

TEST(Harness, SeedKnobsControlTheStream) {
  // Save whatever the invoking environment pinned so this test does not
  // clobber an operator's replay run.
  const char* old_seed  = std::getenv("NWHY_TEST_SEED");
  const char* old_iters = std::getenv("NWHY_TEST_ITERS");
  std::string saved_seed  = old_seed ? old_seed : "";
  std::string saved_iters = old_iters ? old_iters : "";

  setenv("NWHY_TEST_SEED", "42", 1);
  EXPECT_EQ(nwtest::differential_seeds(1000), (std::vector<std::uint64_t>{42}));
  unsetenv("NWHY_TEST_SEED");

  setenv("NWHY_TEST_ITERS", "3", 1);
  auto stream = nwtest::differential_seeds(1000);
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream.front(), 1000u);
  EXPECT_EQ(stream.back(), 1002u);
  unsetenv("NWHY_TEST_ITERS");

  if (old_seed) setenv("NWHY_TEST_SEED", saved_seed.c_str(), 1);
  if (old_iters) setenv("NWHY_TEST_ITERS", saved_iters.c_str(), 1);
}

TEST(Harness, ThreadCountsAreDedupedAndAscending) {
  auto counts = nwtest::differential_thread_counts();
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1u);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_LT(counts[i - 1], counts[i]);
}

// --- BFS family ---------------------------------------------------------------------

TEST(Differential, BfsDistancesMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0BF5'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc = ref::from_biedgelist(hg.edge_list());
      for (vertex_id_t src : sources_for(hg.num_hyperedges())) {
        SCOPED_TRACE("src=" + std::to_string(src));
        auto oracle = ref::bfs_levels(inc, src);

        auto td = hyper_bfs(hg.hyperedges(), hg.hypernodes(), src, nwtest::top_down_alpha);
        EXPECT_EQ(td.dist_edge, oracle.dist_edge) << "hyper_bfs (forced top-down)";
        EXPECT_EQ(td.dist_node, oracle.dist_node) << "hyper_bfs (forced top-down)";

        auto bu = hyper_bfs(hg.hyperedges(), hg.hypernodes(), src, nwtest::bottom_up_alpha,
                            nwtest::bottom_up_beta);
        EXPECT_EQ(bu.dist_edge, oracle.dist_edge) << "hyper_bfs (forced bottom-up)";
        EXPECT_EQ(bu.dist_node, oracle.dist_node) << "hyper_bfs (forced bottom-up)";

        auto dir = hyper_bfs(hg.hyperedges(), hg.hypernodes(), src);
        EXPECT_EQ(dir.dist_edge, oracle.dist_edge) << "hyper_bfs (direction-optimizing)";
        EXPECT_EQ(dir.dist_node, oracle.dist_node) << "hyper_bfs (direction-optimizing)";

        auto [ae, an] = adjoin_bfs_distances(hg.adjoin(), src);
        EXPECT_EQ(ae, oracle.dist_edge) << "adjoin_bfs_distances";
        EXPECT_EQ(an, oracle.dist_node) << "adjoin_bfs_distances";
      }
    }
  }
}

// --- connected components family ----------------------------------------------------

namespace {

/// A pending delta over `h`: one rewritten edge, one tombstone and one
/// edge appended past the id range (growing the node space by one).
void mutate_for_cc(NWHypergraph& h) {
  const auto ne = static_cast<vertex_id_t>(h.num_hyperedges());
  const auto nn = static_cast<vertex_id_t>(h.num_hypernodes());
  h.update_edge(0, {0, nn / 2});
  const vertex_id_t dropped[] = {ne / 2};
  h.remove_edges(dropped);
  h.insert_edges({{ne + 1, {nn / 3, nn}}});
}

/// HyperCC against the oracle partition, and AdjoinCC against HyperCC's
/// raw labels: both engines name a component by its minimum id.
void expect_cc_engines_agree(const NWHypergraph& hg, const ref::cc_labels_result& oracle) {
  auto cc = hg.connected_components();
  EXPECT_TRUE(same_partition(concat_labels(cc.labels_edge, cc.labels_node),
                             concat_labels(oracle.labels_edge, oracle.labels_node)))
      << "hyper_cc";
  auto aff = hg.connected_components_adjoin();
  EXPECT_EQ(aff.labels_edge, cc.labels_edge) << "adjoin_cc";
  EXPECT_EQ(aff.labels_node, cc.labels_node) << "adjoin_cc";
}

}  // namespace

TEST(Differential, ConnectedComponentsMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0CC0'0000)) {
      NWHY_SEED_TRACE(seed);
      const auto   el = gen::arbitrary_hypergraph(seed);
      NWHypergraph hg(el);
      const auto   oracle = ref::cc_labels(ref::from_biedgelist(hg.edge_list()));
      {
        SCOPED_TRACE("plain");
        expect_cc_engines_agree(hg, oracle);
      }
      {
        SCOPED_TRACE("relabeled");
        NWHypergraph twin(el);
        twin.relabel_by_degree();
        expect_cc_engines_agree(twin, oracle);
        EXPECT_EQ(twin.connected_components().labels_edge, hg.connected_components().labels_edge);
      }
      {
        SCOPED_TRACE("pending delta");
        NWHypergraph pending(el);
        NWHypergraph compacted(el);
        mutate_for_cc(pending);
        mutate_for_cc(compacted);
        compacted.compact();
        ASSERT_TRUE(pending.has_pending_delta());
        expect_cc_engines_agree(pending, ref::cc_labels(ref::from_biedgelist(compacted.edge_list())));
      }
    }
  }
}

// --- s-line-graph construction family -----------------------------------------------

TEST(Differential, SLineConstructionAlgorithmsMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x051E'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc = ref::from_biedgelist(hg.edge_list());
      const auto&  E   = hg.hyperedges();
      const auto&  N   = hg.hypernodes();
      const auto&  deg = hg.edge_sizes();
      const auto   ne  = hg.num_hyperedges();

      std::vector<vertex_id_t> queue(ne);
      detail::iota_queue(queue);

      // The ensemble emits all three s values from one counting pass.
      auto ensemble = to_two_graph_ensemble(E, N, deg, kSValues);

      for (std::size_t si = 0; si < kSValues.size(); ++si) {
        const std::size_t s = kSValues[si];
        SCOPED_TRACE("s=" + std::to_string(s));
        auto expected = ref::s_line_edges(inc, s);

        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_naive(E, N, deg, s)), expected)
            << "naive";
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_intersection(E, N, deg, s)), expected)
            << "intersection";
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_hashmap(E, N, deg, s)), expected)
            << "hashmap (blocked)";
        EXPECT_EQ(nwtest::canonical_pairs(
                      to_two_graph_hashmap_cyclic(E, N, deg, s, threads, 32)),
                  expected)
            << "hashmap (cyclic)";
        EXPECT_EQ(nwtest::csr_pairs(to_two_graph_hashmap_csr(E, N, deg, s)), expected)
            << "hashmap_csr (direct-CSR pipeline)";
        EXPECT_EQ(nwtest::canonical_pairs(
                      to_two_graph_queue_hashmap(queue, E, N, deg, s, ne)),
                  expected)
            << "queue_hashmap (Algorithm 1)";
        EXPECT_EQ(nwtest::canonical_pairs(
                      to_two_graph_queue_intersection(queue, E, N, deg, s, ne)),
                  expected)
            << "queue_intersection (Algorithm 2)";
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_neighbor_range(E, N, deg, s)),
                  expected)
            << "neighbor_range";
        EXPECT_EQ(nwtest::canonical_pairs(ensemble[si]), expected) << "ensemble";
        EXPECT_EQ(nwtest::canonical_pairs(
                      threshold_weighted(to_two_graph_weighted(E, N, deg, 1), s)),
                  expected)
            << "weighted + threshold";

        // Every weighted triple carries the oracle's overlap, at this s.
        std::vector<std::tuple<vertex_id_t, vertex_id_t, std::size_t>> want_w, got_w;
        for (auto [a, b] : expected) {
          want_w.emplace_back(a, b, ref::overlap_size(inc.edges[a], inc.edges[b]));
        }
        const auto weighted = to_two_graph_weighted(E, N, deg, s);
        for (std::size_t k = 0; k < weighted.size(); ++k) {
          auto [a, b, w] = weighted[k];
          got_w.emplace_back(std::min(a, b), std::max(a, b), w);
        }
        std::sort(got_w.begin(), got_w.end());
        EXPECT_EQ(got_w, want_w) << "weighted (i, j, |e_i ∩ e_j|) triples";
      }
    }
  }
}

// --- adjoin-vs-bipartite cross-representation construction --------------------------

TEST(Differential, AdjoinQueueConstructionMatchesSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0ADD'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc    = ref::from_biedgelist(hg.edge_list());
      const auto   adjoin = hg.adjoin();

      // Work queue = hyperedge ids inside the shared index set ([0, nE));
      // degrees indexed by shared id.
      std::vector<vertex_id_t> queue(adjoin.nrealedges());
      detail::iota_queue(queue);
      std::vector<std::size_t> adjoin_degrees = adjoin.degrees();

      for (std::size_t s : kSValues) {
        SCOPED_TRACE("s=" + std::to_string(s));
        auto expected = ref::s_line_edges(inc, s);
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_queue_hashmap(
                      queue, adjoin, adjoin, adjoin_degrees, s, adjoin.nrealedges())),
                  expected)
            << "queue_hashmap on adjoin";
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_queue_intersection(
                      queue, adjoin, adjoin, adjoin_degrees, s, adjoin.nrealedges())),
                  expected)
            << "queue_intersection on adjoin";
      }
    }
  }
}

// --- s-components / s-distance family -----------------------------------------------

TEST(Differential, SComponentsAndSDistanceMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0D15'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc = ref::from_biedgelist(hg.edge_list());
      const auto   ne  = hg.num_hyperedges();

      for (std::size_t s : kSValues) {
        SCOPED_TRACE("s=" + std::to_string(s));
        auto oracle = ref::s_components(inc, s);
        auto lg     = hg.make_s_linegraph(s);
        auto mat    = lg.s_connected_components();
        auto imp    = hg.s_connected_components_implicit(s);
        ASSERT_EQ(mat.size(), oracle.size());
        ASSERT_EQ(imp.size(), oracle.size());

        // Inactive hyperedges must be null in all three; partitions must
        // agree on the active subset.
        std::vector<vertex_id_t> o_act, m_act, i_act;
        for (std::size_t e = 0; e < oracle.size(); ++e) {
          if (oracle[e] == nw::null_vertex<>) {
            EXPECT_EQ(mat[e], nw::null_vertex<>) << "materialized active set, e=" << e;
            EXPECT_EQ(imp[e], nw::null_vertex<>) << "implicit active set, e=" << e;
          } else {
            o_act.push_back(oracle[e]);
            m_act.push_back(mat[e]);
            i_act.push_back(imp[e]);
          }
        }
        EXPECT_TRUE(same_partition(m_act, o_act)) << "materialized s-components";
        EXPECT_TRUE(same_partition(i_act, o_act)) << "implicit s-components";

        // s-distances (materialized + implicit) on a few src != dst pairs.
        if (ne >= 2) {
          const std::pair<vertex_id_t, vertex_id_t> probes[] = {
              {0, static_cast<vertex_id_t>(ne - 1)},
              {0, static_cast<vertex_id_t>(ne / 2 == 0 ? ne - 1 : ne / 2)},
              {static_cast<vertex_id_t>(ne / 3), static_cast<vertex_id_t>(ne - 1)},
          };
          for (auto [src, dst] : probes) {
            if (src == dst) continue;
            auto od = ref::s_distance(inc, s, src, dst);
            EXPECT_EQ(lg.s_distance(src, dst), od)
                << "materialized s_distance(" << src << ", " << dst << ")";
            EXPECT_EQ(hg.s_distance_implicit(s, src, dst), od)
                << "implicit s_distance(" << src << ", " << dst << ")";
          }
        }
      }
    }
  }
}

// --- s-centrality family (bit-exact doubles) ----------------------------------------

TEST(Differential, SCentralitiesBitExactAgainstSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0CE7'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("s=" + std::to_string(s));
        auto lg  = hg.make_s_linegraph(s);
        auto adj = nwtest::csr_to_adjacency(lg.graph());

        // The distance arrays are integer-exact and both sides aggregate in
        // ascending index order, so doubles must match bit for bit.
        auto close = lg.s_closeness_centrality();
        auto harm  = lg.s_harmonic_closeness_centrality();
        auto ecc   = lg.s_eccentricity();
        EXPECT_EQ(close, ref::closeness(adj)) << "closeness";
        EXPECT_EQ(harm, ref::harmonic_closeness(adj)) << "harmonic closeness";
        EXPECT_EQ(ecc, ref::eccentricity(adj)) << "eccentricity";

        // Single-vertex overloads answer from one BFS; they must agree with
        // the all-sources sweep indexed at that vertex.
        for (vertex_id_t v : sources_for(lg.num_vertices())) {
          EXPECT_EQ(lg.s_closeness_centrality(v), close[v]) << "v=" << v;
          EXPECT_EQ(lg.s_harmonic_closeness_centrality(v), harm[v]) << "v=" << v;
          EXPECT_EQ(lg.s_eccentricity(v), ecc[v]) << "v=" << v;
        }
      }
    }
  }
}

// --- toplex family ------------------------------------------------------------------

TEST(Differential, ToplexesMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0709'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc    = ref::from_biedgelist(hg.edge_list());
      auto         expect = ref::toplexes(inc);
      EXPECT_EQ(hg.toplexes(), expect) << "parallel toplexes (Algorithm 3)";
    }
  }
}

// --- core decomposition family ------------------------------------------------------

TEST(Differential, CoreDecompositionsMatchSerialOracle) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0C03'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         inc = ref::from_biedgelist(hg.edge_list());

      // s-core numbers: k-core of the line graph vs the O(n²) peel oracle.
      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        auto lg = hg.make_s_linegraph(s);
        EXPECT_EQ(lg.s_core_numbers(), ref::kcore_numbers(nwtest::csr_to_adjacency(lg.graph())))
            << "s=" << s;
      }

      // (k, l)-core: incremental alternating peel vs whole-round fixpoint
      // recomputation — the greatest fixpoint is unique, so exact equality.
      const std::pair<std::size_t, std::size_t> kls[] = {{1, 1}, {2, 2}, {2, 3}, {3, 2}};
      for (auto [k, l] : kls) {
        auto par_r = kl_core(hg.hyperedges(), hg.hypernodes(), k, l);
        auto ref_r = ref::kl_core(inc, k, l);
        EXPECT_EQ(par_r.edge_alive, ref_r.edge_alive) << "(k, l) = (" << k << ", " << l << ")";
        EXPECT_EQ(par_r.node_alive, ref_r.node_alive) << "(k, l) = (" << k << ", " << l << ")";
      }
    }
  }
}

// --- planted-structure ground truth -------------------------------------------------
//
// These assert against *mathematics*, not against another implementation:
// the generators plant component counts, diameters and toplex sets with
// exactly known values.

TEST(PlantedStructure, ComponentChainsYieldExactCountDiameterAndEmptySPlusOne) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0C4A'0000)) {
      NWHY_SEED_TRACE(seed);
      const std::size_t components = 2 + seed % 3;
      const std::size_t length     = 3 + seed % 5;
      const std::size_t s          = 1 + seed % 3;
      auto p = gen::planted_component_chains(components, length, s, seed);
      NWHypergraph hg(std::move(p.el));

      auto lg = hg.make_s_linegraph(s);
      EXPECT_EQ(nwtest::distinct_labels(lg.s_connected_components()), components);
      EXPECT_EQ(nwtest::distinct_labels(hg.s_connected_components_implicit(s)), components);

      // Every component is a path of `length` line-graph vertices.
      EXPECT_EQ(lg.s_diameter(), length - 1);
      for (const auto& chain : p.component_edges) {
        auto d = lg.s_distance(chain.front(), chain.back());
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(*d, length - 1);
        auto di = hg.s_distance_implicit(s, chain.front(), chain.back());
        ASSERT_TRUE(di.has_value());
        EXPECT_EQ(*di, length - 1);
      }

      // Consecutive chain edges overlap in exactly s hypernodes, so the
      // (s+1)-line graph is empty.
      EXPECT_EQ(hg.make_s_linegraph(s + 1).num_edges(), 0u);
    }
  }
}

TEST(PlantedStructure, ToplexSetsRecoveredExactly) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x0707'0000)) {
      NWHY_SEED_TRACE(seed);
      const std::size_t toplexes_n = 2 + seed % 4;
      const std::size_t subsets    = 1 + seed % 4;
      const std::size_t size       = 3 + seed % 4;
      auto p = gen::planted_toplex_hypergraph(toplexes_n, subsets, size, seed);
      NWHypergraph hg(std::move(p.el));

      EXPECT_EQ(hg.toplexes(), p.toplex_ids) << "parallel toplexes";
      EXPECT_EQ(ref::toplexes(ref::from_biedgelist(hg.edge_list())), p.toplex_ids)
          << "serial oracle";
    }
  }
}
