// tests/test_relabel.cpp — degree-ordered relabeling: the parallel
// permutation builder against its serial oracle, and facade invisibility —
// every query on a relabeled NWHypergraph must answer exactly as the
// unrelabeled twin, across the differential seed stream and the
// {1, 2, 4, hw} thread sweep (nothing may depend on scheduling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "nwhy/gen/generators.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/relabel.hpp"
#include "nwobs/counters.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

struct scratch_file {
  std::string path;
  explicit scratch_file(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("nwhy_relabel_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".nwcsr"))
               .string();
  }
  ~scratch_file() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

/// Hop depth of every vertex of an adjoin BFS tree, in the shared index set
/// (hyperedges, then hypernodes), walked up the parent chain;
/// null_vertex<> when unreached.  A BFS tree's parents sit one level up,
/// so the depths are the BFS distances whatever the schedule picked.
std::vector<vertex_id_t> adjoin_depths(const adjoin_bfs_result& r) {
  std::vector<vertex_id_t> parent(r.parents_edge);
  parent.insert(parent.end(), r.parents_node.begin(), r.parents_node.end());
  std::vector<vertex_id_t> depth(parent.size(), nw::null_vertex<>);
  std::vector<vertex_id_t> chain;
  for (std::size_t x = 0; x < parent.size(); ++x) {
    vertex_id_t u = static_cast<vertex_id_t>(x);
    while (parent[u] != nw::null_vertex<> && depth[u] == nw::null_vertex<> && parent[u] != u) {
      chain.push_back(u);
      u = parent[u];
    }
    if (parent[u] == u) depth[u] = 0;
    for (; !chain.empty(); chain.pop_back()) {
      const vertex_id_t c = chain.back();
      if (depth[u] != nw::null_vertex<>) depth[c] = depth[u] + 1;
      u = c;
    }
  }
  return depth;
}

/// The weighted 1-line edge list as a sorted (i, j, w) multiset.
std::vector<std::tuple<vertex_id_t, vertex_id_t, std::uint32_t>> weighted_triples(
    const nw::graph::edge_list<std::uint32_t>& w) {
  std::vector<std::tuple<vertex_id_t, vertex_id_t, std::uint32_t>> out;
  out.reserve(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) out.push_back(w[i]);
  std::sort(out.begin(), out.end());
  return out;
}

/// Assert that every structural and algorithmic query answers identically
/// on `plain` and `twin` — the invisibility contract of relabeling.
void expect_query_equivalence(const NWHypergraph& plain, const NWHypergraph& twin) {
  ASSERT_EQ(plain.num_hyperedges(), twin.num_hyperedges());
  ASSERT_EQ(plain.num_hypernodes(), twin.num_hypernodes());
  ASSERT_EQ(plain.num_incidences(), twin.num_incidences());
  ASSERT_EQ(plain.edge_sizes(), twin.edge_sizes());
  ASSERT_EQ(plain.node_degrees(), twin.node_degrees());

  const auto ne = static_cast<vertex_id_t>(plain.num_hyperedges());
  const auto nn = static_cast<vertex_id_t>(plain.num_hypernodes());
  for (vertex_id_t e = 0; e < ne; ++e) {
    ASSERT_EQ(plain.edge_members(e), twin.edge_members(e)) << "edge " << e;
  }
  for (vertex_id_t v = 0; v < nn; ++v) {
    ASSERT_EQ(plain.incident_edges(v), twin.incident_edges(v)) << "node " << v;
  }
  // Point incidence on a stride of pairs, out-of-range edges included.
  const vertex_id_t node_stride = std::max<vertex_id_t>(1, nn / 7);
  for (vertex_id_t e = 0; e < ne + 2; ++e) {
    for (vertex_id_t v = e % node_stride; v < nn + 1; v += node_stride) {
      ASSERT_EQ(plain.contains(e, v), twin.contains(e, v)) << "edge " << e << " node " << v;
    }
  }

  // HyperCC labels are canonical (per-component min hyperedge id) and
  // toplexes emit ascending ids: both must be bit-identical.
  auto cc_a = plain.connected_components();
  auto cc_b = twin.connected_components();
  ASSERT_EQ(cc_a.labels_edge, cc_b.labels_edge);
  ASSERT_EQ(cc_a.labels_node, cc_b.labels_node);
  ASSERT_EQ(plain.toplexes(), twin.toplexes());
  ASSERT_EQ(plain.motifs(), twin.motifs());

  // Afforest roots every component at its minimum id too, so AdjoinCC
  // returns HyperCC's labels on both twins.
  for (const auto& acc : {plain.connected_components_adjoin(), twin.connected_components_adjoin()}) {
    ASSERT_EQ(acc.labels_edge, cc_a.labels_edge);
    ASSERT_EQ(acc.labels_node, cc_a.labels_node);
  }

  // The dual's canonical edge list and the weighted line graph's triples.
  auto dual_a = plain.dual();
  auto dual_b = twin.dual();
  ASSERT_EQ(dual_a.edge_list().edge_ids(), dual_b.edge_list().edge_ids());
  ASSERT_EQ(dual_a.edge_list().node_ids(), dual_b.edge_list().node_ids());
  ASSERT_EQ(weighted_triples(plain.weighted_linegraph_edges()),
            weighted_triples(twin.weighted_linegraph_edges()));

  // BFS distances are level-synchronous, hence label-invariant; parents are
  // schedule-dependent, so check the structural contract instead.
  for (vertex_id_t src : {vertex_id_t{0}, static_cast<vertex_id_t>(ne / 2)}) {
    if (src >= ne) continue;
    auto a = plain.bfs(src);
    auto b = twin.bfs(src);
    ASSERT_EQ(a.dist_edge, b.dist_edge) << "src " << src;
    ASSERT_EQ(a.dist_node, b.dist_node) << "src " << src;
    ASSERT_EQ(adjoin_depths(plain.bfs_adjoin(src)), adjoin_depths(twin.bfs_adjoin(src)))
        << "src " << src;
    if (ne != 0) {
      ASSERT_EQ(b.parents_edge[src], src);
    }
    for (vertex_id_t v = 0; v < nn; ++v) {
      if (b.dist_node[v] == nw::null_vertex<>) {
        ASSERT_EQ(b.parents_node[v], nw::null_vertex<>);
        continue;
      }
      vertex_id_t pe = b.parents_node[v];
      ASSERT_LT(pe, ne) << "node parent out of range";
      ASSERT_EQ(b.dist_edge[pe] + 1, b.dist_node[v]) << "parent not one level up";
      auto members = twin.edge_members(pe);
      ASSERT_TRUE(std::find(members.begin(), members.end(), v) != members.end())
          << "parent edge does not contain the node";
    }
  }

  // s-line graph family: edge sets as canonical pair sets, implicit
  // component labels and distances bit-identical.
  for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
    auto lg_a = plain.make_s_linegraph(s);
    auto lg_b = twin.make_s_linegraph(s);
    ASSERT_EQ(lg_a.num_vertices(), lg_b.num_vertices()) << "s=" << s;
    ASSERT_EQ(nwtest::csr_pairs(lg_a.graph()), nwtest::csr_pairs(lg_b.graph())) << "s=" << s;
    ASSERT_EQ(plain.s_connected_components_implicit(s),
              twin.s_connected_components_implicit(s))
        << "s=" << s;
    if (ne >= 2) {
      ASSERT_EQ(plain.s_distance_implicit(s, 0, ne - 1),
                twin.s_distance_implicit(s, 0, ne - 1))
          << "s=" << s;
    }
  }
}

/// The relabeled s-line build must give the plain build's CSR byte for
/// byte, with the same overlap counts, through the direct CSR assembly
/// (`slinegraph.csr_build`) and never the edge-list merge.
void expect_identical_s_linegraphs(const NWHypergraph& plain, const NWHypergraph& twin) {
  auto&      reg    = nw::obs::registry::get();
  const auto counts = [&reg] {
    return std::pair{reg.get_counter("slinegraph.pairs_emitted").value(),
                     reg.get_counter("slinegraph.candidate_pairs").value()};
  };
  const auto as_vector = [](auto span) { return std::vector(span.begin(), span.end()); };
  for (std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    reg.reset();
    auto       lg_a        = plain.make_s_linegraph(s);
    const auto plain_count = counts();
    reg.reset();
    auto lg_b = twin.make_s_linegraph(s);
    ASSERT_EQ(counts(), plain_count) << "s=" << s;
    const auto timers = reg.timers_snapshot();
    ASSERT_TRUE(timers.contains("slinegraph.csr_build")) << "s=" << s;
    ASSERT_FALSE(timers.contains("slinegraph.merge")) << "s=" << s;
    ASSERT_EQ(as_vector(lg_a.graph().indices()), as_vector(lg_b.graph().indices())) << "s=" << s;
    ASSERT_EQ(as_vector(lg_a.graph().targets()), as_vector(lg_b.graph().targets())) << "s=" << s;
  }
}

}  // namespace

TEST(Relabel, PermutationMatchesSerialOracleAcrossSeedsAndThreads) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x8E1A)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    const auto&  degrees = hg.edge_sizes();
    for (auto order : {nw::graph::degree_order::descending, nw::graph::degree_order::ascending}) {
      auto oracle_perm = nw::graph::degree_permutation(degrees, order);
      auto oracle_inv  = nw::graph::inverse_permutation(oracle_perm);
      for (unsigned threads : nwtest::differential_thread_counts()) {
        nw::par::thread_pool::set_default_concurrency(threads);
        auto maps = degree_relabel_maps(degrees, order);
        ASSERT_EQ(maps.perm, oracle_perm) << "threads=" << threads;
        ASSERT_EQ(maps.inv, oracle_inv) << "threads=" << threads;
      }
    }
  }
}

TEST(Relabel, DegenerateDegreeRangeFallsBackToComparisonSort) {
  // One pathological degree makes the counting-sort bucket table dwarf the
  // id space; the fallback must stay bit-identical to the oracle.
  std::vector<std::size_t> degrees{3, 1'000'000'000, 3, 7, 0, 7};
  auto maps   = degree_relabel_maps(degrees);
  auto oracle = nw::graph::degree_permutation(degrees, nw::graph::degree_order::descending);
  ASSERT_EQ(maps.perm, oracle);
  ASSERT_EQ(maps.inv, nw::graph::inverse_permutation(oracle));
}

TEST(Relabel, TranslateAndReindexRoundTrip) {
  std::vector<std::size_t> degrees{2, 5, 1, 5, 0, 3};
  auto                     maps = degree_relabel_maps(degrees);
  std::vector<vertex_id_t> ids(degrees.size());
  std::iota(ids.begin(), ids.end(), 0);
  maps.translate_ids(ids, relabel_maps::direction::to_storage);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], maps.storage_id(static_cast<vertex_id_t>(i)));
    ASSERT_EQ(maps.external_id(ids[i]), static_cast<vertex_id_t>(i));
  }
  maps.translate_ids(ids, relabel_maps::direction::to_external);
  for (std::size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<vertex_id_t>(i));
  // Out-of-range external ids pass through.
  ASSERT_EQ(maps.storage_id(99), vertex_id_t{99});
  // Storage-order degrees are descending by construction, and reordering
  // them into external order gives the input back.
  std::vector<std::size_t> by_row(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    by_row[maps.storage_id(static_cast<vertex_id_t>(i))] = degrees[i];
  }
  for (std::size_t i = 1; i < by_row.size(); ++i) ASSERT_GE(by_row[i - 1], by_row[i]);
  ASSERT_EQ(maps.to_external_order(by_row), degrees);
  // A persisted inverse rebuilds the same pair.
  auto again = relabel_maps::from_inverse(maps.inv);
  ASSERT_EQ(again.perm, maps.perm);
  ASSERT_EQ(again.inv, maps.inv);
}

TEST(Relabel, FacadeInvisibilityAcrossSeedsAndThreads) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x8E40)) {
    NWHY_SEED_TRACE(seed);
    auto el = gen::arbitrary_hypergraph(seed);
    for (unsigned threads : nwtest::differential_thread_counts()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      NWHypergraph plain(el);
      NWHypergraph twin(el);
      twin.relabel_by_degree();
      ASSERT_TRUE(twin.is_relabeled());
      ASSERT_FALSE(plain.is_relabeled());
      expect_query_equivalence(plain, twin);
      expect_identical_s_linegraphs(plain, twin);
    }
  }
}

TEST(Relabel, SnapshotRoundTripKeepsRelabelAndAnswers) {
  for (auto seed : nwtest::differential_seeds(0x8E80)) {
    NWHY_SEED_TRACE(seed);
    auto         el = gen::arbitrary_hypergraph(seed);
    NWHypergraph plain(el);
    NWHypergraph twin(el);
    twin.relabel_by_degree();
    scratch_file f("roundtrip");
    twin.save_csr_snapshot(f.path);
    NWHypergraph loaded(load_csr_snapshot(f.path));
    ASSERT_TRUE(loaded.is_relabeled()) << "kind-13 inverse map not adopted";
    expect_query_equivalence(plain, loaded);
  }
}

/// Write `el`'s hypergraph as a canonical snapshot whose storage rows are in
/// reversed external order (inv[s] = n - 1 - s): a legal kind-13 map that
/// no degree order produces, so duplicate rows and empty edges keep a
/// storage order opposite to their external one.
void save_reversed_snapshot(const biedgelist<>& el, const std::string& path) {
  NWHypergraph      plain(el);
  const std::size_t ne = plain.num_hyperedges();
  biedgelist<>      stored(ne, plain.num_hypernodes());
  for (vertex_id_t e = 0; e < ne; ++e) {
    for (vertex_id_t v : plain.edge_members(e)) {
      stored.push_back(static_cast<vertex_id_t>(ne - 1 - e), v);
    }
  }
  stored.sort_and_unique();
  std::vector<vertex_id_t> inv(ne);
  for (std::size_t s = 0; s < ne; ++s) inv[s] = static_cast<vertex_id_t>(ne - 1 - s);
  csr_write_options wopt;
  wopt.relabel_inv = inv;
  write_csr_snapshot(path, biadjacency<0>(stored), biadjacency<1>(stored), wopt);
}

TEST(Relabel, ReversedSnapshotMapPicksExternalRepresentatives) {
  nwtest::concurrency_guard guard;
  // Duplicate rows {0, 1}, {2, 3} and a lone {4}: reversed storage puts the
  // larger external id of each duplicate pair first.
  biedgelist<> dups;
  for (auto [e, v] : std::vector<std::pair<vertex_id_t, vertex_id_t>>{
           {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 4}, {5, 2}}) {
    dups.push_back(e, v);
  }
  // Only empty edges: the survivor must be external id 0, stored last.
  biedgelist<> empties(5, 3);
  for (const auto* el : {&dups, &empties}) {
    NWHypergraph plain(*el);
    scratch_file f("reversed");
    save_reversed_snapshot(*el, f.path);
    for (unsigned threads : nwtest::differential_thread_counts()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      NWHypergraph loaded(load_csr_snapshot(f.path));
      ASSERT_TRUE(loaded.is_relabeled());
      ASSERT_EQ(plain.toplexes(), loaded.toplexes()) << "threads=" << threads;
      auto cc_a = plain.connected_components();
      auto cc_b = loaded.connected_components();
      ASSERT_EQ(cc_a.labels_edge, cc_b.labels_edge) << "threads=" << threads;
      ASSERT_EQ(cc_a.labels_node, cc_b.labels_node) << "threads=" << threads;
      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        ASSERT_EQ(plain.s_connected_components_implicit(s),
                  loaded.s_connected_components_implicit(s))
            << "s=" << s << " threads=" << threads;
      }
    }
  }
  NWHypergraph plain_dups(dups);
  ASSERT_EQ(plain_dups.toplexes(), (std::vector<vertex_id_t>{0, 2, 4}));
  NWHypergraph plain_empties(empties);
  ASSERT_EQ(plain_empties.toplexes(), (std::vector<vertex_id_t>{0}));
}

TEST(Relabel, ReversedSnapshotMapIsInvisibleAcrossSeedsAndThreads) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x8E90)) {
    NWHY_SEED_TRACE(seed);
    auto         el = gen::arbitrary_hypergraph(seed);
    scratch_file f("reversed_seed");
    save_reversed_snapshot(el, f.path);
    for (unsigned threads : nwtest::differential_thread_counts()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      NWHypergraph loaded(load_csr_snapshot(f.path));
      ASSERT_TRUE(loaded.is_relabeled());
      expect_query_equivalence(NWHypergraph(el), loaded);
    }
  }
}

TEST(Relabel, DerelabelRestoresOriginalStorage) {
  auto         el = gen::arbitrary_hypergraph(0x8EB0);
  NWHypergraph plain(el);
  NWHypergraph twin(el);
  twin.relabel_by_degree();
  twin.derelabel();
  ASSERT_FALSE(twin.is_relabeled());
  expect_query_equivalence(plain, twin);
  // The underlying CSRs must be bit-identical again, not just query-equal.
  auto pi = plain.hyperedges().csr().indices();
  auto ti = twin.hyperedges().csr().indices();
  ASSERT_TRUE(std::equal(pi.begin(), pi.end(), ti.begin(), ti.end()));
  auto pt = plain.hyperedges().csr().targets();
  auto tt = twin.hyperedges().csr().targets();
  ASSERT_TRUE(std::equal(pt.begin(), pt.end(), tt.begin(), tt.end()));
}

TEST(Relabel, RepeatedRelabelComposesAndStaysInvisible) {
  auto         el = gen::arbitrary_hypergraph(0x8EC0);
  NWHypergraph plain(el);
  NWHypergraph twin(el);
  twin.relabel_by_degree();
  twin.relabel_by_degree(nw::graph::degree_order::ascending);
  ASSERT_TRUE(twin.is_relabeled());
  expect_query_equivalence(plain, twin);
}

TEST(Relabel, MutationAutoDerelabels) {
  auto         el = gen::arbitrary_hypergraph(0x8ED0);
  NWHypergraph plain(el);
  NWHypergraph twin(el);
  twin.relabel_by_degree();
  std::vector<vertex_id_t> members{0, 1, 2};
  plain.update_edge(0, members);
  twin.update_edge(0, members);
  ASSERT_FALSE(twin.is_relabeled()) << "mutation must drop the relabel layer";
  ASSERT_EQ(plain.edge_members(0), twin.edge_members(0));
  plain.compact();
  twin.compact();
  expect_query_equivalence(plain, twin);
}

TEST(Relabel, RequiresCompactedState) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0x8EE0));
  hg.update_edge(0, {0, 1});
  EXPECT_THROW(hg.relabel_by_degree(), std::logic_error);
  hg.compact();
  EXPECT_NO_THROW(hg.relabel_by_degree());
}
