// tests/test_dynamic.cpp — the dynamic hypergraph engine, differentially.
//
// Every incremental path — delta-overlay queries, incremental degrees,
// incremental s-line-graph / s-CC / toplex maintenance, compaction — is
// replayed against a rebuild-from-scratch oracle over the same mutation
// stream: generate a base hypergraph (gen::arbitrary_hypergraph), apply a
// seed-derived stream of inserts / removals / replacements to both the
// mutable NWHypergraph and a plain ground-truth incidence, then demand the
// composed results match a fresh NWHypergraph built from the ground truth —
// bit-exactly for degrees, BFS distances, CC labels, line-graph edge sets
// and toplex sets, across thread counts {1, 2, 4, hardware}.
//
// Also here: the regression tests for this PR's bugfix sweep — strict
// env-var parsing (nwutil/env.hpp) and checked snapshot write paths that
// surface stream failures as io_error and never unlink non-regular files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "capi/nwhy_capi.h"
#include "nwhy/delta.hpp"
#include "nwhy/io/binary.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/io/matrix_market.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/ref/ref.hpp"
#include "nwhy/slinegraph/incremental.hpp"
#include "nwutil/env.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::same_partition;
namespace ref = nw::hypergraph::ref;

namespace {

/// Ground truth the mutation stream is replayed against: plain per-edge
/// member lists (sorted unique) plus the node-space cardinality.
struct truth_state {
  std::vector<std::vector<vertex_id_t>> edges;
  std::size_t                           num_nodes = 0;

  void apply(vertex_id_t e, std::vector<vertex_id_t> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (e >= edges.size()) edges.resize(std::size_t{e} + 1);
    for (vertex_id_t v : members) num_nodes = std::max(num_nodes, std::size_t{v} + 1);
    edges[e] = std::move(members);
  }

  [[nodiscard]] biedgelist<> to_biedgelist() const {
    biedgelist<> el(edges.size(), num_nodes);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (vertex_id_t v : edges[e]) el.push_back(static_cast<vertex_id_t>(e), v);
    }
    return el;
  }

  [[nodiscard]] ref::incidence to_incidence() const {
    ref::incidence h;
    h.edges = edges;
    h.nodes.resize(num_nodes);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (vertex_id_t v : edges[e]) h.nodes[v].push_back(static_cast<vertex_id_t>(e));
    }
    return h;
  }
};

/// Snapshot the composed state of a freshly-built hypergraph as ground truth.
truth_state truth_of(const NWHypergraph& h) {
  truth_state t;
  t.edges.resize(h.num_hyperedges());
  t.num_nodes = h.num_hypernodes();
  for (std::size_t e = 0; e < t.edges.size(); ++e) {
    t.edges[e] = h.edge_members(static_cast<vertex_id_t>(e));
  }
  return t;
}

/// One seed-derived mutation, applied identically to the engine under test
/// and to the ground truth.
struct mutation {
  enum class kind { update, remove, insert_new } op;
  vertex_id_t              edge;
  std::vector<vertex_id_t> members;
};

/// A replayable mutation stream: replacements of existing edges, removals,
/// and inserts of brand-new edge ids (including ids that grow the node
/// space), in seed-determined order.
std::vector<mutation> mutation_stream(nw::xoshiro256ss& rng, const truth_state& base,
                                      std::size_t count) {
  std::vector<mutation> out;
  std::size_t           ne = base.edges.size();
  const std::size_t     nv = std::max<std::size_t>(base.num_nodes, 4);
  for (std::size_t i = 0; i < count; ++i) {
    auto members_of = [&](std::size_t max_size) {
      std::vector<vertex_id_t> m;
      const std::size_t        sz = rng.bounded(max_size + 1);
      for (std::size_t k = 0; k < sz; ++k) {
        // +2 headroom exercises node-space growth through the overlay.
        m.push_back(static_cast<vertex_id_t>(rng.bounded(nv + 2)));
      }
      return m;
    };
    switch (rng.bounded(3)) {
      case 0:
        if (ne > 0) {
          out.push_back({mutation::kind::update,
                         static_cast<vertex_id_t>(rng.bounded(ne)), members_of(6)});
          break;
        }
        [[fallthrough]];
      case 1:
        out.push_back(
            {mutation::kind::insert_new, static_cast<vertex_id_t>(ne), members_of(6)});
        ++ne;
        break;
      default:
        if (ne > 0) {
          out.push_back(
              {mutation::kind::remove, static_cast<vertex_id_t>(rng.bounded(ne)), {}});
        }
        break;
    }
  }
  return out;
}

void apply_to_engine(NWHypergraph& h, const mutation& m) {
  switch (m.op) {
    case mutation::kind::update: h.update_edge(m.edge, m.members); break;
    case mutation::kind::remove: {
      h.remove_edges(std::span<const vertex_id_t>(&m.edge, 1));
      break;
    }
    case mutation::kind::insert_new: h.insert_edges({{m.edge, m.members}}); break;
  }
}

void apply_to_truth(truth_state& t, const mutation& m) {
  t.apply(m.edge, m.op == mutation::kind::remove ? std::vector<vertex_id_t>{} : m.members);
}

std::vector<vertex_id_t> concat_labels(const std::vector<vertex_id_t>& edge,
                                       const std::vector<vertex_id_t>& node) {
  std::vector<vertex_id_t> all = edge;
  all.insert(all.end(), node.begin(), node.end());
  return all;
}

/// A streambuf whose every write fails — the in-memory stand-in for ENOSPC.
struct failing_streambuf : std::streambuf {
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

}  // namespace

// --- composed queries vs rebuild-from-scratch ---------------------------------------

TEST(Dynamic, ComposedQueriesMatchRebuildAcrossThreads) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0xD15C'0000)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph     dyn(gen::arbitrary_hypergraph(seed));
      truth_state      truth = truth_of(dyn);
      nw::xoshiro256ss rng(seed ^ 0x9E3779B97F4A7C15ull);
      auto             stream = mutation_stream(rng, truth, 10);
      for (const auto& m : stream) {
        apply_to_engine(dyn, m);
        apply_to_truth(truth, m);
        // Degrees are maintained incrementally — check them at every step.
        NWHypergraph rebuilt(truth.to_biedgelist());
        ASSERT_EQ(dyn.edge_sizes(), rebuilt.edge_sizes());
        ASSERT_EQ(dyn.node_degrees(), rebuilt.node_degrees());
        ASSERT_EQ(dyn.num_incidences(), rebuilt.num_incidences());
      }
      NWHypergraph rebuilt(truth.to_biedgelist());
      ASSERT_EQ(dyn.num_hyperedges(), rebuilt.num_hyperedges());
      ASSERT_EQ(dyn.num_hypernodes(), rebuilt.num_hypernodes());

      // Point queries compose base + overlay.
      for (std::size_t e = 0; e < dyn.num_hyperedges(); ++e) {
        ASSERT_EQ(dyn.edge_members(static_cast<vertex_id_t>(e)), truth.edges[e]);
      }
      auto inc = truth.to_incidence();
      for (std::size_t v = 0; v < dyn.num_hypernodes(); ++v) {
        ASSERT_EQ(dyn.incident_edges(static_cast<vertex_id_t>(v)), inc.nodes[v]);
      }

      // Traversals: distances bit-exact, labels bit-exact (min-label
      // convention on both sides).
      if (dyn.num_hyperedges() > 0) {
        const vertex_id_t src = static_cast<vertex_id_t>(dyn.num_hyperedges() / 2);
        auto              a   = dyn.bfs(src);
        auto              b   = rebuilt.bfs(src);
        EXPECT_EQ(a.dist_edge, b.dist_edge);
        EXPECT_EQ(a.dist_node, b.dist_node);
      }
      auto ca = dyn.connected_components();
      auto cb = rebuilt.connected_components();
      EXPECT_EQ(ca.labels_edge, cb.labels_edge);
      EXPECT_EQ(ca.labels_node, cb.labels_node);

      EXPECT_EQ(dyn.toplexes(), rebuilt.toplexes());

      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("s=" + std::to_string(s));
        EXPECT_EQ(nwtest::csr_pairs(dyn.make_s_linegraph(s).graph()),
                  nwtest::csr_pairs(rebuilt.make_s_linegraph(s).graph()));
        EXPECT_TRUE(same_partition(dyn.s_connected_components_implicit(s),
                                   rebuilt.s_connected_components_implicit(s)));
      }

      // The rebuild runs the same engines as the pending-delta path, so
      // also hold every pending-delta answer against the serial oracles on
      // the ground truth.
      if (dyn.num_hyperedges() > 0) {
        const vertex_id_t src  = static_cast<vertex_id_t>(dyn.num_hyperedges() / 2);
        auto              a    = dyn.bfs(src);
        auto              want = ref::bfs_levels(inc, src);
        EXPECT_EQ(a.dist_edge, want.dist_edge);
        EXPECT_EQ(a.dist_node, want.dist_node);
      }
      auto cc_want = ref::cc_labels(inc);
      EXPECT_TRUE(same_partition(concat_labels(ca.labels_edge, ca.labels_node),
                                 concat_labels(cc_want.labels_edge, cc_want.labels_node)));
      EXPECT_EQ(dyn.toplexes(), ref::toplexes(inc));
      const auto census      = dyn.motifs();
      const auto census_want = ref::motif_counts(inc);
      EXPECT_EQ(census.wedges, census_want.wedges);
      EXPECT_EQ(census.triads, census_want.triads);
      EXPECT_EQ(census.open_wedges, census_want.open_wedges);
      EXPECT_EQ(census.butterflies, census_want.butterflies);
      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("oracle s=" + std::to_string(s));
        EXPECT_EQ(nwtest::csr_pairs(dyn.make_s_linegraph(s).graph()), ref::s_line_edges(inc, s));
        EXPECT_TRUE(same_partition(dyn.s_connected_components_implicit(s),
                                   ref::s_components(inc, s)));
        for (int k = 0; k < 4 && dyn.num_hyperedges() > 0; ++k) {
          const auto x = static_cast<vertex_id_t>(rng.bounded(dyn.num_hyperedges()));
          const auto y = static_cast<vertex_id_t>(rng.bounded(dyn.num_hyperedges()));
          EXPECT_EQ(dyn.s_distance_implicit(s, x, y), ref::s_distance(inc, s, x, y))
              << "endpoints " << x << ", " << y;
        }
      }

      // Compaction folds the overlay into a new generation with the exact
      // edge list a from-scratch build produces.
      const std::uint64_t v_before = dyn.version();
      dyn.compact();
      EXPECT_FALSE(dyn.has_pending_delta());
      EXPECT_EQ(dyn.version(), v_before) << "compact() must preserve content";
      auto want = rebuilt.edge_list();
      auto got  = dyn.edge_list();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.edge_ids(), want.edge_ids());
      EXPECT_EQ(got.node_ids(), want.node_ids());
      EXPECT_EQ(dyn.edge_sizes(), rebuilt.edge_sizes());
      EXPECT_EQ(dyn.node_degrees(), rebuilt.node_degrees());
      EXPECT_EQ(dyn.toplexes(), rebuilt.toplexes());
    }
  }
}

TEST(Dynamic, AdjoinAndDerivedGraphsComposeTheOverlay) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0xD15C'1000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph     dyn(gen::arbitrary_hypergraph(seed));
    truth_state      truth = truth_of(dyn);
    nw::xoshiro256ss rng(seed * 2654435761u + 1);
    for (const auto& m : mutation_stream(rng, truth, 6)) {
      apply_to_engine(dyn, m);
      apply_to_truth(truth, m);
    }
    NWHypergraph rebuilt(truth.to_biedgelist());

    auto la = dyn.connected_components_adjoin();
    auto lb = rebuilt.connected_components_adjoin();
    EXPECT_TRUE(same_partition(concat_labels(la.labels_edge, la.labels_node),
                               concat_labels(lb.labels_edge, lb.labels_node)));

    EXPECT_EQ(nwtest::csr_pairs(dyn.clique_expansion_graph()),
              nwtest::csr_pairs(rebuilt.clique_expansion_graph()));

    auto da = dyn.dual();
    auto db = rebuilt.dual();
    EXPECT_EQ(da.edge_list().edge_ids(), db.edge_list().edge_ids());
    EXPECT_EQ(da.edge_list().node_ids(), db.edge_list().node_ids());

    auto wa = dyn.weighted_linegraph_edges();
    auto wb = rebuilt.weighted_linegraph_edges();
    EXPECT_EQ(wa.size(), wb.size());
  }
}

// --- edge cases ----------------------------------------------------------------------

TEST(Dynamic, DeleteThenReinsertRestoresTheOriginal) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  auto         original = truth_of(h);
  const auto   members1 = h.edge_members(1);
  ASSERT_FALSE(members1.empty());

  h.remove_edges(std::vector<vertex_id_t>{1});
  EXPECT_TRUE(h.edge_members(1).empty());
  EXPECT_EQ(h.edge_sizes()[1], 0u);
  EXPECT_TRUE(h.has_pending_delta());

  h.update_edge(1, members1);
  for (std::size_t e = 0; e < h.num_hyperedges(); ++e) {
    EXPECT_EQ(h.edge_members(static_cast<vertex_id_t>(e)), original.edges[e]);
  }
  h.compact();
  NWHypergraph fresh(nwtest::figure1_hypergraph());
  EXPECT_EQ(h.edge_list().edge_ids(), fresh.edge_list().edge_ids());
  EXPECT_EQ(h.edge_list().node_ids(), fresh.edge_list().node_ids());
}

TEST(Dynamic, TombstoneOnlyGraphIsFullyEmpty) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  std::vector<vertex_id_t> all(h.num_hyperedges());
  for (std::size_t e = 0; e < all.size(); ++e) all[e] = static_cast<vertex_id_t>(e);
  h.remove_edges(all);

  EXPECT_EQ(h.num_incidences(), 0u);
  for (std::size_t v = 0; v < h.num_hypernodes(); ++v) {
    EXPECT_EQ(h.node_degrees()[v], 0u);
    EXPECT_TRUE(h.incident_edges(static_cast<vertex_id_t>(v)).empty());
  }
  // All-empty hypergraph: the toplex convention keeps exactly edge 0.
  EXPECT_EQ(h.toplexes(), (std::vector<vertex_id_t>{0}));
  auto cc = h.connected_components();
  for (std::size_t e = 0; e < cc.labels_edge.size(); ++e) {
    EXPECT_EQ(cc.labels_edge[e], static_cast<vertex_id_t>(e)) << "singleton components";
  }
  h.compact();
  EXPECT_EQ(h.num_incidences(), 0u);
  EXPECT_EQ(h.num_hyperedges(), 4u) << "ids stay stable through tombstone compaction";
}

TEST(Dynamic, OutOfRangeSourcesReachNothingInBothStates) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  const vertex_id_t bad = 99;
  for (bool pending : {true, false}) {
    SCOPED_TRACE(pending ? "pending delta" : "compacted");
    if (pending) h.update_edge(0, {0, 5});
    ASSERT_EQ(h.has_pending_delta(), pending);
    auto r = h.bfs(bad);
    EXPECT_EQ(r.dist_edge, std::vector<vertex_id_t>(h.num_hyperedges(), nw::null_vertex<>));
    EXPECT_EQ(r.dist_node, std::vector<vertex_id_t>(h.num_hypernodes(), nw::null_vertex<>));
    EXPECT_EQ(h.s_distance_implicit(1, bad, 0), std::nullopt);
    EXPECT_EQ(h.s_distance_implicit(1, 0, bad), std::nullopt);
    h.compact();
  }
}

TEST(Dynamic, PendingDeltaBlocksBaseAccessors) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  h.update_edge(0, {0, 5});
  EXPECT_THROW((void)h.edge_list(), std::logic_error);
  EXPECT_THROW((void)h.hyperedges(), std::logic_error);
  EXPECT_THROW((void)h.hypernodes(), std::logic_error);
  EXPECT_THROW(h.save_csr_snapshot("/tmp/nwhy_should_not_exist.nwcsr"), std::logic_error);
  h.compact();
  EXPECT_NO_THROW((void)h.edge_list());
}

TEST(Dynamic, PinnedGenerationSurvivesCompaction) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  auto         pinned   = h.generation();
  const auto   pinned_id = pinned->id;
  const auto   want_row  = h.edge_members(1);

  h.update_edge(0, {7, 8});
  h.remove_edges(std::vector<vertex_id_t>{2});
  h.compact();

  // The live generation moved on...
  EXPECT_GT(h.generation()->id, pinned_id);
  // ...but the pinned one still answers queries with pre-mutation content.
  std::vector<vertex_id_t> row;
  for (auto&& t : pinned->hyperedges[1]) row.push_back(target(t));
  EXPECT_EQ(row, want_row);
  EXPECT_EQ(pinned->el.size(), nwtest::figure1_hypergraph().size());
}

TEST(Dynamic, VersionBumpsOnMutationOnly) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  auto         token = h.version_token();
  EXPECT_EQ(*token, 0u);
  h.update_edge(1, {2, 3});
  EXPECT_EQ(*token, 1u);
  h.remove_edges(std::vector<vertex_id_t>{0});
  EXPECT_EQ(*token, 2u);
  h.compact();
  EXPECT_EQ(*token, 2u) << "compaction preserves content";
  EXPECT_EQ(h.version(), 2u);
}

TEST(Dynamic, AutoCompactionHonorsThreshold) {
  // The threshold is a read-once env knob; exercise the mechanics directly:
  // grow a delta past the default threshold's reach and compact explicitly.
  NWHypergraph h(nwtest::figure1_hypergraph());
  for (vertex_id_t e = 0; e < 64; ++e) {
    h.update_edge(4 + e, {static_cast<vertex_id_t>(e % 9), static_cast<vertex_id_t>((e + 1) % 9)});
  }
  EXPECT_EQ(h.delta_size(), 64u);
  EXPECT_EQ(h.num_hyperedges(), 68u);
  h.compact();
  EXPECT_EQ(h.delta_size(), 0u);
  EXPECT_EQ(h.num_hyperedges(), 68u);
  EXPECT_EQ(compact_threshold(), 4096u) << "default threshold";
  EXPECT_EQ(delta_reserve(), 256u) << "default reserve";
}

// --- incremental s-line graph --------------------------------------------------------

TEST(Dynamic, IncrementalSlinegraphMatchesOracleUnderMutation) {
  for (auto seed : nwtest::differential_seeds(0xD15C'2000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph base(gen::arbitrary_hypergraph(seed));
    truth_state  truth = truth_of(base);
    for (std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE("s=" + std::to_string(s));
      incremental_slinegraph inc(base, s);
      truth_state            t = truth;
      nw::xoshiro256ss       rng(seed + s);
      for (const auto& m : mutation_stream(rng, t, 8)) {
        if (m.op == mutation::kind::remove) {
          inc.remove_edge(m.edge);
        } else {
          inc.update_edge(m.edge, m.members);
        }
        apply_to_truth(t, m);
        auto h      = t.to_incidence();
        auto oracle = ref::s_line_edges(h, s);
        auto got    = inc.pairs();
        std::sort(oracle.begin(), oracle.end());
        ASSERT_EQ(got, oracle);
        ASSERT_EQ(inc.s_connected_components(), ref::s_components(h, s));
      }
      // Spot-check distances on the final state.
      auto h = t.to_incidence();
      for (vertex_id_t src = 0; src < std::min<std::size_t>(h.num_edges(), 3); ++src) {
        for (vertex_id_t dst = 0; dst < std::min<std::size_t>(h.num_edges(), 3); ++dst) {
          EXPECT_EQ(inc.s_distance(src, dst), ref::s_distance(h, s, src, dst));
        }
      }
    }
  }
}

TEST(Dynamic, IncrementalSDistanceMatchesOracleAcrossThreads) {
  // The maintained line graph's s_distance runs the parallel level step;
  // every pair agrees with the serial oracle at every thread count.
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0xD15C'2500)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph base(gen::arbitrary_hypergraph(seed));
      truth_state  truth = truth_of(base);
      for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("s=" + std::to_string(s));
        incremental_slinegraph inc(base, s);
        truth_state            t = truth;
        nw::xoshiro256ss       rng(seed + s);
        for (const auto& m : mutation_stream(rng, t, 4)) {
          if (m.op == mutation::kind::remove) {
            inc.remove_edge(m.edge);
          } else {
            inc.update_edge(m.edge, m.members);
          }
          apply_to_truth(t, m);
        }
        auto              h = t.to_incidence();
        const std::size_t n = std::min<std::size_t>(h.num_edges(), 16);
        for (vertex_id_t src = 0; src < n; ++src) {
          for (vertex_id_t dst = 0; dst < n; ++dst) {
            ASSERT_EQ(inc.s_distance(src, dst), ref::s_distance(h, s, src, dst))
                << "src=" << src << " dst=" << dst;
          }
        }
      }
    }
  }
}

TEST(Dynamic, IncrementalToplexesMatchOracleUnderMutation) {
  for (auto seed : nwtest::differential_seeds(0xD15C'3000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph base(gen::arbitrary_hypergraph(seed));
    truth_state  truth = truth_of(base);
    incremental_toplexes inc(base);
    EXPECT_EQ(inc.toplexes(), base.toplexes());
    nw::xoshiro256ss rng(~seed);
    for (const auto& m : mutation_stream(rng, truth, 10)) {
      if (m.op == mutation::kind::remove) {
        inc.remove_edge(m.edge);
      } else {
        inc.update_edge(m.edge, m.members);
      }
      apply_to_truth(truth, m);
      NWHypergraph rebuilt(truth.to_biedgelist());
      ASSERT_EQ(inc.toplexes(), rebuilt.toplexes());
      // rebuilt.toplexes() runs the same predicate; the all-pairs oracle
      // is the independent check.
      ASSERT_EQ(inc.toplexes(), ref::toplexes(truth.to_incidence()));
    }
  }
}

// --- C API staleness -----------------------------------------------------------------

TEST(Dynamic, CapiMutationInvalidatesLinegraphHandles) {
  const uint32_t  edges[] = {0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  const uint32_t  nodes[] = {0, 1, 2, 1, 2, 3, 4, 4, 5, 6, 6, 7, 8};
  nwhy_hypergraph* hg     = nwhy_hypergraph_create(edges, nodes, nullptr, 13);
  ASSERT_NE(hg, nullptr);
  EXPECT_EQ(nwhy_version(hg), 0u);

  nwhy_slinegraph* lg = nwhy_s_linegraph(hg, 1, 1);
  ASSERT_NE(lg, nullptr);
  EXPECT_EQ(nwhy_slg_is_stale(lg), 0);
  EXPECT_EQ(nwhy_slg_num_vertices(lg), 4u);
  EXPECT_GT(nwhy_slg_s_degree(lg, 1), 0u);

  const uint32_t grown[] = {0, 5};
  ASSERT_EQ(nwhy_insert_edge(hg, 4, grown, 2), 0);
  EXPECT_EQ(nwhy_version(hg), 1u);
  EXPECT_EQ(nwhy_delta_size(hg), 1u);
  EXPECT_EQ(nwhy_num_hyperedges(hg), 5u);

  // The pre-mutation handle answers only with sentinels now.
  EXPECT_EQ(nwhy_slg_is_stale(lg), 1);
  EXPECT_EQ(nwhy_slg_num_vertices(lg), 0u);
  EXPECT_EQ(nwhy_slg_num_edges(lg), 0u);
  EXPECT_EQ(nwhy_slg_s_degree(lg, 1), 0u);
  EXPECT_EQ(nwhy_slg_s_neighbors(lg, 1, nullptr), 0u);
  EXPECT_EQ(nwhy_slg_s_distance(lg, 0, 1), NWHY_NULL_ID);
  std::vector<uint32_t> labels(4, 7);
  nwhy_slg_s_connected_components(lg, labels.data());
  for (auto l : labels) EXPECT_EQ(l, NWHY_NULL_ID);
  std::vector<double> cent(4, 1.0);
  nwhy_slg_s_closeness_centrality(lg, cent.data());
  for (auto c : cent) EXPECT_EQ(c, 0.0);

  // A fresh handle sees the mutated hypergraph; compaction keeps it fresh.
  nwhy_slinegraph* lg2 = nwhy_s_linegraph(hg, 1, 1);
  EXPECT_EQ(nwhy_slg_is_stale(lg2), 0);
  EXPECT_EQ(nwhy_slg_num_vertices(lg2), 5u);
  ASSERT_EQ(nwhy_compact(hg), 0);
  EXPECT_EQ(nwhy_delta_size(hg), 0u);
  EXPECT_EQ(nwhy_slg_is_stale(lg2), 0) << "compaction preserves content";

  std::vector<uint32_t> members(8);
  EXPECT_EQ(nwhy_edge_members(hg, 4, members.data()), 2u);
  EXPECT_EQ(members[0], 0u);
  EXPECT_EQ(members[1], 5u);
  EXPECT_EQ(nwhy_remove_edge(hg, 4), 0);
  EXPECT_EQ(nwhy_edge_members(hg, 4, nullptr), 0u);
  EXPECT_EQ(nwhy_slg_is_stale(lg2), 1);

  nwhy_slinegraph_destroy(lg);
  nwhy_slinegraph_destroy(lg2);
  nwhy_hypergraph_destroy(hg);
}

TEST(Dynamic, CapiSlinegraphTokenOutlivesTheHypergraph) {
  const uint32_t   edges[] = {0, 0, 1, 1};
  const uint32_t   nodes[] = {0, 1, 1, 2};
  nwhy_hypergraph* hg      = nwhy_hypergraph_create(edges, nodes, nullptr, 4);
  nwhy_slinegraph* lg      = nwhy_s_linegraph(hg, 1, 1);
  nwhy_hypergraph_destroy(hg);
  // The version token is shared ownership: no dangling read here.
  EXPECT_EQ(nwhy_slg_is_stale(lg), 0);
  EXPECT_EQ(nwhy_slg_num_vertices(lg), 2u);
  nwhy_slinegraph_destroy(lg);
}

// --- bugfix regressions: strict env parsing ------------------------------------------

TEST(StrictEnv, ParseAcceptsExactUnsignedIntegersOnly) {
  std::uint64_t v = 0;
  EXPECT_TRUE(nw::util::parse_u64_strict("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(nw::util::parse_u64_strict("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());

  EXPECT_FALSE(nw::util::parse_u64_strict("", v));
  EXPECT_FALSE(nw::util::parse_u64_strict("12abc", v)) << "trailing junk";
  EXPECT_FALSE(nw::util::parse_u64_strict("abc", v));
  EXPECT_FALSE(nw::util::parse_u64_strict("-3", v)) << "negative";
  EXPECT_FALSE(nw::util::parse_u64_strict("+5", v)) << "explicit sign";
  EXPECT_FALSE(nw::util::parse_u64_strict(" 12", v)) << "leading space";
  EXPECT_FALSE(nw::util::parse_u64_strict("12 ", v)) << "trailing space";
  EXPECT_FALSE(nw::util::parse_u64_strict("0x10", v)) << "hex";
  EXPECT_FALSE(nw::util::parse_u64_strict("18446744073709551616", v)) << "overflow";
  EXPECT_FALSE(nw::util::parse_u64_strict("3.5", v)) << "float";
}

TEST(StrictEnv, EnvKnobFallsBackOnGarbageAndRange) {
  setenv("NWHY_TEST_STRICT_KNOB", "48", 1);
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7), 48u);

  setenv("NWHY_TEST_STRICT_KNOB", "48garbage", 1);
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7), 7u);

  setenv("NWHY_TEST_STRICT_KNOB", "-1", 1);
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7), 7u);

  // Out of the declared [min, max] window -> fallback, not clamp.
  setenv("NWHY_TEST_STRICT_KNOB", "100000", 1);
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7, 1, 65536), 7u);
  setenv("NWHY_TEST_STRICT_KNOB", "0", 1);
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7, 1, 65536), 7u);

  unsetenv("NWHY_TEST_STRICT_KNOB");
  EXPECT_EQ(nw::util::env_u64_strict("NWHY_TEST_STRICT_KNOB", 7), 7u) << "unset -> quiet default";
}

// --- bugfix regressions: checked snapshot write paths --------------------------------

TEST(WriteHardening, StreamWriteFailuresThrowIoError) {
  NWHypergraph h(nwtest::figure1_hypergraph());
  failing_streambuf buf;
  {
    std::ostream out(&buf);
    EXPECT_THROW(write_binary(out, h.edge_list()), io_error);
  }
  {
    std::ostream out(&buf);
    EXPECT_THROW(write_matrix_market(out, h.edge_list()), io_error);
  }
  {
    std::ostream out(&buf);
    EXPECT_THROW(write_csr_snapshot(out, h.hyperedges(), h.hypernodes()), io_error);
  }
}

TEST(WriteHardening, PathOverloadRemovesThePartialFile) {
  const std::string dir  = ::testing::TempDir();
  const std::string path = dir + "/nwhy_partial_out.bin";
  // A directory at the target path makes the ofstream open fail cleanly...
  NWHypergraph h(nwtest::figure1_hypergraph());
  EXPECT_THROW(write_binary(dir, h.edge_list()), io_error);
  // ...while a successful write round-trips, proving the checked path does
  // not disturb the happy case.
  write_binary(path, h.edge_list());
  auto el = read_binary(path);
  EXPECT_EQ(el.size(), h.num_incidences());
  std::remove(path.c_str());
}

TEST(WriteHardening, DeviceTargetsAreNeverUnlinked) {
  struct stat st{};
  if (::stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode)) {
    GTEST_SKIP() << "/dev/full not available";
  }
  NWHypergraph h(nwtest::figure1_hypergraph());
  // Writes to /dev/full fail with ENOSPC at flush at the latest; the
  // failure must surface as io_error and the device node must survive the
  // partial-output cleanup (the S_ISREG guard).
  EXPECT_THROW(write_binary(std::string("/dev/full"), h.edge_list()), io_error);
  EXPECT_EQ(::stat("/dev/full", &st), 0) << "/dev/full must not be unlinked";
  EXPECT_TRUE(S_ISCHR(st.st_mode));
}
