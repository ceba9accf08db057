// tests/test_frontier.cpp — the par::frontier engine: bitmap word access,
// parallel clear/count/conversion primitives, the hybrid frontier's
// sparse<->dense life cycle and fused scout channel, and agreement of every
// BFS engine that sits on top of it (graph direction-optimizing, forced
// top-down and bottom-up, distances, HyperBFS, Hygra) with serial
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <tuple>
#include <vector>

#include "hygra/algorithms.hpp"
#include "hygra/edge_map.hpp"
#include "nwgraph/algorithms/bfs.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwpar/frontier.hpp"
#include "test_util.hpp"

using namespace nw::graph;
using nw::vertex_id_t;
using nwtest::random_graph;
using nwtest::reference_bfs_distances;

namespace {

// Universe sizes straddling word boundaries.
const std::vector<std::size_t> kSizes = {0, 1, 63, 64, 65, 127, 128, 1000, 4097};

/// Deterministic sparse member set of [0, n): every third element plus both
/// boundary bits of every word.
std::vector<vertex_id_t> pattern_ids(std::size_t n) {
  std::vector<vertex_id_t> ids;
  for (std::size_t i = 0; i < n; i += 3) ids.push_back(static_cast<vertex_id_t>(i));
  for (std::size_t i = 63; i < n; i += 64) ids.push_back(static_cast<vertex_id_t>(i));
  for (std::size_t i = 64; i < n; i += 64) ids.push_back(static_cast<vertex_id_t>(i));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// parents[] validity: parents[source] == source; every other reached vertex
/// has a reached parent exactly one BFS level closer to the source.
template <class Graph>
void expect_valid_parents(const Graph& g, vertex_id_t source,
                          const std::vector<vertex_id_t>& parents) {
  auto dist = reference_bfs_distances(g, source);
  ASSERT_EQ(parents.size(), dist.size());
  for (std::size_t v = 0; v < parents.size(); ++v) {
    if (dist[v] == nw::null_vertex<>) {
      EXPECT_EQ(parents[v], nw::null_vertex<>) << "v=" << v;
    } else if (v == source) {
      EXPECT_EQ(parents[v], source);
    } else {
      ASSERT_NE(parents[v], nw::null_vertex<>) << "v=" << v;
      EXPECT_EQ(dist[parents[v]] + 1, dist[v]) << "v=" << v;
    }
  }
}

// --- bitmap word accessors ---------------------------------------------------

TEST(BitmapWords, AccessorsRoundTrip) {
  nw::bitmap bm(130);
  EXPECT_EQ(nw::bitmap::word_bits, 64u);
  EXPECT_EQ(bm.num_words(), 3u);
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(129);
  EXPECT_EQ(bm.word(0), (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(bm.word(1), 1u);
  EXPECT_EQ(bm.word(2), std::uint64_t{1} << 1);
  bm.set_word(1, 0xffffu);
  EXPECT_EQ(bm.count(), 3u + 16u);
  EXPECT_EQ(bm.words().size(), bm.num_words());
}

TEST(BitmapWords, ResizeKeepsCapacityAndZeroes) {
  nw::bitmap bm(4096);
  for (std::size_t i = 0; i < 4096; i += 7) bm.set(i);
  ASSERT_GT(bm.count(), 0u);
  bm.resize(4096);  // same size: all zero again
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_EQ(bm.size(), 4096u);
  bm.resize(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.num_words(), 2u);
  EXPECT_EQ(bm.count(), 0u);
}

// --- parallel primitives -----------------------------------------------------

TEST(FrontierPrimitives, ParallelCountAndClearMatchSerial) {
  for (unsigned threads : {1u, 2u, 4u}) {
    nw::par::thread_pool pool(threads);
    for (std::size_t n : kSizes) {
      nw::bitmap bm(n);
      auto       ids = pattern_ids(n);
      for (auto v : ids) bm.set(v);
      EXPECT_EQ(nw::par::bitmap_count(bm, pool), bm.count()) << "n=" << n;
      EXPECT_EQ(nw::par::bitmap_count(bm, pool), ids.size()) << "n=" << n;
      nw::par::bitmap_clear(bm, pool);
      EXPECT_EQ(bm.count(), 0u) << "n=" << n;
    }
  }
}

TEST(FrontierPrimitives, SparseDenseRoundTrips) {
  for (unsigned threads : {1u, 2u, 4u}) {
    nw::par::thread_pool pool(threads);
    for (std::size_t n : kSizes) {
      // Patterns: empty, full, single first/last bit, every-third.
      std::vector<std::vector<vertex_id_t>> patterns;
      patterns.emplace_back();  // empty
      if (n > 0) {
        std::vector<vertex_id_t> full(n);
        std::iota(full.begin(), full.end(), 0);
        patterns.push_back(std::move(full));
        patterns.push_back({0});
        patterns.push_back({static_cast<vertex_id_t>(n - 1)});
        patterns.push_back(pattern_ids(n));
      }
      for (const auto& ids : patterns) {
        nw::bitmap bm(n);
        nw::par::bitmap_fill_from(bm, ids, pool);
        EXPECT_EQ(bm.count(), ids.size()) << "n=" << n;
        std::vector<vertex_id_t> out;
        std::size_t              total = nw::par::bitmap_to_sparse(bm, out, pool);
        EXPECT_EQ(total, ids.size()) << "n=" << n;
        EXPECT_EQ(out, ids) << "n=" << n;  // conversion emits sorted ids
      }
    }
  }
}

// --- the hybrid frontier -----------------------------------------------------

TEST(Frontier, AssignAndLazyConversions) {
  nw::par::frontier f(200);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.has_sparse());
  f.assign_single(7);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.has_dense());
  EXPECT_TRUE(f.bits().get(7));  // lazy densify
  EXPECT_TRUE(f.has_dense());

  f.assign({3, 100, 199});
  EXPECT_EQ(f.size(), 3u);
  const auto& bits = f.bits();
  EXPECT_TRUE(bits.get(3));
  EXPECT_TRUE(bits.get(100));
  EXPECT_TRUE(bits.get(199));
  EXPECT_FALSE(bits.get(4));
  EXPECT_EQ(f.density_permille(), 3u * 1000 / 200);
}

TEST(Frontier, SparseEmitCommitAndScout) {
  nw::par::frontier f(1000), next(1000);
  f.assign({1, 2, 3});
  // Emit from a parallel loop with fused degrees.
  const auto& ids = f.ids();
  nw::par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
    next.emit(tid, static_cast<vertex_id_t>(ids[i] + 10), /*degree=*/5);
  });
  EXPECT_EQ(next.commit_sparse(), 3u);
  EXPECT_EQ(next.take_scout(), 15u);
  EXPECT_EQ(next.take_scout(), 0u);  // drained
  auto sorted = next.ids();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<vertex_id_t>{11, 12, 13}));
}

TEST(Frontier, DenseEmitCommitRoundTrip) {
  nw::par::frontier f(300);
  f.begin_dense();
  nw::par::parallel_for(0, 300, [&](unsigned tid, std::size_t v) {
    if (v % 5 == 0) f.emit_dense(tid, static_cast<vertex_id_t>(v), /*degree=*/2);
  });
  EXPECT_EQ(f.commit_dense(), 60u);
  EXPECT_TRUE(f.has_dense());
  EXPECT_FALSE(f.has_sparse());
  EXPECT_EQ(f.take_scout(), 120u);
  const auto& ids = f.ids();  // lazy sparsify
  ASSERT_EQ(ids.size(), 60u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i * 5);
}

TEST(Frontier, DenseEmitDuplicatesDoNotInflateSize) {
  nw::par::frontier f(128);
  f.begin_dense();
  // Every worker emits the same two vertices (zero and non-zero scout
  // weight): only the 0->1 flips may count toward size and scout.
  nw::par::parallel_for(0, 64, [&](unsigned tid, std::size_t) {
    f.emit_dense(tid, 7, /*degree=*/0);
    f.emit_dense(tid, 9, /*degree=*/3);
  });
  EXPECT_EQ(f.commit_dense(), 2u);
  EXPECT_EQ(f.take_scout(), 3u);
  auto ids = f.ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<vertex_id_t>{7, 9}));
}

TEST(Frontier, SwapExchangesMembership) {
  nw::par::frontier a(64), b(64);
  a.assign({1, 2});
  b.assign({9});
  a.swap(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.ids(), (std::vector<vertex_id_t>{9}));
  // init() keeps the object reusable with fresh membership.
  b.init(64);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.has_sparse());
}

TEST(Frontier, EnvKnobParsing) {
  setenv("NWHY_TEST_KNOB", "42", 1);
  EXPECT_EQ(nw::par::detail::env_knob("NWHY_TEST_KNOB", 7), 42u);
  setenv("NWHY_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(nw::par::detail::env_knob("NWHY_TEST_KNOB", 7), 7u);
  unsetenv("NWHY_TEST_KNOB");
  EXPECT_EQ(nw::par::detail::env_knob("NWHY_TEST_KNOB", 7), 7u);
  // Defaults (env unset in the test harness): alpha 15, beta 18.
  EXPECT_GT(nw::par::bfs_alpha(), 0u);
  EXPECT_GT(nw::par::bfs_beta(), 0u);
}

// --- the level step -----------------------------------------------------------

TEST(LevelStep, PushAndPullClaimTheSameLevel) {
  nw::par::thread_pool pool(1);
  adjacency<>          g(random_graph(300, 900, 5));
  const auto           ref = reference_bfs_distances(g, 0);
  std::vector<vertex_id_t> level1, level2;
  std::size_t              level1_degrees = 0, level2_degrees = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (ref[v] == 1) {
      level1.push_back(static_cast<vertex_id_t>(v));
      level1_degrees += g.degree(v);
    } else if (ref[v] == 2) {
      level2.push_back(static_cast<vertex_id_t>(v));
      level2_degrees += g.degree(v);
    }
  }
  ASSERT_FALSE(level2.empty());

  // Expand level 1 by one step; returns the claimed ids, sorted.
  auto step = [&](bool pull, vertex_id_t target, nw::par::step_stats& st) {
    std::vector<vertex_id_t> dist(ref.size(), nw::null_vertex<>);
    for (std::size_t v = 0; v < ref.size(); ++v) {
      if (ref[v] <= 1) dist[v] = ref[v];
    }
    nw::par::frontier front(g.size(), pool), next(g.size(), pool);
    front.assign(level1);
    const auto claim  = [&](vertex_id_t, vertex_id_t v) { return nw::claim_unset(dist[v], 2); };
    const auto degree = [&](vertex_id_t v) { return g.degree(v); };
    st = pull ? nw::par::pull_step(
                    front, next, csr_rows(g),
                    [&](vertex_id_t v) { return dist[v] == nw::null_vertex<>; },
                    [&](vertex_id_t, vertex_id_t v) { dist[v] = 2; }, degree,
                    nw::par::never_stop{}, pool)
              : nw::par::push_step(front, next, csr_rows(g), claim, degree, target,
                                   nw::par::never_stop{}, pool);
    auto ids = next.ids();
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  nw::par::step_stats push, pull, hit;
  EXPECT_EQ(step(false, nw::null_vertex<>, push), level2);
  EXPECT_EQ(push.added, level2.size());
  EXPECT_EQ(push.scout, level2_degrees);
  EXPECT_EQ(push.scanned, level1_degrees);  // every frontier row, in full
  EXPECT_FALSE(push.hit);
  EXPECT_EQ(step(true, nw::null_vertex<>, pull), level2);
  EXPECT_EQ(pull.added, level2.size());
  EXPECT_EQ(pull.scout, level2_degrees);
  EXPECT_FALSE(pull.hit);
  // A target on level 2 is reported, and the rows after its claimer go
  // unread.
  auto with_target = step(false, level2.front(), hit);
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(std::binary_search(with_target.begin(), with_target.end(), level2.front()));
  EXPECT_LE(hit.scanned, push.scanned);

  // A hook that fires throws from the calling thread, in both directions.
  nw::par::frontier front(g.size(), pool), next(g.size(), pool);
  front.assign(level1);
  std::vector<vertex_id_t> dist(ref.size(), nw::null_vertex<>);
  const auto claim = [&](vertex_id_t, vertex_id_t v) { return nw::claim_unset(dist[v], 2); };
  const auto fire  = [] { return true; };
  EXPECT_THROW((void)nw::par::push_step(front, next, csr_rows(g), claim, nw::par::no_weight{},
                                        nw::null_vertex<>, fire, pool),
               nw::par::cancelled);
  EXPECT_THROW((void)nw::par::pull_step(
                   front, next, csr_rows(g), [](vertex_id_t) { return true; },
                   [](vertex_id_t, vertex_id_t) {}, nw::par::no_weight{}, fire, pool),
               nw::par::cancelled);
}

// --- BFS engine agreement ----------------------------------------------------

TEST(FrontierBfs, AllGraphVariantsAgreeWithReference) {
  using nw::obs::registry;
  using nwtest::direction_steps;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    adjacency<> g(random_graph(150, 400, seed));
    for (vertex_id_t src : {0u, 17u, 149u}) {
      auto ref = reference_bfs_distances(g, src);
      expect_valid_parents(g, src, bfs_direction_optimizing(g, src));
      // Forced extremes: always-top-down and always-bottom-up, with the
      // direction read back from the step counters.
      registry::get().reset();
      expect_valid_parents(g, src, bfs_direction_optimizing(g, src, nwtest::top_down_alpha));
      auto [td, bu] = direction_steps("graph_bfs");
      EXPECT_GT(td, 0u);
      EXPECT_EQ(bu, 0u);
      registry::get().reset();
      expect_valid_parents(
          g, src,
          bfs_direction_optimizing(g, src, nwtest::bottom_up_alpha, nwtest::bottom_up_beta));
      std::tie(td, bu) = direction_steps("graph_bfs");
      EXPECT_EQ(td, 0u);
      EXPECT_GT(bu, 0u);
      EXPECT_EQ(bfs_distances(g, src), ref);
    }
  }
}

TEST(FrontierBfs, DisconnectedGraphLeavesNulls) {
  // Two cliques, no edge between them.
  edge_list<> el(10);
  for (vertex_id_t u = 0; u < 5; ++u)
    for (vertex_id_t v = 0; v < 5; ++v)
      if (u != v) el.push_back(u, v);
  for (vertex_id_t u = 5; u < 10; ++u)
    for (vertex_id_t v = 5; v < 10; ++v)
      if (u != v) el.push_back(u, v);
  el.sort_and_unique();
  adjacency<> g(el);
  for (auto parents : {bfs_direction_optimizing(g, 0, nwtest::top_down_alpha),
                       bfs_direction_optimizing(g, 0, nwtest::bottom_up_alpha,
                                                nwtest::bottom_up_beta),
                       bfs_direction_optimizing(g, 0)}) {
    for (vertex_id_t v = 0; v < 5; ++v) EXPECT_NE(parents[v], nw::null_vertex<>);
    for (vertex_id_t v = 5; v < 10; ++v) EXPECT_EQ(parents[v], nw::null_vertex<>);
  }
}

TEST(FrontierBfs, HyperBfsAlphaBetaExtremesAgree) {
  using namespace nw::hypergraph;
  using nw::obs::registry;
  using nwtest::direction_steps;
  auto el = gen::uniform_random_hypergraph(120, 150, 4, 99);
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  auto           def = hyper_bfs(hyperedges, hypernodes, 0);
  // Force always-bottom-up and always-top-down; distances must agree, and
  // the step counters show each run kept to its direction.
  registry::get().reset();
  auto bu = hyper_bfs(hyperedges, hypernodes, 0, nwtest::bottom_up_alpha, nwtest::bottom_up_beta);
  auto [bu_td, bu_bu] = direction_steps("hyper_bfs");
  EXPECT_EQ(bu_td, 0u);
  EXPECT_GT(bu_bu, 0u);
  registry::get().reset();
  auto td = hyper_bfs(hyperedges, hypernodes, 0, nwtest::top_down_alpha);
  auto [td_td, td_bu] = direction_steps("hyper_bfs");
  EXPECT_GT(td_td, 0u);
  EXPECT_EQ(td_bu, 0u);
  EXPECT_EQ(def.dist_edge, bu.dist_edge);
  EXPECT_EQ(def.dist_node, bu.dist_node);
  EXPECT_EQ(def.dist_edge, td.dist_edge);
  EXPECT_EQ(def.dist_node, td.dist_node);
}

TEST(FrontierBfs, HygraAgreesWithHyperBfsReachability) {
  using namespace nw::hypergraph;
  auto el = gen::uniform_random_hypergraph(80, 120, 3, 7);
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);
  auto           hy  = nw::hygra::hygra_bfs(hyperedges, hypernodes, 0);
  auto           ref = hyper_bfs(hyperedges, hypernodes, 0);
  ASSERT_EQ(hy.parents_edge.size(), ref.dist_edge.size());
  for (std::size_t e = 0; e < hy.parents_edge.size(); ++e) {
    EXPECT_EQ(hy.parents_edge[e] != nw::null_vertex<>, ref.dist_edge[e] != nw::null_vertex<>)
        << "e=" << e;
  }
  for (std::size_t v = 0; v < hy.parents_node.size(); ++v) {
    EXPECT_EQ(hy.parents_node[v] != nw::null_vertex<>, ref.dist_node[v] != nw::null_vertex<>)
        << "v=" << v;
  }
}

TEST(FrontierBfs, HygraEdgeMapDenseMatchesSparse) {
  using namespace nw::hypergraph;
  auto el = gen::uniform_random_hypergraph(60, 80, 3, 11);
  el.sort_and_unique();
  biadjacency<0> hyperedges(el);
  biadjacency<1> hypernodes(el);

  // Same CAS-claim step through all three entry points; the *set* of
  // claimed hypernodes is deterministic (every hypernode touched by a
  // frontier hyperedge gets claimed exactly once), so the output subsets
  // must be equal as sets.
  std::vector<vertex_id_t> all(hyperedges.size());
  std::iota(all.begin(), all.end(), 0);
  auto run = [&](int mode) {
    std::vector<vertex_id_t> claimed(hypernodes.size(), nw::null_vertex<>);
    auto                     update = [&](vertex_id_t u, vertex_id_t v) {
      return nw::compare_and_swap(claimed[v], nw::null_vertex<>, u);
    };
    auto cond = [&](vertex_id_t v) { return nw::atomic_load(claimed[v]) == nw::null_vertex<>; };
    nw::hygra::vertex_subset f(all);
    nw::hygra::vertex_subset out =
        mode == 0 ? nw::hygra::edge_map_sparse(hyperedges, f, update, cond)
        : mode == 1
            ? nw::hygra::edge_map_dense(hypernodes, f, hyperedges.size(), update, cond)
            : nw::hygra::edge_map(hyperedges, hypernodes, f, update, cond);
    auto ids = out.ids();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto sparse = run(0), dense = run(1), hybrid = run(2);
  EXPECT_EQ(sparse, dense);
  EXPECT_EQ(sparse, hybrid);
  EXPECT_GT(sparse.size(), 0u);
}

TEST(FrontierBfs, HygraVertexSubsetHybridViews) {
  nw::hygra::vertex_subset s(std::vector<vertex_id_t>{2, 66, 130});
  const auto&              bits = s.bits(200);
  EXPECT_TRUE(bits.get(2));
  EXPECT_TRUE(bits.get(66));
  EXPECT_TRUE(bits.get(130));
  EXPECT_EQ(bits.count(), 3u);
  EXPECT_EQ(s.size(), 3u);

  nw::bitmap bm(200);
  bm.set(5);
  bm.set(64);
  nw::hygra::vertex_subset d(std::move(bm), 2);
  EXPECT_TRUE(d.is_dense());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.ids(), (std::vector<vertex_id_t>{5, 64}));
}

TEST(FrontierBfs, HygraVertexSubsetDenseWidening) {
  // A dense-only subset asked for a *larger* universe must keep its members:
  // the rebuild path has to materialize the sparse ids from the old bitmap
  // first, not refill from a stale/empty id list.
  nw::bitmap bm(100);
  bm.set(3);
  bm.set(64);
  bm.set(99);
  nw::hygra::vertex_subset d(std::move(bm), 3);
  ASSERT_TRUE(d.is_dense());  // sparse list not materialized yet
  const auto& wide = d.bits(500);
  EXPECT_EQ(wide.size(), 500u);
  EXPECT_EQ(wide.count(), 3u);
  EXPECT_TRUE(wide.get(3));
  EXPECT_TRUE(wide.get(64));
  EXPECT_TRUE(wide.get(99));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.ids(), (std::vector<vertex_id_t>{3, 64, 99}));
}

}  // namespace
