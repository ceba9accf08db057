// tests/test_materialize.cpp — the parallel materialization pipeline:
// merge_thread_vectors (parallel block-copy concat + keep/release capacity
// modes), the bulk SoA edge_list appends (append_bulk /
// from_thread_buffers), the parallelized sort_and_unique gather, the direct
// per-thread-buffers -> symmetric CSR builder, and the construction
// algorithms' equivalence when funneled through all of them.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "nwhy/gen/generators.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::canonical_pairs;

namespace {

using pair_t  = std::pair<vertex_id_t, vertex_id_t>;
using pairs_t = std::vector<pair_t>;

/// Deterministic unique unordered pairs: p -> (a = p / k, b = a + 1 + p % k).
pairs_t make_unique_pairs(std::size_t count, std::size_t k = 7) {
  pairs_t out;
  out.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    auto a = static_cast<vertex_id_t>(p / k);
    auto b = static_cast<vertex_id_t>(a + 1 + p % k);
    out.push_back({a, b});
  }
  return out;
}

std::size_t pair_id_bound(const pairs_t& pairs) {
  std::size_t n = 0;
  for (auto [a, b] : pairs) n = std::max({n, std::size_t{a} + 1, std::size_t{b} + 1});
  return n;
}

/// Round-robin the pairs into per-thread buffers (deterministic split).
void scatter_to_buffers(const pairs_t& pairs, nw::par::per_thread<std::vector<pair_t>>& buffers) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    buffers.local(static_cast<unsigned>(i % buffers.size())).push_back(pairs[i]);
  }
}

/// Canonical sorted-unique {lo, hi} pairs of a symmetric CSR.
pairs_t canonical_csr_pairs(const nw::graph::adjacency<>& g) {
  pairs_t out;
  for (std::size_t u = 0; u < g.size(); ++u) {
    for (auto&& e : g[u]) {
      vertex_id_t v = target(e);
      if (u < v) out.push_back({static_cast<vertex_id_t>(u), v});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The legacy CSR pipeline the direct builder replaced.
nw::graph::adjacency<> legacy_csr(const pairs_t& pairs, std::size_t n) {
  nw::graph::edge_list<> el(n);
  for (auto [a, b] : pairs) el.push_back(a, b);
  el.symmetrize();
  el.sort_and_unique();
  return nw::graph::adjacency<>(el, n);
}

}  // namespace

// --- merge_thread_vectors ---------------------------------------------------

TEST(MergeThreadVectors, PreservesOrderAcrossBuffers) {
  nw::par::thread_pool                     pool(4);
  nw::par::per_thread<std::vector<int>>    buffers(pool);
  std::vector<int>                         expected;
  for (unsigned b = 0; b < buffers.size(); ++b) {
    for (int i = 0; i < 100 + static_cast<int>(b) * 37; ++i) {
      buffers.local(b).push_back(static_cast<int>(b) * 100000 + i);
    }
  }
  for (unsigned b = 0; b < buffers.size(); ++b) {
    for (auto x : buffers.local(b)) expected.push_back(x);
  }
  auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::release, pool);
  EXPECT_EQ(merged, expected);
}

TEST(MergeThreadVectors, KeepModeRetainsCapacityReleaseDoesNot) {
  nw::par::thread_pool                  pool(2);
  nw::par::per_thread<std::vector<int>> buffers(pool);
  for (int i = 0; i < 5000; ++i) buffers.local(0).push_back(i);

  auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::keep, pool);
  EXPECT_EQ(merged.size(), 5000u);
  EXPECT_TRUE(buffers.local(0).empty());
  EXPECT_GE(buffers.local(0).capacity(), 5000u);  // allocation recycled

  for (int i = 0; i < 100; ++i) buffers.local(0).push_back(i);
  merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::release, pool);
  EXPECT_EQ(merged.size(), 100u);
  EXPECT_EQ(buffers.local(0).capacity(), 0u);  // released
}

TEST(MergeThreadVectors, EmptyBuffersYieldEmptyResult) {
  nw::par::thread_pool                  pool(4);
  nw::par::per_thread<std::vector<int>> buffers(pool);
  auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::release, pool);
  EXPECT_TRUE(merged.empty());
}

TEST(MergeThreadVectors, OneGiantBufferIsChunkedAcrossThreads) {
  nw::par::thread_pool                  pool(4);
  nw::par::per_thread<std::vector<int>> buffers(pool);
  // Everything in one buffer: the chunk planner must still spread the copy.
  std::vector<int> expected(100000);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<int>(i * 2654435761u);
    buffers.local(1).push_back(expected[i]);
  }
  auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::release, pool);
  EXPECT_EQ(merged, expected);
}

TEST(MergeThreadVectors, SingleThreadPool) {
  nw::par::thread_pool                  pool(1);
  nw::par::per_thread<std::vector<int>> buffers(pool);
  ASSERT_EQ(buffers.size(), 1u);
  for (int i = 0; i < 1000; ++i) buffers.local(0).push_back(i);
  auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::release, pool);
  ASSERT_EQ(merged.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(merged[static_cast<std::size_t>(i)], i);
}

// --- edge_list bulk append --------------------------------------------------

TEST(EdgeListBulk, AppendBulkMatchesPushBack) {
  auto pairs = make_unique_pairs(10000);

  nw::graph::edge_list<> ref(pair_id_bound(pairs));
  for (auto [a, b] : pairs) ref.push_back(a, b);

  nw::graph::edge_list<> bulk(pair_id_bound(pairs));
  bulk.append_bulk(pairs);
  // A second append lands after the first (append, not overwrite).
  bulk.append_bulk(std::span<const pair_t>(pairs.data(), 5));

  ASSERT_EQ(bulk.size(), ref.size() + 5);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(bulk.source(i), ref.source(i));
    EXPECT_EQ(bulk.destination(i), ref.destination(i));
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(bulk.source(ref.size() + i), pairs[i].first);
    EXPECT_EQ(bulk.destination(ref.size() + i), pairs[i].second);
  }
}

TEST(EdgeListBulk, AppendBulkCarriesAttributeColumn) {
  using entry = nw::graph::edge_list<std::uint32_t>::value_type;
  std::vector<entry> items;
  for (std::uint32_t i = 0; i < 1000; ++i) items.push_back({i, i + 1, i * 3});

  nw::graph::edge_list<std::uint32_t> el(1001);
  el.append_bulk(items);
  ASSERT_EQ(el.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto [a, b, w] = el[i];
    EXPECT_EQ(a, std::get<0>(items[i]));
    EXPECT_EQ(b, std::get<1>(items[i]));
    EXPECT_EQ(w, std::get<2>(items[i]));
  }
}

TEST(EdgeListBulk, FromThreadBuffersMatchesSerialFunnel) {
  nw::par::thread_pool                     pool(4);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto pairs = make_unique_pairs(25000, 13);
  scatter_to_buffers(pairs, buffers);

  // Reference: the old serial funnel, buffer by buffer, element by element.
  nw::graph::edge_list<> ref(pair_id_bound(pairs));
  buffers.for_each([&](const std::vector<pair_t>& buf) {
    for (auto [a, b] : buf) ref.push_back(a, b);
  });

  auto el = nw::graph::edge_list<>::from_thread_buffers(buffers, pair_id_bound(pairs),
                                                        nw::par::merge_capacity::keep, pool);
  ASSERT_EQ(el.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(el.source(i), ref.source(i));
    EXPECT_EQ(el.destination(i), ref.destination(i));
  }
  EXPECT_EQ(el.num_vertices(), pair_id_bound(pairs));
  // keep mode: drained but allocation retained.
  buffers.for_each([&](const std::vector<pair_t>& buf) { EXPECT_TRUE(buf.empty()); });
  EXPECT_GT(buffers.local(0).capacity(), 0u);
}

TEST(EdgeListBulk, FromThreadBuffersEmpty) {
  nw::par::thread_pool                     pool(2);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto el = nw::graph::edge_list<>::from_thread_buffers(buffers, 10);
  EXPECT_TRUE(el.empty());
  EXPECT_EQ(el.num_vertices(), 10u);
}

// --- parallel sort_and_unique gather ---------------------------------------

TEST(SortAndUnique, ParallelGatherMatchesSetSemantics) {
  nw::xoshiro256ss       rng(0x5EED);
  nw::graph::edge_list<> el(64);
  std::set<pair_t>       expected;
  for (int i = 0; i < 20000; ++i) {
    auto a = static_cast<vertex_id_t>(rng.bounded(64));
    auto b = static_cast<vertex_id_t>(rng.bounded(64));
    el.push_back(a, b);
    expected.insert({a, b});
  }
  el.sort_and_unique();
  ASSERT_EQ(el.size(), expected.size());
  std::size_t i = 0;
  for (auto [a, b] : expected) {  // std::set iterates in sorted order
    EXPECT_EQ(el.source(i), a);
    EXPECT_EQ(el.destination(i), b);
    ++i;
  }
}

TEST(SortAndUnique, AttributesSurviveDeduplication) {
  // Duplicate (src, dst) pairs carry identical weights, so the "first
  // duplicate wins" rule must reproduce exactly this mapping.
  nw::graph::edge_list<std::uint32_t> el(32);
  std::map<pair_t, std::uint32_t>     expected;
  nw::xoshiro256ss                    rng(0xFACE);
  for (int i = 0; i < 5000; ++i) {
    auto a = static_cast<vertex_id_t>(rng.bounded(32));
    auto b = static_cast<vertex_id_t>(rng.bounded(32));
    auto w = static_cast<std::uint32_t>(a * 100 + b);  // pair-determined weight
    el.push_back(a, b, w);
    expected[{a, b}] = w;
  }
  el.sort_and_unique();
  ASSERT_EQ(el.size(), expected.size());
  for (std::size_t i = 0; i < el.size(); ++i) {
    auto [a, b, w] = el[i];
    EXPECT_EQ(w, expected.at({a, b}));
  }
}

// --- direct per-thread-buffers -> CSR builder -------------------------------

TEST(CsrFromBuffers, MatchesLegacyRoundtrip) {
  nw::par::thread_pool                     pool(4);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto        pairs = make_unique_pairs(30000, 11);
  std::size_t n     = pair_id_bound(pairs);
  scatter_to_buffers(pairs, buffers);

  auto direct = nw::graph::adjacency<>::from_unique_undirected_pairs(
      buffers, n, nw::par::merge_capacity::keep, pool);
  auto legacy = legacy_csr(pairs, n);

  ASSERT_EQ(direct.size(), legacy.size());
  ASSERT_EQ(direct.num_edges(), legacy.num_edges());
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<vertex_id_t> a, b;
    for (auto&& e : direct[u]) a.push_back(target(e));
    for (auto&& e : legacy[u]) b.push_back(target(e));
    ASSERT_EQ(a, b) << "row " << u;
  }
}

TEST(CsrFromBuffers, RowsAreSorted) {
  nw::par::thread_pool                     pool(4);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto        pairs = make_unique_pairs(5000, 17);
  std::size_t n     = pair_id_bound(pairs);
  scatter_to_buffers(pairs, buffers);
  auto csr = nw::graph::adjacency<>::from_unique_undirected_pairs(buffers, n);
  for (std::size_t u = 0; u < n; ++u) {
    vertex_id_t prev = 0;
    bool        any  = false;
    for (auto&& e : csr[u]) {
      vertex_id_t v = target(e);
      if (any) {
        EXPECT_LT(prev, v) << "row " << u;
      }
      prev = v;
      any  = true;
    }
  }
}

TEST(CsrFromBuffers, EmptyInputGivesEmptyRows) {
  nw::par::thread_pool                     pool(2);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto csr = nw::graph::adjacency<>::from_unique_undirected_pairs(buffers, 8);
  EXPECT_EQ(csr.size(), 8u);
  EXPECT_EQ(csr.num_edges(), 0u);
  for (std::size_t u = 0; u < 8; ++u) {
    EXPECT_EQ(std::distance(csr[u].begin(), csr[u].end()), 0);
  }
}

TEST(CsrFromBuffers, SingleThreadPool) {
  nw::par::thread_pool                     pool(1);
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  auto        pairs = make_unique_pairs(2000);
  std::size_t n     = pair_id_bound(pairs);
  scatter_to_buffers(pairs, buffers);
  auto direct = nw::graph::adjacency<>::from_unique_undirected_pairs(buffers, n);
  EXPECT_EQ(canonical_csr_pairs(direct),
            canonical_csr_pairs(legacy_csr(pairs, n)));
}

TEST(CsrFromBuffers, SelfLoopCountsInBothHalves) {
  // A self-loop {a, a} appears twice in row a, between its lower and upper
  // neighbours: symmetrize without the unique.
  for (unsigned threads : {1u, 2u, 4u}) {
    nw::par::thread_pool                     pool(threads);
    nw::par::per_thread<std::vector<pair_t>> buffers(pool);
    const pairs_t pairs{{1, 3}, {3, 3}, {3, 5}, {0, 0}, {2, 3}, {5, 6}};
    scatter_to_buffers(pairs, buffers);
    auto csr = nw::graph::adjacency<>::from_unique_undirected_pairs(
        buffers, 7, nw::par::merge_capacity::keep, pool);
    const auto row = [&](std::size_t u) {
      std::vector<vertex_id_t> out;
      for (auto&& e : csr[u]) out.push_back(target(e));
      return out;
    };
    EXPECT_EQ(csr.num_edges(), 2 * pairs.size());
    EXPECT_EQ(row(0), (std::vector<vertex_id_t>{0, 0})) << threads;
    EXPECT_EQ(row(3), (std::vector<vertex_id_t>{1, 2, 3, 3, 5})) << threads;
    EXPECT_EQ(row(5), (std::vector<vertex_id_t>{3, 6})) << threads;
  }
}

TEST(CsrFromBuffers, AcceptsPairsGivenHighLow) {
  // The contract takes each unordered pair once in either orientation.
  auto pairs = make_unique_pairs(20000, 13);
  auto n     = pair_id_bound(pairs);
  auto want  = legacy_csr(pairs, n);
  for (std::size_t i = 0; i < pairs.size(); i += 2) std::swap(pairs[i].first, pairs[i].second);
  for (unsigned threads : {1u, 3u, 4u}) {
    nw::par::thread_pool                     pool(threads);
    nw::par::per_thread<std::vector<pair_t>> buffers(pool);
    scatter_to_buffers(pairs, buffers);
    auto got = nw::graph::adjacency<>::from_unique_undirected_pairs(
        buffers, n, nw::par::merge_capacity::keep, pool);
    EXPECT_EQ(std::vector(got.indices().begin(), got.indices().end()),
              std::vector(want.indices().begin(), want.indices().end()))
        << threads;
    EXPECT_EQ(std::vector(got.targets().begin(), got.targets().end()),
              std::vector(want.targets().begin(), want.targets().end()))
        << threads;
  }
}

TEST(CsrFromBuffers, SLineGraphBytesIdenticalAcrossThreadsAndRelabel) {
  // A Friendster-shaped input (Zipf edge sizes up to 128, Zipf node
  // popularity) plus three hub nodes that join every 5th, 7th and 11th
  // hyperedge, so some rows of L_s are long and unevenly spread over the
  // pair buffers.  Every build must give the 1-thread plain build's bytes,
  // and its s = 2 rows must be the serial oracle's.
  nwtest::concurrency_guard guard;
  auto el = gen::powerlaw_hypergraph(1500, 7500, 128, 1.2, 0.8, 0xF51E);
  for (vertex_id_t e = 0; e < 1500; ++e) {
    for (vertex_id_t hub = 0; hub < 3; ++hub) {
      if (e % (hub == 0 ? 5 : hub == 1 ? 7 : 11) == 0) el.push_back(e, hub);
    }
  }
  el.sort_and_unique();
  const auto as_vector = [](auto span) { return std::vector(span.begin(), span.end()); };
  for (std::size_t s : {std::size_t{2}, std::size_t{8}}) {
    nw::par::thread_pool::set_default_concurrency(1);
    const auto want         = NWHypergraph(el).make_s_linegraph(s);
    const auto want_indices = as_vector(want.graph().indices());
    const auto want_targets = as_vector(want.graph().targets());
    if (s == 2) {
      auto oracle = ref::s_line_edges(ref::from_biedgelist(el), 2);
      ASSERT_FALSE(oracle.empty());
      EXPECT_EQ(canonical_csr_pairs(want.graph()), oracle);
    }
    for (unsigned threads : nwtest::differential_thread_counts()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      for (bool relabel : {false, true}) {
        NWHypergraph h(el);
        if (relabel) h.relabel_by_degree();
        const auto got = h.make_s_linegraph(s);
        ASSERT_EQ(as_vector(got.graph().indices()), want_indices)
            << "s=" << s << " threads=" << threads << " relabel=" << relabel;
        ASSERT_EQ(as_vector(got.graph().targets()), want_targets)
            << "s=" << s << " threads=" << threads << " relabel=" << relabel;
      }
    }
  }
}

// --- the bounded overlap count ----------------------------------------------

namespace {

/// One row's overlap count: the probes and the touched (id, count) pairs
/// in first-touch order.
struct row_count {
  std::size_t                                        probes = 0;
  std::vector<std::pair<vertex_id_t, std::uint32_t>> touched;
  friend bool operator==(const row_count&, const row_count&) = default;
};

/// Every hyperedge row e of `adj` (an adjoin view passed as both structures,
/// so its node rows are the generation's N2E rows) counted with keep
/// (f > e, degree >= s) as a predicate alone, or with the tail bound e and
/// keep (degree >= s).  Rows run in parallel on per-thread accumulators.
std::vector<row_count> count_rows(const adjoin_graph& adj, std::size_t s, bool bounded) {
  const std::size_t        ne = adj.nrealedges();
  std::vector<std::size_t> deg(ne);
  for (std::size_t e = 0; e < ne; ++e) deg[e] = adj.degree(e);
  auto                   maps = detail::overlap_accumulators(ne);
  std::vector<row_count> out(ne);
  nw::par::parallel_for(0, ne, [&](unsigned tid, std::size_t i) {
    const auto ei      = static_cast<vertex_id_t>(i);
    auto&      overlap = maps.local(tid);
    const auto d       = deg.data();
    out[i].probes =
        bounded ? detail::count_overlaps(
                      adj[ei], adj, [d, s](vertex_id_t f) { return d[f] >= s; }, overlap, ei)
                : detail::count_overlaps(
                      adj[ei], adj, [ei, d, s](vertex_id_t f) { return f > ei && d[f] >= s; },
                      overlap);
    overlap.for_each([&](vertex_id_t f, std::uint32_t c) { out[i].touched.push_back({f, c}); });
  });
  return out;
}

}  // namespace

TEST(CountOverlaps, TailBoundMatchesPredicateOnlyOnEveryGeneration) {
  // Random sorted rows with hubs, on the three generations a count reads:
  // the plain base, degree-relabeled storage and the composed base+delta
  // generation of a pending mutation.  The bounded count must probe the
  // same ids in the same first-touch order, at every thread count; the
  // motif census (bounded since it needs only f > e) must match the oracle.
  nwtest::concurrency_guard guard;
  auto el = gen::powerlaw_hypergraph(600, 900, 48, 1.2, 0.8, 0xB0DE);
  for (vertex_id_t e = 0; e < 600; e += 4) el.push_back(e, 0);
  el.sort_and_unique();
  for (int flavour = 0; flavour < 3; ++flavour) {
    NWHypergraph h(el);
    if (flavour == 1) h.relabel_by_degree();
    if (flavour == 2) {
      h.update_edge(7, {0, 1, 2, 3, 500});
      h.insert_edges({{600, {0, 2, 899}}, {601, {1, 2, 3}}});
      h.remove_edges(std::vector<vertex_id_t>{12});
    }
    ASSERT_EQ(h.has_pending_delta(), flavour == 2);
    NWHypergraph compacted = h;
    compacted.compact();
    const auto census_want = ref::motif_counts(ref::from_biedgelist(compacted.edge_list()));
    for (unsigned threads : nwtest::differential_thread_counts()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      const adjoin_graph adj = h.adjoin();
      for (std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
        const auto want = count_rows(adj, s, false);
        const auto got  = count_rows(adj, s, true);
        std::size_t probes = 0;
        for (const auto& r : want) probes += r.probes;
        EXPECT_GT(probes, 0u) << "flavour=" << flavour << " s=" << s;
        ASSERT_TRUE(got == want) << "flavour=" << flavour << " threads=" << threads << " s=" << s;
      }
      const auto census = h.motifs();
      EXPECT_EQ(census.wedges, census_want.wedges) << "flavour=" << flavour;
      EXPECT_EQ(census.triads, census_want.triads) << "flavour=" << flavour;
      EXPECT_EQ(census.butterflies, census_want.butterflies) << "flavour=" << flavour;
    }
  }
}

// --- construction algorithms through the bulk path --------------------------

namespace {

struct fixture {
  biedgelist<>             el;
  biadjacency<0>           hyperedges;
  biadjacency<1>           hypernodes;
  std::vector<std::size_t> degrees;

  explicit fixture(biedgelist<> input) {
    input.sort_and_unique();
    el         = std::move(input);
    hyperedges = biadjacency<0>(el);
    hypernodes = biadjacency<1>(el);
    degrees    = hyperedges.degrees();
  }
};

}  // namespace

TEST(MaterializedConstruction, AllAlgorithmsMatchNaive) {
  fixture f(gen::powerlaw_hypergraph(400, 150, 24, 1.5, 0.9, 0xBEEF01));
  auto    queue = detail::iota_queue(f.hyperedges.size());
  for (std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    auto truth = canonical_pairs(to_two_graph_naive(f.hyperedges, f.hypernodes, f.degrees, s));
    EXPECT_EQ(truth,
              canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, s)));
    EXPECT_EQ(truth, canonical_pairs(to_two_graph_intersection(f.hyperedges, f.hypernodes,
                                                               f.degrees, s)));
    EXPECT_EQ(truth, canonical_pairs(to_two_graph_queue_hashmap(queue, f.hyperedges,
                                                                f.hypernodes, f.degrees, s,
                                                                f.hyperedges.size())));
    EXPECT_EQ(truth, canonical_pairs(to_two_graph_queue_intersection(queue, f.hyperedges,
                                                                     f.hypernodes, f.degrees, s,
                                                                     f.hyperedges.size())));
    EXPECT_EQ(truth, canonical_pairs(to_two_graph_neighbor_range(f.hyperedges, f.hypernodes,
                                                                 f.degrees, s)));
    auto ensemble = to_two_graph_ensemble(f.hyperedges, f.hypernodes, f.degrees, {s});
    ASSERT_EQ(ensemble.size(), 1u);
    EXPECT_EQ(truth, canonical_pairs(ensemble[0]));
    // Direct CSR pipeline: same edge set read back off the symmetric CSR.
    EXPECT_EQ(truth, canonical_csr_pairs(
                         to_two_graph_hashmap_csr(f.hyperedges, f.hypernodes, f.degrees, s)));
  }
}

TEST(MaterializedConstruction, EnsembleMultipleSValues) {
  fixture f(gen::powerlaw_hypergraph(300, 100, 16, 1.4, 0.8, 0xBEEF02));
  auto    ensemble = to_two_graph_ensemble(f.hyperedges, f.hypernodes, f.degrees, {1, 2, 4});
  ASSERT_EQ(ensemble.size(), 3u);
  std::size_t svals[] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(canonical_pairs(ensemble[i]),
              canonical_pairs(
                  to_two_graph_naive(f.hyperedges, f.hypernodes, f.degrees, svals[i])));
  }
}

TEST(MaterializedConstruction, ScratchBuffersReusedAcrossCalls) {
  // Repeated construction through the process-wide scratch must be
  // idempotent: same result every time, no leftover pairs from prior calls.
  fixture f(gen::uniform_random_hypergraph(500, 300, 6, 0xBEEF03));
  auto    first = canonical_csr_pairs(
      to_two_graph_hashmap_csr(f.hyperedges, f.hypernodes, f.degrees, 2));
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(first, canonical_csr_pairs(
                         to_two_graph_hashmap_csr(f.hyperedges, f.hypernodes, f.degrees, 2)));
    EXPECT_EQ(first, canonical_pairs(
                         to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 2)));
  }
}

TEST(MaterializedConstruction, SingleThreadDefaultPoolEquivalence) {
  fixture  f(gen::powerlaw_hypergraph(250, 90, 16, 1.5, 0.9, 0xBEEF04));
  auto     expected = canonical_pairs(to_two_graph_naive(f.hyperedges, f.hypernodes, f.degrees, 2));
  unsigned restore  = nw::par::num_threads();
  nw::par::thread_pool::set_default_concurrency(1);
  auto got_el  = canonical_pairs(to_two_graph_hashmap(f.hyperedges, f.hypernodes, f.degrees, 2));
  auto got_csr = canonical_csr_pairs(
      to_two_graph_hashmap_csr(f.hyperedges, f.hypernodes, f.degrees, 2));
  nw::par::thread_pool::set_default_concurrency(restore);
  EXPECT_EQ(got_el, expected);
  EXPECT_EQ(got_csr, expected);
}

TEST(MaterializedConstruction, CliqueExpansionCsrMatchesEdgeListVariant) {
  fixture f(nwtest::figure1_hypergraph());
  auto    node_degrees = f.hypernodes.degrees();
  EXPECT_EQ(canonical_csr_pairs(clique_expansion_csr(f.hypernodes, f.hyperedges, node_degrees)),
            canonical_pairs(clique_expansion(f.hypernodes, f.hyperedges, node_degrees)));
}

// --- iota_queue helpers -----------------------------------------------------

TEST(IotaQueue, VectorAndSpanOverloads) {
  auto q = detail::iota_queue(5);
  EXPECT_EQ(q, (std::vector<vertex_id_t>{0, 1, 2, 3, 4}));

  std::vector<vertex_id_t> buf(4);
  detail::iota_queue(buf);
  EXPECT_EQ(buf, (std::vector<vertex_id_t>{0, 1, 2, 3}));
  detail::iota_queue(buf, 10);
  EXPECT_EQ(buf, (std::vector<vertex_id_t>{10, 11, 12, 13}));
}
