// tests/test_nwobs.cpp — the observability layer (PR tentpole): counter
// merge semantics under every partitioner, gauges, phase timers, the JSON
// profile schema ({counters, timers, env, threads, hardware_concurrency,
// build, context}) and the pinned counter
// names each instrumented algorithm family emits.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "nwhy.hpp"
#include "nwhy/ref/ref.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nw::obs::registry;

namespace {

NWHypergraph figure1() { return NWHypergraph(nwtest::figure1_hypergraph()); }

/// Minimal JSON reader for the profile schema: objects, strings, numbers,
/// null.  Deliberately tiny — it only has to accept what profile_json()
/// emits, and reject anything structurally broken.
class mini_json {
public:
  struct value {
    enum class kind { object, string, number, null } k = kind::null;
    std::map<std::string, value> members;  // kind::object
    std::string                  str;      // kind::string
    double                       num = 0;  // kind::number
  };

  static bool parse(const std::string& text, value& out) {
    mini_json p(text);
    if (!p.parse_value(out)) return false;
    p.skip_ws();
    return p.pos_ == text.size();  // no trailing garbage
  }

private:
  explicit mini_json(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool parse_value(value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '"') {
      out.k = value::kind::string;
      return parse_string(out.str);
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.k = value::kind::null;
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(value& out) {
    out.k = value::kind::object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      value v;
      if (!parse_value(v)) return false;
      out.members.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        out += text_[pos_ + 1];  // good enough for schema checks
        pos_ += 2;
      } else {
        out += text_[pos_++];
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(value& out) {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.k   = value::kind::number;
    out.num = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  std::size_t        pos_ = 0;
};

/// Fresh registry state for every test.
class NwobsTest : public ::testing::Test {
protected:
  void SetUp() override { registry::get().reset(); }
};

}  // namespace

// --- counters --------------------------------------------------------------

TEST_F(NwobsTest, CounterMergesBlockedPartitioner) {
  auto&             c = registry::get().get_counter("test.blocked");
  const std::size_t n = 100000;
  nw::par::parallel_for(0, n, [&](std::size_t) { c.add(1); }, nw::par::blocked{});
  EXPECT_EQ(c.value(), n);
}

TEST_F(NwobsTest, CounterMergesStaticBlockedPartitioner) {
  auto&             c = registry::get().get_counter("test.static_blocked");
  const std::size_t n = 100000;
  nw::par::parallel_for(0, n, [&](std::size_t) { c.add(1); }, nw::par::static_blocked{});
  EXPECT_EQ(c.value(), n);
}

TEST_F(NwobsTest, CounterMergesCyclicPartitioner) {
  auto&             c = registry::get().get_counter("test.cyclic");
  const std::size_t n = 100000;
  nw::par::parallel_for(0, n, [&](std::size_t) { c.add(1); }, nw::par::cyclic{});
  EXPECT_EQ(c.value(), n);
}

TEST_F(NwobsTest, CounterWeightedAddsAndMacro) {
  auto& c = registry::get().get_counter("test.weighted");
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
  NWOBS_COUNT("test.weighted_macro", 3);
  NWOBS_COUNT("test.weighted_macro", 4);
  EXPECT_EQ(registry::get().get_counter("test.weighted_macro").value(), 7u);
}

TEST_F(NwobsTest, CounterOverflowSlotIsStillCounted) {
  // Threads past slot_capacity fall back to the relaxed-atomic overflow
  // slot.  Starting slot_capacity + 5 threads one after another guarantees
  // at least five of them land there, whatever slots earlier tests took.
  auto&          c       = registry::get().get_counter("test.overflow");
  const unsigned threads = nw::obs::counter::slot_capacity + 5;
  for (unsigned t = 0; t < threads; ++t) std::thread([&] { c.add(9); }).join();
  c.add(1);
  EXPECT_EQ(c.value(), 9u * threads + 1);
}

TEST_F(NwobsTest, ConcurrentEnginesOnOwnPoolsDoNotShareSlots) {
  // Each thread runs hyper_bfs on its own one-context pool, so both run as
  // worker 0; counting by pool worker id would race on one slot and lose
  // increments.
  auto              hg = NWHypergraph(gen::uniform_random_hypergraph(3000, 2000, 6, 11));
  const auto&       E  = hg.hyperedges();
  const auto&       N  = hg.hypernodes();
  auto&             c  = registry::get().get_counter("hyper_bfs.edges_relaxed");
  auto run = [&] {
    nw::par::thread_pool pool(1);
    for (vertex_id_t src = 0; src < 20; ++src) {
      (void)hyper_bfs(E, N, src, 0, 0, nw::par::never_stop{}, pool);
    }
  };
  run();
  const std::uint64_t one = c.value();
  ASSERT_GT(one, 0u);
  c.reset();
  std::thread a(run), b(run);
  a.join();
  b.join();
  EXPECT_EQ(c.value(), 2 * one);
}

TEST_F(NwobsTest, ResetZeroesInPlaceSoCachedReferencesStayValid) {
  auto& c = registry::get().get_counter("test.reset");
  c.add(41);
  registry::get().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the same reference keeps working after reset
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(registry::get().counters_snapshot().at("test.reset"), 1u);
}

// --- gauges ----------------------------------------------------------------

TEST_F(NwobsTest, GaugeSetAndObserveMax) {
  auto& g = registry::get().get_gauge("test.gauge");
  g.set(17);
  EXPECT_EQ(g.value(), 17u);
  g.observe_max(5);  // lower: no change
  EXPECT_EQ(g.value(), 17u);
  g.observe_max(99);
  EXPECT_EQ(g.value(), 99u);
  // Gauges appear in the counters snapshot (one scalar-metric section).
  EXPECT_EQ(registry::get().counters_snapshot().at("test.gauge"), 99u);
}

// --- timers ----------------------------------------------------------------

TEST_F(NwobsTest, ScopeTimerRecordsPhases) {
  {
    NWOBS_SCOPE_TIMER("test.phase");
  }
  {
    NWOBS_SCOPE_TIMER("test.phase");
  }
  auto timers = registry::get().timers_snapshot();
  ASSERT_TRUE(timers.contains("test.phase"));
  EXPECT_EQ(timers.at("test.phase").count, 2u);
  EXPECT_GE(timers.at("test.phase").total_ms, 0.0);
  EXPECT_GE(timers.at("test.phase").total_ms, timers.at("test.phase").max_ms);
}

// --- pinned schema: what each instrumented family emits --------------------

TEST_F(NwobsTest, HyperBfsEmitsFrontierAndRelaxationCounters) {
  auto hg = figure1();
  (void)hg.bfs(0);
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("hyper_bfs.levels"));
  ASSERT_TRUE(counters.contains("hyper_bfs.frontier_total"));
  ASSERT_TRUE(counters.contains("hyper_bfs.frontier_peak"));
  ASSERT_TRUE(counters.contains("hyper_bfs.edges_relaxed"));
  EXPECT_GT(counters.at("hyper_bfs.levels"), 0u);
  EXPECT_GT(counters.at("hyper_bfs.frontier_total"), 0u);
  EXPECT_GE(counters.at("hyper_bfs.frontier_total"), counters.at("hyper_bfs.frontier_peak"));
  EXPECT_GT(counters.at("hyper_bfs.edges_relaxed"), 0u);
  // Direction bookkeeping: every level ran either top-down or bottom-up.
  std::uint64_t steps = 0;
  if (counters.contains("hyper_bfs.steps_top_down")) steps += counters.at("hyper_bfs.steps_top_down");
  if (counters.contains("hyper_bfs.steps_bottom_up")) steps += counters.at("hyper_bfs.steps_bottom_up");
  EXPECT_EQ(steps, counters.at("hyper_bfs.levels"));
  EXPECT_TRUE(registry::get().timers_snapshot().contains("hyper_bfs"));
}

TEST_F(NwobsTest, AdjoinBfsEmitsGraphBfsCounters) {
  auto hg = figure1();
  (void)hg.bfs_adjoin(0);
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("adjoin_bfs.runs"));
  EXPECT_EQ(counters.at("adjoin_bfs.runs"), 1u);
  // The adjoin driver delegates to the direction-optimizing graph BFS.
  ASSERT_TRUE(counters.contains("graph_bfs.levels"));
  ASSERT_TRUE(counters.contains("graph_bfs.frontier_total"));
  ASSERT_TRUE(counters.contains("graph_bfs.frontier_peak"));
  EXPECT_GT(counters.at("graph_bfs.levels"), 0u);
  EXPECT_TRUE(registry::get().timers_snapshot().contains("adjoin_bfs"));
}

TEST_F(NwobsTest, SlinegraphConstructionEmitsCandidateCounters) {
  auto hg = figure1();
  (void)hg.make_s_linegraph(1);  // hashmap path
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("slinegraph.candidate_pairs"));
  ASSERT_TRUE(counters.contains("slinegraph.pairs_emitted"));
  ASSERT_TRUE(counters.contains("slinegraph.hashmap_probes"));
  // Fig. 1 at s=1: the line graph is the path e0-e1-e2-e3 — 3 pairs, each
  // emitted once from its smaller endpoint.
  EXPECT_EQ(counters.at("slinegraph.pairs_emitted"), 3u);
  EXPECT_GE(counters.at("slinegraph.candidate_pairs"),
            counters.at("slinegraph.pairs_emitted"));
  EXPECT_TRUE(registry::get().timers_snapshot().contains("slinegraph.hashmap"));
}

TEST_F(NwobsTest, QueueAlgorithmsRecordOccupancyGauges) {
  auto he   = biadjacency<0>(nwtest::figure1_hypergraph());
  auto hn   = biadjacency<1>(nwtest::figure1_hypergraph());
  auto degs = he.degrees();
  std::vector<vertex_id_t> queue(he.size());
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i] = static_cast<vertex_id_t>(i);
  (void)to_two_graph_queue_hashmap(queue, he, hn, degs, 1, he.size());
  (void)to_two_graph_queue_intersection(queue, he, hn, degs, 1, he.size());
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("slinegraph.alg1_queue_occupancy"));
  ASSERT_TRUE(counters.contains("slinegraph.alg2_queue_occupancy"));
  ASSERT_TRUE(counters.contains("slinegraph.alg2_pair_queue_occupancy"));
  EXPECT_EQ(counters.at("slinegraph.alg1_queue_occupancy"), queue.size());
  EXPECT_EQ(counters.at("slinegraph.alg2_queue_occupancy"), queue.size());
  auto timers = registry::get().timers_snapshot();
  EXPECT_TRUE(timers.contains("slinegraph.queue_hashmap"));
  EXPECT_TRUE(timers.contains("slinegraph.queue_intersection"));
}

TEST_F(NwobsTest, ToplexEmitsDominanceCounters) {
  auto hg = figure1();
  (void)hg.toplexes();
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("toplex.dominance_checks"));
  ASSERT_TRUE(counters.contains("toplex.dominance_checks_skipped"));
  EXPECT_TRUE(registry::get().timers_snapshot().contains("toplex"));
}

TEST_F(NwobsTest, BetweennessEmitsBatchAndDependencyCounters) {
  auto hg = figure1();
  auto lg = hg.make_s_linegraph(1);
  registry::get().reset();  // drop the construction counters
  (void)lg.s_betweenness_centrality_batched();
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("betweenness.sources"));
  ASSERT_TRUE(counters.contains("betweenness.batches"));
  ASSERT_TRUE(counters.contains("betweenness.levels"));
  ASSERT_TRUE(counters.contains("betweenness.frontier_total"));
  ASSERT_TRUE(counters.contains("betweenness.edges_relaxed"));
  ASSERT_TRUE(counters.contains("betweenness.dependencies"));
  // Fig. 1 at s=1: the 4-vertex path, all 4 sources in one default batch.
  EXPECT_EQ(counters.at("betweenness.sources"), 4u);
  EXPECT_EQ(counters.at("betweenness.batches"), 1u);
  EXPECT_GT(counters.at("betweenness.levels"), 0u);
  EXPECT_GT(counters.at("betweenness.dependencies"), 0u);
  EXPECT_TRUE(registry::get().timers_snapshot().contains("betweenness"));
}

TEST_F(NwobsTest, SDistanceCountsGraphBfsRowsOncePerFrontierVertex) {
  // Hyperedge i = {i, i+1}: at s = 1 the line graph is the path
  // e0-e1-...-e5, whose CSR holds 2 * 5 = 10 directed entries.  A full
  // sweep from any source reaches every vertex and reads each row exactly
  // once.  s_distance ends its sweep at the level that claims the target:
  // that level's frontier is the last one expanded, so the target's own
  // row and everything past it stay unread.
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 6; ++e) {
    el.push_back(e, e);
    el.push_back(e, e + 1);
  }
  auto lg = NWHypergraph(std::move(el)).make_s_linegraph(1);
  ASSERT_EQ(lg.num_edges(), 5u);
  registry::get().reset();  // drop the construction counters
  (void)nw::graph::bfs_distances(lg.graph(), 2);
  auto counters = registry::get().counters_snapshot();
  EXPECT_EQ(counters.at("graph_bfs.edges_relaxed"), 10u);
  EXPECT_EQ(counters.at("graph_bfs.levels"), 4u);  // {2}, {1, 3}, {0, 4}, {5}
  registry::get().reset();
  EXPECT_EQ(lg.s_distance(0, 5), std::optional<std::size_t>{5});
  counters = registry::get().counters_snapshot();
  EXPECT_EQ(counters.at("graph_bfs.edges_relaxed"), 9u);  // rows of e0..e4
  EXPECT_EQ(counters.at("graph_bfs.levels"), 5u);          // {0}, ..., {4}
  // One worker, so the frontier {0, 4} is expanded in id order: e0's row
  // is read before e4's claims the target.
  nwtest::concurrency_guard guard;
  nw::par::thread_pool::set_default_concurrency(1);
  registry::get().reset();
  EXPECT_EQ(lg.s_distance(2, 5), std::optional<std::size_t>{3});
  counters = registry::get().counters_snapshot();
  EXPECT_EQ(counters.at("graph_bfs.edges_relaxed"), 9u);  // 2 + (2 + 2) + (1 + 2)
  EXPECT_EQ(counters.at("graph_bfs.levels"), 3u);          // {2}, {1, 3}, {0, 4}
}

TEST_F(NwobsTest, SDistanceToANeighbourReadsFarLessThanASweep) {
  // A large connected s = 1 line graph: a point query to a neighbour of
  // the source expands one frontier, {src}, instead of the whole graph, and
  // still agrees with the serial oracle — as does s_path, for a near and a
  // far target.
  NWHypergraph hg(gen::uniform_random_hypergraph(3000, 2500, 6, 0x5D15));
  auto         lg  = hg.make_s_linegraph(1);
  auto         inc = ref::from_biedgelist(hg.edge_list());
  const vertex_id_t src = 0;
  const auto        nbrs = lg.s_neighbors(src);
  ASSERT_FALSE(nbrs.empty());
  const vertex_id_t near = nbrs.back();
  registry::get().reset();
  const auto sweep = nw::graph::bfs_distances(lg.graph(), src);
  const auto full  = registry::get().counters_snapshot().at("graph_bfs.edges_relaxed");
  vertex_id_t far = src;
  for (std::size_t v = 0; v < sweep.size(); ++v) {
    if (sweep[v] != nw::null_vertex<> && sweep[v] > sweep[far]) far = static_cast<vertex_id_t>(v);
  }
  ASSERT_GE(sweep[far], 2u);
  for (vertex_id_t dst : {near, far}) {
    SCOPED_TRACE("dst=" + std::to_string(dst));
    const auto want = ref::s_distance(inc, 1, src, dst);
    ASSERT_TRUE(want.has_value());
    registry::get().reset();
    EXPECT_EQ(lg.s_distance(src, dst), want);
    const auto query = registry::get().counters_snapshot().at("graph_bfs.edges_relaxed");
    registry::get().reset();
    EXPECT_EQ(lg.s_path(src, dst).size(), *want + 1);
    const auto path = registry::get().counters_snapshot().at("graph_bfs.edges_relaxed");
    if (dst == near) {
      EXPECT_EQ(query, lg.s_degree(src));  // only the source's row
      EXPECT_EQ(path, lg.s_degree(src));
      EXPECT_LT(query * 20, full) << "query " << query << " vs sweep " << full;
    } else {
      EXPECT_LE(query, full);
      EXPECT_LE(path, full);
    }
  }
}

TEST_F(NwobsTest, MotifEmitsWedgeCounters) {
  auto hg = figure1();
  (void)hg.motifs();
  auto counters = registry::get().counters_snapshot();
  ASSERT_TRUE(counters.contains("motif.wedges_scanned"));
  // Fig. 1: nodes 1, 2, 4, 6 each center exactly one wedge, and each wedge
  // is one overlap-map probe.
  EXPECT_EQ(counters.at("motif.wedges_scanned"), 4u);
  EXPECT_TRUE(registry::get().timers_snapshot().contains("motif"));
}

TEST_F(NwobsTest, CountersAreDeterministicAcrossRuns) {
  // Two runs of the same algorithm on the same input produce identical
  // counters — the property that makes counter deltas diagnostic.
  auto hg = figure1();
  (void)hg.bfs(0);
  (void)hg.make_s_linegraph(1);
  (void)hg.toplexes();
  auto first = registry::get().counters_snapshot();
  registry::get().reset();
  (void)hg.bfs(0);
  (void)hg.make_s_linegraph(1);
  (void)hg.toplexes();
  EXPECT_EQ(first, registry::get().counters_snapshot());
}

// --- profile JSON ----------------------------------------------------------

TEST_F(NwobsTest, ProfileJsonHasPinnedSchema) {
  auto hg = figure1();
  (void)hg.bfs(0);
  (void)hg.bfs_adjoin(0);
  (void)hg.make_s_linegraph(1);
  (void)hg.toplexes();

  mini_json::value root;
  ASSERT_TRUE(mini_json::parse(nw::obs::profile_json(), root)) << nw::obs::profile_json();
  ASSERT_EQ(root.k, mini_json::value::kind::object);
  // Top-level sections, exactly these seven.
  ASSERT_TRUE(root.members.contains("counters"));
  ASSERT_TRUE(root.members.contains("timers"));
  ASSERT_TRUE(root.members.contains("env"));
  ASSERT_TRUE(root.members.contains("threads"));
  ASSERT_TRUE(root.members.contains("hardware_concurrency"));
  ASSERT_TRUE(root.members.contains("build"));
  ASSERT_TRUE(root.members.contains("context"));
  EXPECT_EQ(root.members.size(), 7u);

  const auto& counters = root.members.at("counters");
  ASSERT_EQ(counters.k, mini_json::value::kind::object);
  // All three instrumented families are present.
  EXPECT_TRUE(counters.members.contains("hyper_bfs.edges_relaxed"));
  EXPECT_TRUE(counters.members.contains("graph_bfs.levels"));
  EXPECT_TRUE(counters.members.contains("slinegraph.pairs_emitted"));
  EXPECT_TRUE(counters.members.contains("toplex.dominance_checks"));
  for (const auto& [name, v] : counters.members) {
    EXPECT_EQ(v.k, mini_json::value::kind::number) << name;
  }

  const auto& timers = root.members.at("timers");
  ASSERT_EQ(timers.k, mini_json::value::kind::object);
  ASSERT_TRUE(timers.members.contains("hyper_bfs"));
  for (const auto& [name, t] : timers.members) {
    ASSERT_EQ(t.k, mini_json::value::kind::object) << name;
    EXPECT_TRUE(t.members.contains("count")) << name;
    EXPECT_TRUE(t.members.contains("total_ms")) << name;
    EXPECT_TRUE(t.members.contains("max_ms")) << name;
  }

  const auto& env = root.members.at("env");
  ASSERT_EQ(env.k, mini_json::value::kind::object);
  for (const char* knob : {"NWHY_NUM_THREADS", "NWHY_OBS", "NWHY_BENCH_SCALE",
                           "NWHY_BENCH_REPS", "NWHY_BENCH_THREADS", "NWHY_BENCH_PROFILE"}) {
    ASSERT_TRUE(env.members.contains(knob)) << knob;
    const auto& v = env.members.at(knob);
    EXPECT_TRUE(v.k == mini_json::value::kind::string || v.k == mini_json::value::kind::null)
        << knob;
  }

  EXPECT_EQ(root.members.at("threads").k, mini_json::value::kind::number);
  EXPECT_GE(root.members.at("threads").num, 1.0);
}

TEST_F(NwobsTest, ProfileRecordsWhatShapedTheMeasurement) {
  mini_json::value root;
  ASSERT_TRUE(mini_json::parse(nw::obs::profile_json(), root)) << nw::obs::profile_json();
  const auto& hw = root.members.at("hardware_concurrency");
  EXPECT_EQ(hw.k, mini_json::value::kind::number);
  EXPECT_EQ(hw.num, static_cast<double>(std::thread::hardware_concurrency()));

  const auto& build = root.members.at("build");
  ASSERT_EQ(build.k, mini_json::value::kind::object);
  ASSERT_TRUE(build.members.contains("type"));
  EXPECT_EQ(build.members.at("type").str, std::string(nw::obs::detail::build_type));
  EXPECT_FALSE(build.members.at("type").str.empty());
#ifdef NDEBUG
  EXPECT_EQ(build.members.at("assertions").str, "off");
#else
  EXPECT_EQ(build.members.at("assertions").str, "on");
#endif
  // The configure-time commit: a full hex object id, or "unknown".
  const std::string rev = build.members.at("revision").str;
  EXPECT_EQ(rev, std::string(nw::obs::detail::git_revision));
  EXPECT_TRUE(rev == "unknown" ||
              (rev.size() >= 40 && rev.find_first_not_of("0123456789abcdef") == std::string::npos))
      << rev;

  // The nwhy side registers the SIMD decode path; reset() keeps it.
  registry::get().reset();
  ASSERT_TRUE(mini_json::parse(nw::obs::profile_json(), root));
  const auto& context = root.members.at("context");
  ASSERT_EQ(context.k, mini_json::value::kind::object);
  ASSERT_TRUE(context.members.contains("simd_decode"));
  EXPECT_EQ(context.members.at("simd_decode").str, svb::simd_decode_path());
  EXPECT_EQ(std::string(svb::simd_decode_path()).rfind("scalar", 0) == 0, !svb::simd_active());
}

TEST_F(NwobsTest, WriteProfileRoundTripsThroughDisk) {
  registry::get().get_counter("test.roundtrip").add(42);
  std::string path = ::testing::TempDir() + "nwobs_roundtrip.json";
  ASSERT_TRUE(nw::obs::write_profile(path));
  std::ifstream     f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  mini_json::value root;
  ASSERT_TRUE(mini_json::parse(ss.str(), root));
  ASSERT_TRUE(root.members.at("counters").members.contains("test.roundtrip"));
  EXPECT_EQ(root.members.at("counters").members.at("test.roundtrip").num, 42.0);
  std::remove(path.c_str());
}

TEST_F(NwobsTest, WriteProfileToUnwritablePathFailsGracefully) {
  EXPECT_FALSE(nw::obs::write_profile("/nonexistent-dir/profile.json"));
}

TEST_F(NwobsTest, EmptyRegistrySerializesToValidJson) {
  mini_json::value root;
  std::string      text = nw::obs::profile_json();
  ASSERT_TRUE(mini_json::parse(text, root)) << text;
  // reset() zeroes counters in place (references must stay valid), so
  // previously-registered names may appear — but all with value 0.
  for (const auto& [name, v] : root.members.at("counters").members) {
    EXPECT_EQ(v.num, 0.0) << name;
  }
  EXPECT_TRUE(root.members.at("timers").members.empty());
}
