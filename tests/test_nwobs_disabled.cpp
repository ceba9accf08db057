// tests/test_nwobs_disabled.cpp — compiled with -DNWHY_OBS=0 (see
// tests/CMakeLists.txt): every NWOBS_* macro must expand to nothing, so
// running the instrumented algorithms leaves the registry empty.  This is
// the compile-time-no-op half of the observability contract; the enabled
// half lives in test_nwobs.cpp.
#ifndef NWHY_OBS
#error "this test must be compiled with -DNWHY_OBS=0"
#endif
#if NWHY_OBS
#error "this test must be compiled with -DNWHY_OBS=0"
#endif

#include <gtest/gtest.h>

#include "nwhy.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::obs::registry;

TEST(NwobsDisabled, MacrosCompileToNothing) {
  registry::get().reset();
  NWOBS_COUNT("disabled.counter", 1);
  NWOBS_GAUGE_SET("disabled.gauge", 5);
  NWOBS_GAUGE_MAX("disabled.gauge", 9);
  { NWOBS_SCOPE_TIMER("disabled.timer"); }
  EXPECT_TRUE(registry::get().counters_snapshot().empty());
  EXPECT_TRUE(registry::get().timers_snapshot().empty());
}

TEST(NwobsDisabled, InstrumentedAlgorithmsEmitNothing) {
  registry::get().reset();
  NWHypergraph hg(nwtest::figure1_hypergraph());
  (void)hg.bfs(0);
  (void)hg.bfs_adjoin(0);
  (void)hg.make_s_linegraph(1);
  (void)hg.toplexes();
  EXPECT_TRUE(registry::get().counters_snapshot().empty());
  EXPECT_TRUE(registry::get().timers_snapshot().empty());
}

TEST(NwobsDisabled, ProfileStillSerializesValidEmptySections) {
  // Export machinery keeps working in a disabled build — profiles just have
  // empty counters/timers sections.
  registry::get().reset();
  std::string json = nw::obs::profile_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"env\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
}

TEST(NwobsDisabled, AlgorithmResultsUnchanged) {
  // Instrumentation must not affect results: the same Fig. 1 invariants the
  // enabled-mode tests rely on hold in the stripped build.
  NWHypergraph hg(nwtest::figure1_hypergraph());
  auto lg = hg.make_s_linegraph(1);
  EXPECT_EQ(lg.num_vertices(), 4u);
  EXPECT_EQ(lg.num_edges(), 3u);
  EXPECT_EQ(hg.toplexes().size(), 4u);
  EXPECT_EQ(hg.bfs(0).dist_edge[3], 6u);  // bipartite hops: hyperedges at even depths
}
