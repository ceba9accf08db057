// tests/test_shard.cpp — hyperedge-range shards: sharded snapshots must
// reassemble bit-exact under the plain readers, the out-of-core
// sharded_snapshot view must reproduce both CSRs row by row, and the
// shard-at-a-time BFS/CC engines must answer exactly like their in-memory
// counterparts — across the differential seed stream, several shard
// counts, and both slice encodings (raw and SVB).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/algorithms/sharded_traversal.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwhy/io/shard.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwobs/counters.hpp"
#include "prop_harness.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

struct scratch_file {
  std::string path;
  explicit scratch_file(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("nwhy_shard_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".nwcsr"))
               .string();
  }
  ~scratch_file() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

/// The process-wide shard.passes counter (shard loads so far).
std::uint64_t shard_passes() {
  const auto counters = nw::obs::registry::get().counters_snapshot();
  const auto it       = counters.find("shard.passes");
  return it == counters.end() ? 0 : it->second;
}

/// RAII environment override restored (or unset) on scope exit.
struct env_guard {
  std::string name;
  std::string old;
  bool        had;
  env_guard(const char* n, const char* value) : name(n) {
    const char* prev = std::getenv(n);
    had              = prev != nullptr;
    if (had) old = prev;
    ::setenv(n, value, 1);
  }
  ~env_guard() {
    if (had) {
      ::setenv(name.c_str(), old.c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

const std::vector<std::uint32_t>& shard_counts() {
  static const std::vector<std::uint32_t> counts{1, 3, 8};
  return counts;
}

/// Row-by-row comparison of the sharded view against the in-memory
/// bi-adjacency: E2N rows shard by shard, N2E rows restricted to each
/// shard's hyperedge range.
void expect_shards_reproduce_csrs(sharded_snapshot& snap, const NWHypergraph& hg) {
  const auto& e2n = hg.hyperedges().csr();
  const auto& n2e = hg.hypernodes().csr();
  ASSERT_EQ(snap.num_hyperedges(), hg.num_hyperedges());
  ASSERT_EQ(snap.num_hypernodes(), hg.num_hypernodes());
  ASSERT_EQ(snap.num_incidences(), hg.num_incidences());
  for (std::size_t k = 0; k < snap.num_shards(); ++k) {
    auto view = snap.load_shard(k);
    for (vertex_id_t e = view.e_begin; e < view.e_end; ++e) {
      auto row  = view.edge_row(e);
      auto want = e2n.targets().subspan(e2n.indices()[e], e2n.indices()[e + 1] - e2n.indices()[e]);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
          << "shard " << k << " edge " << e;
    }
    for (std::size_t v = 0; v < hg.num_hypernodes(); ++v) {
      auto row = view.node_row(static_cast<vertex_id_t>(v));
      std::vector<vertex_id_t> want;
      for (auto off = n2e.indices()[v]; off < n2e.indices()[v + 1]; ++off) {
        vertex_id_t e = n2e.targets()[off];
        if (e >= view.e_begin && e < view.e_end) want.push_back(e);
      }
      ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
          << "shard " << k << " node " << v;
    }
  }
  snap.release_shard();
}

}  // namespace

TEST(Shard, PlainReadersReassembleBitExactAcrossSeedsShardsEncodings) {
  for (auto seed : nwtest::differential_seeds(0x51A0)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    for (auto shards : shard_counts()) {
      for (bool compress : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " svb=" + std::to_string(compress));
        scratch_file f("reasm");
        csr_shard_options so;
        so.shards   = shards;
        so.compress = compress;
        hg.save_csr_snapshot(f.path, so);
        auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true);
        auto ai   = hg.hyperedges().csr().indices();
        auto bi   = snap.edges.csr().indices();
        ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()));
        auto at = hg.hyperedges().csr().targets();
        auto bt = snap.edges.csr().targets();
        ASSERT_TRUE(std::equal(at.begin(), at.end(), bt.begin(), bt.end()));
        auto ci = hg.hypernodes().csr().indices();
        auto di = snap.nodes.csr().indices();
        ASSERT_TRUE(std::equal(ci.begin(), ci.end(), di.begin(), di.end()));
        auto ct = hg.hypernodes().csr().targets();
        auto dt = snap.nodes.csr().targets();
        ASSERT_TRUE(std::equal(ct.begin(), ct.end(), dt.begin(), dt.end()));
      }
    }
  }
}

TEST(Shard, ShardedViewReproducesBothCsrs) {
  for (auto seed : nwtest::differential_seeds(0x51C0)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    for (auto shards : shard_counts()) {
      for (bool compress : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " svb=" + std::to_string(compress));
        scratch_file f("view");
        csr_shard_options so;
        so.shards   = shards;
        so.compress = compress;
        hg.save_csr_snapshot(f.path, so);
        sharded_snapshot snap(f.path);
        ASSERT_LE(snap.num_shards(), static_cast<std::size_t>(shards));
        expect_shards_reproduce_csrs(snap, hg);
      }
    }
  }
}

TEST(Shard, ByteBudgetCutsMultipleShards) {
  // Large enough that a 4 KiB raw-slice budget (8 bytes per incidence) must
  // cut several shards: 2000 edges x 4 members = 64000 payload bytes.
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 2000; ++e) {
    for (vertex_id_t j = 0; j < 4; ++j) el.push_back(e, (e * 7 + j * 131) % 512);
  }
  el.sort_and_unique();
  NWHypergraph hg(std::move(el));
  scratch_file f("budget");
  csr_shard_options so;
  so.target_bytes = 4096;  // force several cuts on any non-trivial input
  hg.save_csr_snapshot(f.path, so);
  sharded_snapshot snap(f.path);
  ASSERT_GT(snap.num_shards(), 1u);
  expect_shards_reproduce_csrs(snap, hg);
}

TEST(Shard, BfsMatchesInMemoryEngine) {
  for (auto seed : nwtest::differential_seeds(0x5200)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    const auto   ne = static_cast<vertex_id_t>(hg.num_hyperedges());
    if (ne == 0) continue;
    for (auto shards : shard_counts()) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      scratch_file f("bfs");
      csr_shard_options so;
      so.shards   = shards;
      so.compress = (seed & 1) != 0;  // alternate encodings across the stream
      hg.save_csr_snapshot(f.path, so);
      sharded_snapshot snap(f.path);
      for (vertex_id_t src : {vertex_id_t{0}, static_cast<vertex_id_t>(ne / 2),
                              static_cast<vertex_id_t>(ne - 1)}) {
        auto mem = hg.bfs(src);
        auto ooc = hyper_bfs_sharded(snap, src);
        ASSERT_EQ(mem.dist_edge, ooc.dist_edge) << "src " << src;
        ASSERT_EQ(mem.dist_node, ooc.dist_node) << "src " << src;
        ASSERT_EQ(ooc.parents_edge[src], src);
      }
    }
  }
}

TEST(Shard, CcMatchesInMemoryEngine) {
  std::size_t most_shards = 0;
  for (auto seed : nwtest::differential_seeds(0x5230)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    auto         mem = hg.connected_components();
    for (auto shards : shard_counts()) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      scratch_file f("cc");
      csr_shard_options so;
      so.shards   = shards;
      so.compress = (seed & 1) != 0;
      hg.save_csr_snapshot(f.path, so);
      sharded_snapshot snap(f.path);
      const auto       passes = shard_passes();
      auto             ooc    = hyper_cc_sharded(snap);
      ASSERT_EQ(mem.labels_edge, ooc.labels_edge);
      ASSERT_EQ(mem.labels_node, ooc.labels_node);
      // One load per shard, however many sweeps label propagation would need.
      EXPECT_EQ(shard_passes() - passes, snap.num_shards());
      most_shards = std::max(most_shards, snap.num_shards());
    }
  }
  EXPECT_GT(most_shards, 1u);
}

TEST(Shard, RelabeledShardedPipelineAnswersMatch) {
  // The full locality pipeline: degree relabel + shards + SVB slices.  The
  // embedded inverse map must translate out-of-core answers back to
  // external ids exactly.
  for (auto seed : nwtest::differential_seeds(0x5260)) {
    NWHY_SEED_TRACE(seed);
    auto         el = gen::arbitrary_hypergraph(seed);
    NWHypergraph plain(el);
    NWHypergraph twin(el);
    const auto   ne = static_cast<vertex_id_t>(plain.num_hyperedges());
    if (ne == 0) continue;
    twin.relabel_by_degree();
    scratch_file f("pipe");
    csr_shard_options so;
    so.shards   = 3;
    so.compress = true;
    twin.save_csr_snapshot(f.path, so);

    sharded_snapshot snap(f.path);
    auto             inv = snap.relabel_inv();
    ASSERT_EQ(inv.size(), plain.num_hyperedges());
    std::vector<vertex_id_t> perm(inv.size());
    for (std::size_t i = 0; i < inv.size(); ++i) perm[inv[i]] = static_cast<vertex_id_t>(i);

    const vertex_id_t src = ne / 2;
    auto              mem = plain.bfs(src);
    auto              ooc = hyper_bfs_sharded(snap, perm[src]);
    for (vertex_id_t e = 0; e < ne; ++e) {
      ASSERT_EQ(mem.dist_edge[e], ooc.dist_edge[perm[e]]) << "edge " << e;
    }
    ASSERT_EQ(mem.dist_node, ooc.dist_node);

    // The facade's loaded twin answers the same queries without manual maps.
    NWHypergraph loaded(load_csr_snapshot(f.path));
    ASSERT_TRUE(loaded.is_relabeled());
    auto lb = loaded.bfs(src);
    ASSERT_EQ(mem.dist_edge, lb.dist_edge);
    ASSERT_EQ(mem.dist_node, lb.dist_node);
  }
}

TEST(Shard, UnshardedSnapshotIsRejectedWithClearMessage) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0x5290));
  scratch_file f("plainfile");
  hg.save_csr_snapshot(f.path);
  EXPECT_THROW(
      {
        try {
          sharded_snapshot snap(f.path);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("shard directory"), std::string::npos)
              << e.what();
          throw;
        }
      },
      io_error);
}

TEST(Shard, MadviseKnobOffStillAnswersExactly) {
  env_guard guard("NWHY_MADVISE", "0");
  NWHypergraph hg(gen::arbitrary_hypergraph(0x52A0));
  scratch_file f("madv");
  csr_shard_options so;
  so.shards = 3;
  hg.save_csr_snapshot(f.path, so);
  sharded_snapshot snap(f.path);
  auto             mem = hg.connected_components();
  auto             ooc = hyper_cc_sharded(snap);
  ASSERT_EQ(mem.labels_edge, ooc.labels_edge);
  ASSERT_EQ(mem.labels_node, ooc.labels_node);
}

TEST(Shard, LoadShardIsRestartableAndReleaseIdempotent) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0x52B0));
  scratch_file f("restart");
  csr_shard_options so;
  so.shards = 3;
  hg.save_csr_snapshot(f.path, so);
  sharded_snapshot snap(f.path);
  ASSERT_GE(snap.num_shards(), 1u);
  // Loading out of order, twice, with interleaved releases must stay exact.
  auto first = snap.load_shard(snap.num_shards() - 1);
  (void)first;
  snap.release_shard();
  snap.release_shard();
  expect_shards_reproduce_csrs(snap, hg);
  expect_shards_reproduce_csrs(snap, hg);
}
