// tests/test_compress.cpp — the compressed NWHYCSR2 section codec and the
// block-decoding adjacency view.
//
// Three layers under test:
//
//   codec     svb::encode / compressed_targets round-trips across lengths
//             that straddle every boundary (empty, sub-group, group,
//             block-1/block/block+1) and value shapes that stress every
//             byte width, plus the scalar-vs-SIMD bit-identity contract;
//   view      compressed_adjacency rows, point queries and the bounded
//             row-cache lifetime contract, the duplicate-row dictionary,
//             and materialization back to an owned CSR;
//   ladder    every traversal / s-line family that runs on the compressed
//             view must produce bit-identical results to the same engine
//             on the uncompressed bi-adjacency, at 1/2/4/hw threads over
//             the differential seed stream (NWHY_TEST_SEED /
//             NWHY_TEST_ITERS replay knobs, see prop_harness.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nwhy/gen/generators.hpp"
#include "nwhy/io/compress.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;
using nwtest::same_partition;

namespace {

/// Adversarial value shapes for the codec: each stresses a different
/// control-byte population.
enum class shape { sorted_random, all_small, full_range, decreasing };

std::vector<vertex_id_t> make_values(std::size_t n, shape sh, std::uint64_t seed) {
  nw::xoshiro256ss         rng(seed);
  std::vector<vertex_id_t> v(n);
  switch (sh) {
    case shape::sorted_random:  // CSR-target-like: sorted, mixed widths
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = (i ? v[i - 1] : 0) + static_cast<vertex_id_t>(rng.bounded(1u << 18));
      }
      break;
    case shape::all_small:  // every delta fits one byte
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = (i ? v[i - 1] : 0) + static_cast<vertex_id_t>(rng.bounded(100));
      }
      break;
    case shape::full_range:  // alternating extremes: every delta needs 4 bytes
      for (std::size_t i = 0; i < n; ++i) v[i] = (i & 1) ? 0xFFFF'FFFFu : 0;
      break;
    case shape::decreasing:  // negative deltas exercise the wrapping zigzag
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<vertex_id_t>(4u * (n - i));
      break;
  }
  return v;
}

const std::vector<shape>       kShapes  = {shape::sorted_random, shape::all_small,
                                           shape::full_range, shape::decreasing};
const std::vector<std::size_t> kLengths = {0, 1, 3, 4, 5, 63, 4095, 4096, 4097, 10000};

const char* shape_name(shape sh) {
  switch (sh) {
    case shape::sorted_random: return "sorted_random";
    case shape::all_small: return "all_small";
    case shape::full_range: return "full_range";
    case shape::decreasing: return "decreasing";
  }
  return "?";
}

/// Decode every block of a compressed_targets through `fn(block, out*)`
/// into one flat vector.
template <class Fn>
std::vector<vertex_id_t> decode_all(const compressed_targets& ct, Fn&& fn) {
  std::vector<vertex_id_t> out(ct.num_values());
  std::size_t              pos = 0;
  for (std::uint64_t b = 0; b < ct.num_blocks(); ++b) {
    fn(b, out.data() + pos);
    pos += ct.block_values(b);
  }
  return out;
}

/// Write `hg` as a compressed snapshot into memory and re-read it in
/// stream mode, so edges_view / nodes_view are live block-decoding views
/// (the returned snapshot owns the staged bytes they point into).
csr_snapshot stream_views(const NWHypergraph& hg, csr_compress_options opt = {}) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_snapshot(ss, hg.hyperedges(), hg.hypernodes(), opt);
  ss.seekg(0);
  return read_csr_snapshot(ss, "mem", snapshot_decode::stream);
}

/// A hypergraph where half the hyperedges are duplicates (same node set),
/// so the writer's duplicate-row dictionary engages.
biedgelist<> duplicated_hypergraph(std::uint64_t seed) {
  nw::xoshiro256ss rng(seed);
  biedgelist<>     el;
  const std::size_t uniques = 40;
  for (std::size_t e = 0; e < uniques; ++e) {
    std::vector<vertex_id_t> row;
    const std::size_t        deg = 1 + rng.bounded(6);
    for (std::size_t k = 0; k < deg; ++k) row.push_back(static_cast<vertex_id_t>(rng.bounded(64)));
    for (auto v : row) {
      el.push_back(static_cast<vertex_id_t>(e), v);
      el.push_back(static_cast<vertex_id_t>(e + uniques), v);  // exact duplicate row
    }
  }
  el.sort_and_unique();
  return el;
}

/// A unique scratch path per test, removed on destruction.
struct scratch_file {
  std::string path;
  explicit scratch_file(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("nwhy_compress_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".nwcsr"))
               .string();
  }
  ~scratch_file() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

std::vector<vertex_id_t> row_of(const biadjacency<0>& g, std::size_t u) {
  std::vector<vertex_id_t> r;
  for (auto&& e : g[u]) r.push_back(target(e));
  return r;
}

/// A few BFS sources spread across the hyperedge id range.
std::vector<vertex_id_t> sources_for(std::size_t ne) {
  std::vector<vertex_id_t> s;
  if (ne == 0) return s;
  s.push_back(0);
  if (ne > 2) s.push_back(static_cast<vertex_id_t>(ne / 2));
  if (ne > 1) s.push_back(static_cast<vertex_id_t>(ne - 1));
  return s;
}

}  // namespace

// --- codec -------------------------------------------------------------------------

TEST(SvbCodec, RoundTripsAcrossLengthsShapesAndBlockSizes) {
  for (std::uint32_t bs : {std::uint32_t{64}, svb::default_block_size}) {
    for (auto sh : kShapes) {
      for (std::size_t n : kLengths) {
        SCOPED_TRACE(std::string(shape_name(sh)) + " n=" + std::to_string(n) +
                     " bs=" + std::to_string(bs));
        auto values  = make_values(n, sh, 0xC0DEC + n);
        auto payload = svb::encode(values, bs);
        compressed_targets ct(payload, "mem", 0);
        ASSERT_EQ(ct.num_values(), n);
        ASSERT_EQ(ct.block_size(), bs);
        ASSERT_EQ(ct.num_blocks(), (n + bs - 1) / bs);
        auto decoded = decode_all(ct, [&](std::uint64_t b, vertex_id_t* out) {
          ct.decode_block(b, out);
        });
        EXPECT_EQ(decoded, values);
      }
    }
  }
}

TEST(SvbCodec, ScalarAndSimdDecodesAreBitIdentical) {
  // The contract behind the NWHY_SIMD toggle: the SSSE3/NEON kernels and
  // the portable decoder produce the same bytes on every input, including
  // the partial-group tails at lengths 4095/4097.  When the build has no
  // SIMD kernel both paths are the scalar one and this holds trivially.
  for (auto sh : kShapes) {
    for (std::size_t n : {std::size_t{4095}, std::size_t{4096}, std::size_t{4097},
                          std::size_t{10000}}) {
      SCOPED_TRACE(std::string(shape_name(sh)) + " n=" + std::to_string(n));
      auto values  = make_values(n, sh, 0x51D + n);
      auto payload = svb::encode(values, svb::default_block_size);
      compressed_targets ct(payload, "mem", 0);
      auto via_dispatch = decode_all(ct, [&](std::uint64_t b, vertex_id_t* out) {
        ct.decode_block(b, out);
      });
      auto via_scalar = decode_all(ct, [&](std::uint64_t b, vertex_id_t* out) {
        ct.decode_block_scalar(b, out);
      });
      ASSERT_EQ(via_dispatch, via_scalar);
      ASSERT_EQ(via_scalar, values);
    }
  }
}

TEST(SvbCodec, EncoderIsDeterministic) {
  // docs/IO_FORMATS.md §4 promises byte-identical output for identical
  // input: encode twice (and once through a fresh vector) and compare.
  auto values = make_values(9000, shape::sorted_random, 77);
  auto a      = svb::encode(values, svb::default_block_size);
  auto b      = svb::encode(values, svb::default_block_size);
  EXPECT_EQ(a, b);
  auto copy = values;
  EXPECT_EQ(svb::encode(copy, svb::default_block_size), a);
}

TEST(SvbCodec, BlockMinMaxBracketsEveryBlock) {
  auto values = make_values(10000, shape::sorted_random, 3);
  auto payload = svb::encode(values, 256);
  compressed_targets ct(payload, "mem", 0);
  std::size_t pos = 0;
  for (std::uint64_t b = 0; b < ct.num_blocks(); ++b) {
    auto [lo, hi] = ct.block_min_max(b);
    for (std::uint32_t i = 0; i < ct.block_values(b); ++i) {
      EXPECT_GE(values[pos + i], lo);
      EXPECT_LE(values[pos + i], hi);
    }
    pos += ct.block_values(b);
  }
}

// --- duplicate-row dictionary -------------------------------------------------------

TEST(RowDictionary, DeduplicatesIdenticalRowsAndReconstructs) {
  NWHypergraph hg(duplicated_hypergraph(11));
  const auto&  csr = hg.hyperedges().csr();
  auto         idx = csr.indices();
  auto         tgt = csr.targets();
  auto         dict = build_row_dictionary(idx, tgt);
  ASSERT_TRUE(dict.has_value());
  EXPECT_LT(dict->stored.size(), tgt.size());  // duplicates stored once
  EXPECT_LT(dict->num_unique(), hg.num_hyperedges());
  ASSERT_EQ(dict->refs.size(), hg.num_hyperedges());
  // Every row reconstructs exactly from its dictionary slot.
  for (std::size_t u = 0; u < hg.num_hyperedges(); ++u) {
    auto r = dict->refs[u];
    ASSERT_LT(r, dict->num_unique());
    auto lo = dict->dict_indices[r], hi = dict->dict_indices[r + 1];
    ASSERT_EQ(hi - lo, idx[u + 1] - idx[u]) << "row " << u;
    for (std::size_t k = 0; k < hi - lo; ++k) {
      EXPECT_EQ(dict->stored[lo + k], tgt[idx[u] + k]) << "row " << u << " slot " << k;
    }
  }
}

TEST(RowDictionary, NoDuplicatesMeansNoDictionary) {
  NWHypergraph hg(nwtest::figure1_hypergraph());  // 4 distinct hyperedges
  const auto&  csr = hg.hyperedges().csr();
  EXPECT_FALSE(build_row_dictionary(csr.indices(), csr.targets()).has_value());
}

// --- the compressed adjacency view --------------------------------------------------

TEST(CompressedAdjacency, RowsDegreesAndContainsMatchUncompressed) {
  for (auto seed : nwtest::differential_seeds(0xC0'0000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    auto         snap = stream_views(hg);
    ASSERT_TRUE(snap.streaming());
    const auto& E = *snap.edges_view;
    const auto& N = *snap.nodes_view;
    ASSERT_EQ(E.size(), hg.num_hyperedges());
    ASSERT_EQ(N.size(), hg.num_hypernodes());
    ASSERT_EQ(E.num_edges(), hg.num_incidences());
    for (std::size_t u = 0; u < E.size(); ++u) {
      auto expect = row_of(hg.hyperedges(), u);
      auto got    = E[u];
      ASSERT_EQ(got.size(), expect.size()) << "row " << u;
      ASSERT_EQ(E.degree(u), expect.size());
      for (std::size_t k = 0; k < expect.size(); ++k) ASSERT_EQ(got[k], expect[k]);
      for (auto t : expect) EXPECT_TRUE(E.contains(u, t));
      // Probe absences around each present target (rows are sorted, so
      // value+1 is absent unless it is the next element).
      for (std::size_t k = 0; k < expect.size(); ++k) {
        vertex_id_t probe = expect[k] + 1;
        bool        present = (k + 1 < expect.size() && expect[k + 1] == probe);
        EXPECT_EQ(E.contains(u, probe), present) << "row " << u << " probe " << probe;
      }
      if (!expect.empty()) {
        EXPECT_FALSE(E.contains(u, expect.back() + 2));
      }
    }
  }
}

TEST(CompressedAdjacency, RowSpansSurviveThreeOtherRowMisses) {
  // The documented lifetime contract: a returned span stays valid until
  // four *other*-row cache misses on the same structure from the same
  // thread.  Engines hold at most two live rows; probe with three.
  NWHypergraph hg(gen::arbitrary_hypergraph(0xA11A5));
  auto         snap = stream_views(hg);
  const auto&  E    = *snap.edges_view;
  if (E.size() < 5) GTEST_SKIP() << "need >= 5 rows";
  auto                     first = E[0];
  std::vector<vertex_id_t> copy(first.begin(), first.end());
  auto r1 = E[1];
  auto r2 = E[2];
  auto r3 = E[3];
  (void)r1;
  (void)r2;
  (void)r3;
  ASSERT_EQ(first.size(), copy.size());
  for (std::size_t k = 0; k < copy.size(); ++k) EXPECT_EQ(first[k], copy[k]);
  // Two structures never share cache slots: a row of each stays valid.
  const auto& N  = *snap.nodes_view;
  auto        er = E[0];
  auto        nr = N[0];
  EXPECT_EQ(std::vector<vertex_id_t>(er.begin(), er.end()), row_of(hg.hyperedges(), 0));
  EXPECT_EQ(std::vector<vertex_id_t>(nr.begin(), nr.end()),
            [&] {
              std::vector<vertex_id_t> r;
              for (auto&& e : hg.hypernodes()[0]) r.push_back(target(e));
              return r;
            }());
}

TEST(CompressedAdjacency, MaterializeRebuildsTheExactCsr) {
  for (auto seed : nwtest::differential_seeds(0xAB'0000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    auto         snap = stream_views(hg);
    auto         edges = snap.edges_view->materialize();
    auto         nodes = snap.nodes_view->materialize();
    const auto&  eref  = hg.hyperedges().csr();
    const auto&  nref  = hg.hypernodes().csr();
    ASSERT_EQ(edges.num_edges(), eref.targets().size());
    ASSERT_EQ(nodes.num_edges(), nref.targets().size());
    for (std::size_t i = 0; i < eref.indices().size(); ++i) {
      ASSERT_EQ(edges.indices()[i], eref.indices()[i]);
    }
    for (std::size_t i = 0; i < eref.targets().size(); ++i) {
      ASSERT_EQ(edges.targets()[i], eref.targets()[i]);
    }
    for (std::size_t i = 0; i < nref.targets().size(); ++i) {
      ASSERT_EQ(nodes.targets()[i], nref.targets()[i]);
    }
  }
}

// --- compressed snapshots end to end ------------------------------------------------

TEST(CompressedSnapshot, MaterializeModeReadsBackTheExactCsr) {
  for (auto seed : nwtest::differential_seeds(0x5EC'0000)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph      hg(gen::arbitrary_hypergraph(seed));
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_csr_snapshot(ss, hg.hyperedges(), hg.hypernodes(), csr_compress_options{});
    ss.seekg(0);
    auto snap = read_csr_snapshot(ss, "mem");  // default: materialize
    EXPECT_FALSE(snap.streaming());
    const auto& eref = hg.hyperedges().csr();
    ASSERT_EQ(snap.edges.csr().targets().size(), eref.targets().size());
    for (std::size_t i = 0; i < eref.targets().size(); ++i) {
      ASSERT_EQ(snap.edges.csr().targets()[i], eref.targets()[i]);
    }
    for (std::size_t i = 0; i < eref.indices().size(); ++i) {
      ASSERT_EQ(snap.edges.csr().indices()[i], eref.indices()[i]);
    }
    // Adoption into the facade must behave exactly like the raw snapshot.
    NWHypergraph re(std::move(snap));
    EXPECT_EQ(re.num_hyperedges(), hg.num_hyperedges());
    EXPECT_EQ(re.num_incidences(), hg.num_incidences());
  }
}

TEST(CompressedSnapshot, MmapPathStreamsAndMaterializes) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0xF00D));
  scratch_file f("mmap");
  hg.save_csr_snapshot(f.path, csr_compress_options{});
  {  // materialize straight off the map
    auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true);
    EXPECT_FALSE(snap.streaming());
    const auto& eref = hg.hyperedges().csr();
    ASSERT_EQ(snap.edges.csr().targets().size(), eref.targets().size());
    for (std::size_t i = 0; i < eref.targets().size(); ++i) {
      ASSERT_EQ(snap.edges.csr().targets()[i], eref.targets()[i]);
    }
  }
  {  // stream mode: traverse the views backed by the mapped bytes
    auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true, snapshot_decode::stream);
    ASSERT_TRUE(snap.streaming());
    auto on_view = hyper_bfs(*snap.edges_view, *snap.nodes_view, 0, nwtest::top_down_alpha);
    auto on_raw  = hyper_bfs(hg.hyperedges(), hg.hypernodes(), 0, nwtest::top_down_alpha);
    EXPECT_EQ(on_view.dist_edge, on_raw.dist_edge);
    EXPECT_EQ(on_view.dist_node, on_raw.dist_node);
  }
}

TEST(CompressedSnapshot, DictionarySnapshotRoundTripsAndShrinks) {
  NWHypergraph hg(duplicated_hypergraph(0xD1C7));
  scratch_file f("dict");
  hg.save_csr_snapshot(f.path, csr_compress_options{});
  // The duplicate-heavy E2N side must actually use the dictionary kinds.
  std::ifstream in(f.path, std::ios::binary);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::vector<unsigned char> head(static_cast<std::size_t>(
      std::min<std::uint64_t>(file_size, csr_detail::header_bytes +
                                             csr_detail::max_section_count *
                                                 csr_detail::table_entry_bytes)));
  in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  auto h = csr_detail::parse_header(head.data(), file_size, f.path);
  EXPECT_NE(h.find(csr_sec_e2n_dict_refs), nullptr);
  EXPECT_NE(h.find(csr_sec_e2n_dict_indices), nullptr);
  EXPECT_EQ(h.find(csr_sec_e2n_targets), nullptr);

  auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true);
  const auto& eref = hg.hyperedges().csr();
  ASSERT_EQ(snap.edges.csr().targets().size(), eref.targets().size());
  for (std::size_t i = 0; i < eref.targets().size(); ++i) {
    ASSERT_EQ(snap.edges.csr().targets()[i], eref.targets()[i]);
  }
  // And the streamed dictionary view serves correct rows + point queries.
  auto streamed = load_csr_snapshot(f.path, false, snapshot_decode::stream);
  ASSERT_TRUE(streamed.edges_view.has_value());
  ASSERT_TRUE(streamed.edges_view->has_dictionary());
  for (std::size_t u = 0; u < hg.num_hyperedges(); ++u) {
    auto expect = row_of(hg.hyperedges(), u);
    auto got    = (*streamed.edges_view)[u];
    ASSERT_EQ(got.size(), expect.size()) << "row " << u;
    for (std::size_t k = 0; k < expect.size(); ++k) ASSERT_EQ(got[k], expect[k]);
    for (auto t : expect) EXPECT_TRUE(streamed.edges_view->contains(u, t));
  }
}

// --- differential ladder ------------------------------------------------------------

TEST(CompressedDifferential, TraversalFamiliesMatchUncompressed) {
  nwtest::concurrency_guard guard;
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0xCB'F500)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         snap = stream_views(hg);
      ASSERT_TRUE(snap.streaming());
      const auto& Ec = *snap.edges_view;
      const auto& Nc = *snap.nodes_view;
      const auto& E  = hg.hyperedges();
      const auto& N  = hg.hypernodes();

      for (vertex_id_t src : sources_for(hg.num_hyperedges())) {
        SCOPED_TRACE("src=" + std::to_string(src));
        auto oracle = hyper_bfs(E, N, src, nwtest::top_down_alpha);
        auto td     = hyper_bfs(Ec, Nc, src, nwtest::top_down_alpha);
        EXPECT_EQ(td.dist_edge, oracle.dist_edge) << "top_down on compressed";
        EXPECT_EQ(td.dist_node, oracle.dist_node) << "top_down on compressed";
        auto bu = hyper_bfs(Ec, Nc, src, nwtest::bottom_up_alpha, nwtest::bottom_up_beta);
        EXPECT_EQ(bu.dist_edge, oracle.dist_edge) << "bottom_up on compressed";
        EXPECT_EQ(bu.dist_node, oracle.dist_node) << "bottom_up on compressed";
        auto dir = hyper_bfs(Ec, Nc, src);
        EXPECT_EQ(dir.dist_edge, oracle.dist_edge) << "direction-optimizing on compressed";
        EXPECT_EQ(dir.dist_node, oracle.dist_node) << "direction-optimizing on compressed";
      }

      EXPECT_EQ(toplexes(Ec, Nc), toplexes(E, N));
      EXPECT_EQ(toplexes(Ec, Nc), ref::toplexes(ref::from_biedgelist(hg.edge_list())));
    }
  }
}

TEST(CompressedDifferential, SLineFamiliesMatchUncompressed) {
  nwtest::concurrency_guard guard;
  const std::vector<std::size_t> svalues = {1, 2, 3};
  for (unsigned threads : nwtest::differential_thread_counts()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto seed : nwtest::differential_seeds(0x51'F500)) {
      NWHY_SEED_TRACE(seed);
      NWHypergraph hg(gen::arbitrary_hypergraph(seed));
      auto         snap = stream_views(hg);
      ASSERT_TRUE(snap.streaming());
      const auto& Ec  = *snap.edges_view;
      const auto& Nc  = *snap.nodes_view;
      const auto& E   = hg.hyperedges();
      const auto& N   = hg.hypernodes();
      const auto& deg = hg.edge_sizes();
      // The intersection family walks two rows of the same structure at
      // once with long-lived spans, so it runs on the materialized CSR —
      // the documented pattern for set-intersection kernels.
      auto Em = snap.edges_view->materialize();
      auto Nm = snap.nodes_view->materialize();

      for (std::size_t s : svalues) {
        SCOPED_TRACE("s=" + std::to_string(s));
        auto expected = nwtest::canonical_pairs(to_two_graph_hashmap(E, N, deg, s));
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_hashmap(Ec, Nc, deg, s)), expected)
            << "hashmap on compressed";
        EXPECT_EQ(nwtest::canonical_pairs(to_two_graph_intersection(Em, Nm, deg, s)), expected)
            << "intersection on materialized-from-compressed";

        auto comp_raw = s_connected_components_implicit(E, N, deg, s);
        auto comp_cmp = s_connected_components_implicit(Ec, Nc, deg, s);
        EXPECT_TRUE(same_partition(comp_raw, comp_cmp)) << "implicit s-components";

        const std::size_t ne = hg.num_hyperedges();
        if (ne > 1) {
          for (auto [a, b] : {std::pair<vertex_id_t, vertex_id_t>{0, vertex_id_t(ne - 1)},
                              {vertex_id_t(ne / 2), vertex_id_t(ne - 1)}}) {
            EXPECT_EQ(s_distance_implicit(Ec, Nc, deg, s, a, b),
                      s_distance_implicit(E, N, deg, s, a, b))
                << "implicit s-distance " << a << "->" << b;
          }
        }
      }
    }
  }
}
