// tests/test_io_snapshot.cpp — NWHYCSR2 CSR snapshots: mmap zero-copy and
// streamed round-trips, corruption/truncation rejection, and adoption into
// NWHypergraph.
//
// The round-trip property runs over the differential seed stream
// (NWHY_TEST_SEED / NWHY_TEST_ITERS, see prop_harness.hpp) and the
// {1, 2, 4, hw} thread sweep: write -> mmap-read -> bit-exact CSR equality
// must hold at every thread count, because the parallel pieces (biedgelist
// re-expansion, degree computation) must not depend on scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "nwhy/gen/generators.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/validate.hpp"
#include "prop_harness.hpp"
#include "test_util.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

/// Figure 1 as an older writer stored it with `convert --adjoin`: the
/// HAS_ADJOIN flag plus the adjoin CSR as section kinds 5/6.
const std::string kLegacyAdjoinSnapshot = NWHY_TEST_DATA_DIR "/fig1_adjoin.nwcsr";

/// A unique scratch path per test, removed on destruction.
struct scratch_file {
  std::string path;
  explicit scratch_file(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("nwhy_snap_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".nwcsr"))
               .string();
  }
  ~scratch_file() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <class A, class B>
void expect_same_csr(const A& a, const B& b) {
  auto ai = a.indices();
  auto bi = b.indices();
  auto at = a.targets();
  auto bt = b.targets();
  ASSERT_EQ(ai.size(), bi.size());
  ASSERT_EQ(at.size(), bt.size());
  for (std::size_t i = 0; i < ai.size(); ++i) ASSERT_EQ(ai[i], bi[i]) << "offset row " << i;
  for (std::size_t i = 0; i < at.size(); ++i) ASSERT_EQ(at[i], bt[i]) << "target slot " << i;
}

/// Recompute and patch the header checksum after a deliberate header/table
/// mutation, so a test can reach past the checksum to the semantic check
/// behind it (e.g. version rejection).
void refresh_header_checksum(std::string& bytes) {
  namespace d = csr_detail;
  auto* p     = reinterpret_cast<unsigned char*>(bytes.data());
  const std::uint32_t count     = d::get_u32(p + 40);
  const std::size_t   table_end = d::header_bytes + std::size_t{count} * d::table_entry_bytes;
  std::uint64_t       h         = d::fnv1a64(p, d::checksummed_header);
  h = d::fnv1a64(p + d::header_bytes, table_end - d::header_bytes, h);
  d::put_u64(p + 56, h);
}

/// Recompute section `sec`'s payload checksum (after a deliberate payload
/// mutation) and then the header checksum, producing a file whose checksums
/// all verify — exactly what a *crafted* (rather than bit-rotted) snapshot
/// looks like, which is why structural validation cannot lean on checksums.
void refresh_section_checksum(std::string& bytes, std::size_t sec) {
  namespace d = csr_detail;
  auto* p     = reinterpret_cast<unsigned char*>(bytes.data());
  auto* e     = p + d::header_bytes + sec * d::table_entry_bytes;
  const std::uint64_t off = d::get_u64(e + 8);
  const std::uint64_t len = d::get_u64(e + 16);
  d::put_u64(e + 24, d::fnv1a64(p + off, len));
  refresh_header_checksum(bytes);
}

/// Byte offset of section `sec`'s payload.
std::uint64_t section_offset(const std::string& bytes, std::size_t sec) {
  namespace d = csr_detail;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 8);
}

/// Hand-assemble a tiny but fully valid NWHYCSR2 file (n0 = n1 = m = 1)
/// plus, optionally, a trailing unknown-kind section with `elem_size` 0 and
/// a length that is a multiple of nothing — bytes the committed writer
/// never produces, exercising the reader's forward-compatibility path at
/// the byte level (per docs/IO_FORMATS.md §4.5, unknown kinds are
/// checksum-verified and dropped, and their elem_size is never trusted).
/// `dup_kind`, when nonzero, appends a *second* section of that known kind
/// (with a short but elem-size-aligned payload) — the duplicate-kind shape
/// §4.5 requires both readers to reject.
std::string build_tiny_snapshot(bool with_unknown_section, std::uint32_t dup_kind = 0) {
  namespace d = csr_detail;
  const std::uint64_t idx[2] = {0, 1};
  const std::uint32_t tgt[1] = {0};
  struct sec {
    std::uint32_t kind, elem;
    std::string   payload;
  };
  std::vector<sec> secs = {
      {csr_sec_e2n_indices, 8, std::string(reinterpret_cast<const char*>(idx), 16)},
      {csr_sec_e2n_targets, 4, std::string(reinterpret_cast<const char*>(tgt), 4)},
      {csr_sec_n2e_indices, 8, std::string(reinterpret_cast<const char*>(idx), 16)},
      {csr_sec_n2e_targets, 4, std::string(reinterpret_cast<const char*>(tgt), 4)},
  };
  if (with_unknown_section) secs.push_back({99, 0, "7 bytes"});
  if (dup_kind != 0) {
    secs.push_back({dup_kind, csr_detail::expected_elem_size(dup_kind),
                    std::string(reinterpret_cast<const char*>(idx), 8)});
  }
  const auto          count     = static_cast<std::uint32_t>(secs.size());
  const std::uint64_t table_end = d::header_bytes + std::uint64_t{count} * d::table_entry_bytes;
  std::vector<std::uint64_t> offsets;
  std::uint64_t              off = (table_end + 63) / 64 * 64;
  for (const auto& s : secs) {
    offsets.push_back(off);
    off = (off + s.payload.size() + 63) / 64 * 64;
  }
  const std::uint64_t file_size = offsets.back() + secs.back().payload.size();
  std::string         bytes(file_size, '\0');
  auto*               p = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(p, csr_snapshot_magic, sizeof(csr_snapshot_magic));
  d::put_u32(p + 8, csr_snapshot_version);
  d::put_u32(p + 12, csr_flag_canonical);
  d::put_u64(p + 16, 1);  // n0
  d::put_u64(p + 24, 1);  // n1
  d::put_u64(p + 32, 1);  // m
  d::put_u32(p + 40, count);
  d::put_u64(p + 48, file_size);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto* e = p + d::header_bytes + std::size_t{i} * d::table_entry_bytes;
    d::put_u32(e + 0, secs[i].kind);
    d::put_u32(e + 4, secs[i].elem);
    d::put_u64(e + 8, offsets[i]);
    d::put_u64(e + 16, secs[i].payload.size());
    d::put_u64(e + 24, d::fnv1a64(secs[i].payload.data(), secs[i].payload.size()));
    std::memcpy(p + offsets[i], secs[i].payload.data(), secs[i].payload.size());
  }
  refresh_header_checksum(bytes);
  return bytes;
}

/// A read-only stream over a byte string that cannot seek and hands out at
/// most 4 KiB per refill, like a pipe: read_csr_snapshot takes its
/// chunked-growth path on it, where an istringstream (seekable) takes the
/// up-front size check instead.
class pipe_buf : public std::streambuf {
public:
  explicit pipe_buf(std::string bytes) : bytes_(std::move(bytes)) {}

protected:
  int_type underflow() override {
    if (pos_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(4096, bytes_.size() - pos_);
    char*             p = bytes_.data() + pos_;
    setg(p, p, p + n);
    pos_ += n;
    return traits_type::to_int_type(*p);
  }

private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

struct pipe_input {
  pipe_buf     buf;
  std::istream in{&buf};
  explicit pipe_input(std::string bytes) : buf(std::move(bytes)) {}
};

/// Serialize `hg` through the ostream writer into a byte string.
std::string snapshot_bytes(const NWHypergraph& hg) {
  std::ostringstream out(std::ios::binary);
  write_csr_snapshot(out, hg.hyperedges(), hg.hypernodes());
  return out.str();
}

}  // namespace

TEST(CsrSnapshot, MmapRoundTripIsBitExactAcrossSeedsAndThreads) {
  nwtest::concurrency_guard guard;
  for (auto seed : nwtest::differential_seeds(0x5A90)) {
    NWHY_SEED_TRACE(seed);
    NWHypergraph hg(gen::arbitrary_hypergraph(seed));
    scratch_file f("roundtrip");
    hg.save_csr_snapshot(f.path);
    for (unsigned threads : nwtest::differential_thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      nw::par::thread_pool::set_default_concurrency(threads);
      auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true);
      EXPECT_TRUE(snap.canonical());
      EXPECT_EQ(snap.n0, hg.num_hyperedges());
      EXPECT_EQ(snap.n1, hg.num_hypernodes());
      EXPECT_EQ(snap.m, hg.num_incidences());
      expect_same_csr(snap.edges.csr(), hg.hyperedges().csr());
      expect_same_csr(snap.nodes.csr(), hg.hypernodes().csr());
      // Re-expanded incidence list == the canonical edge list.
      auto el = snap.to_biedgelist();
      ASSERT_EQ(el.size(), hg.edge_list().size());
      for (std::size_t i = 0; i < el.size(); ++i) ASSERT_EQ(el[i], hg.edge_list()[i]);
      // The CSR pair must still be exact mutual transposes.
      auto cons = validate_csr_pair(snap.edges, snap.nodes);
      EXPECT_TRUE(cons.consistent()) << cons.to_string();
    }
  }
}

// The two front ends share one parser, so for every writer variant the
// streamed and mmap loads must carry the same structures.  The streamed
// snapshot is read from an istringstream whose string is destroyed before
// the comparison: whatever the snapshot still points into (its staged
// image, held by `storage`) must outlive the source.  `storage` is kept
// exactly when an adopted span points into the image.
TEST(CsrSnapshot, StreamAndMmapReadersAgree) {
  biedgelist<> el = gen::arbitrary_hypergraph(0xCAFE);
  // Duplicate hyperedge rows, so the compressing writer emits the
  // dictionary kinds 9/10.
  const auto n0 = static_cast<vertex_id_t>(el.num_vertices(0));
  for (vertex_id_t e = 0; e < 4; ++e) {
    for (vertex_id_t v : {vertex_id_t{0}, vertex_id_t{1}, vertex_id_t{2}}) el.push_back(n0 + e, v);
  }
  el.sort_and_unique();
  NWHypergraph hg(el);
  NWHypergraph relabeled(el);
  relabeled.relabel_by_degree();
  NWHypergraph fig1(nwtest::figure1_hypergraph());

  csr_shard_options raw_shards;
  raw_shards.shards = 3;
  csr_shard_options svb_shards = raw_shards;
  svb_shards.compress          = true;
  struct variant {
    const char*                             name;
    const NWHypergraph&                     writer;
    std::function<void(const std::string&)> write;
    snapshot_decode                         mode;
    bool                                    keeps_image;  ///< streamed and mapped alike
  };
  const variant variants[] = {
      {"plain", hg, [&](const std::string& p) { hg.save_csr_snapshot(p); },
       snapshot_decode::materialize, true},
      {"legacy adjoin", fig1,
       [](const std::string& p) {
         std::filesystem::copy_file(kLegacyAdjoinSnapshot, p,
                                    std::filesystem::copy_options::overwrite_existing);
       },
       snapshot_decode::materialize, true},
      {"compressed+dict", hg,
       [&](const std::string& p) { hg.save_csr_snapshot(p, csr_compress_options{}); },
       snapshot_decode::materialize, false},
      {"compressed+dict stream", hg,
       [&](const std::string& p) { hg.save_csr_snapshot(p, csr_compress_options{}); },
       snapshot_decode::stream, true},
      {"sharded raw", hg, [&](const std::string& p) { hg.save_csr_snapshot(p, raw_shards); },
       snapshot_decode::materialize, false},
      {"sharded svb", hg, [&](const std::string& p) { hg.save_csr_snapshot(p, svb_shards); },
       snapshot_decode::materialize, false},
      {"relabeled", relabeled, [&](const std::string& p) { relabeled.save_csr_snapshot(p); },
       snapshot_decode::materialize, true},
  };
  auto csr_of = [](const csr_snapshot& s, int side) {
    if (side == 0) {
      return s.edges_view ? s.edges_view->materialize() : nw::graph::adjacency<>(s.edges.csr());
    }
    return s.nodes_view ? s.nodes_view->materialize() : nw::graph::adjacency<>(s.nodes.csr());
  };
  for (const auto& v : variants) {
    SCOPED_TRACE(v.name);
    scratch_file f("agree");
    v.write(f.path);
    csr_snapshot streamed;
    {
      std::istringstream in(slurp(f.path), std::ios::binary);
      streamed = read_csr_snapshot(in, f.path, v.mode);
    }  // source string destroyed here
    EXPECT_EQ(streamed.storage != nullptr, v.keeps_image);
    EXPECT_EQ(streamed.streaming(), v.mode == snapshot_decode::stream);
    expect_same_csr(csr_of(streamed, 0), v.writer.hyperedges().csr());
    expect_same_csr(csr_of(streamed, 1), v.writer.hypernodes().csr());
    const auto el_back = streamed.to_biedgelist();
    ASSERT_EQ(el_back.size(), v.writer.edge_list().size());
    for (std::size_t i = 0; i < el_back.size(); ++i) ASSERT_EQ(el_back[i], v.writer.edge_list()[i]);
#if NWHY_HAS_MMAP
    auto mapped = map_csr_snapshot(f.path, /*verify_checksums=*/true, v.mode);
    EXPECT_EQ(mapped.storage != nullptr, v.keeps_image);
    expect_same_csr(csr_of(mapped, 0), csr_of(streamed, 0));
    expect_same_csr(csr_of(mapped, 1), csr_of(streamed, 1));
    EXPECT_EQ(mapped.relabel_inv, streamed.relabel_inv);
    EXPECT_EQ(mapped.flags, streamed.flags);
#endif
  }
}

TEST(CsrSnapshot, PipeStyleStringStreamRoundTrip) {
  NWHypergraph       hg(nwtest::figure1_hypergraph());
  const std::string  bytes = snapshot_bytes(hg);
  std::istringstream in(bytes, std::ios::binary);
  auto               snap = read_csr_snapshot(in);
  expect_same_csr(snap.edges.csr(), hg.hyperedges().csr());
  expect_same_csr(snap.nodes.csr(), hg.hypernodes().csr());
  // The same bytes through a non-seekable stream (the chunked path).
  pipe_input pipe(bytes);
  auto       piped = read_csr_snapshot(pipe.in);
  expect_same_csr(piped.edges.csr(), hg.hyperedges().csr());
  expect_same_csr(piped.nodes.csr(), hg.hypernodes().csr());
}

// A pipe delivers the image in 4 MiB reads and grows it as bytes arrive:
// a snapshot of several chunks must come through intact.
TEST(CsrSnapshot, PipeStreamLargerThanOneChunkRoundTrips) {
  NWHypergraph      hg(gen::uniform_random_hypergraph(120000, 120000, 10, 0x91BE));
  const std::string bytes = snapshot_bytes(hg);
  ASSERT_GT(bytes.size(), std::size_t{8} << 20);
  pipe_input pipe(bytes);
  auto       snap = read_csr_snapshot(pipe.in);
  expect_same_csr(snap.edges.csr(), hg.hyperedges().csr());
  expect_same_csr(snap.nodes.csr(), hg.hypernodes().csr());
  // Truncated by one byte, the same pipe fails as truncation.
  pipe_input cut(bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW(read_csr_snapshot(cut.in), io_error);
}

TEST(CsrSnapshot, NWHypergraphAdoptionPreservesAlgorithms) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0xBF5));
  scratch_file f("adopt");
  hg.save_csr_snapshot(f.path);
  NWHypergraph loaded(load_csr_snapshot(f.path));
  EXPECT_EQ(loaded.num_hyperedges(), hg.num_hyperedges());
  EXPECT_EQ(loaded.num_hypernodes(), hg.num_hypernodes());
  EXPECT_EQ(loaded.num_incidences(), hg.num_incidences());
  EXPECT_EQ(loaded.edge_sizes(), hg.edge_sizes());
  EXPECT_EQ(loaded.node_degrees(), hg.node_degrees());
  auto cc1 = hg.connected_components();
  auto cc2 = loaded.connected_components();
  EXPECT_TRUE(nwtest::same_partition(cc1.labels_edge, cc2.labels_edge));
  EXPECT_TRUE(nwtest::same_partition(cc1.labels_node, cc2.labels_node));
  if (hg.num_hyperedges() > 0) {
    auto b1 = hg.bfs(0);
    auto b2 = loaded.bfs(0);
    EXPECT_EQ(b1.dist_edge, b2.dist_edge);
    EXPECT_EQ(b1.dist_node, b2.dist_node);
  }
}

TEST(CsrSnapshot, EmptyHypergraphRoundTrips) {
  NWHypergraph hg(biedgelist<>(5, 7));
  scratch_file f("empty");
  hg.save_csr_snapshot(f.path);
  auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true);
  EXPECT_EQ(snap.n0, 5u);
  EXPECT_EQ(snap.n1, 7u);
  EXPECT_EQ(snap.m, 0u);
  EXPECT_EQ(snap.edges.num_edges(), 0u);
  auto el = snap.to_biedgelist();
  EXPECT_EQ(el.size(), 0u);
  EXPECT_EQ(el.num_vertices(0), 5u);
  EXPECT_EQ(el.num_vertices(1), 7u);
}

TEST(CsrSnapshot, NonCanonicalSnapshotTriggersRebuild) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0xDEC0));
  scratch_file f("noncanon");
  write_csr_snapshot(f.path, hg.hyperedges(), hg.hypernodes(), {.canonical = false});
  auto snap = load_csr_snapshot(f.path);
  EXPECT_FALSE(snap.canonical());
  NWHypergraph rebuilt(std::move(snap));  // falls back to sort_and_unique + rebuild
  expect_same_csr(rebuilt.hyperedges().csr(), hg.hyperedges().csr());
}

// --- rejection paths --------------------------------------------------------

TEST(CsrSnapshot, RejectsBadMagic) {
  scratch_file f("badmagic");
  dump(f.path, "NOTNWHY2 plus whatever follows, padded well past sixty-four bytes......");
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(f.path);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
          throw;
        }
      },
      io_error);
  std::istringstream in("NOTNWHY2 short", std::ios::binary);
  EXPECT_THROW(read_csr_snapshot(in), io_error);
}

TEST(CsrSnapshot, RejectsTruncationAtEveryLayer) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("trunc");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  ASSERT_GT(bytes.size(), 128u);
  // Chop inside: header, section table, first payload, last payload.
  for (std::size_t keep : {std::size_t{10}, std::size_t{70}, std::size_t{200},
                           bytes.size() - 3}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    scratch_file cut("trunc_cut");
    dump(cut.path, bytes.substr(0, keep));
    EXPECT_THROW(load_csr_snapshot(cut.path), io_error);
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW(read_csr_snapshot(in), io_error);
  }
}

TEST(CsrSnapshot, RejectsHeaderCorruption) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("hdrcorrupt");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  bytes[17] ^= 0x40;  // flip a bit inside n0
  scratch_file bad("hdrcorrupt_bad");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
          throw;
        }
      },
      io_error);
}

TEST(CsrSnapshot, RejectsPayloadCorruption) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0xC0DE));
  scratch_file f("paycorrupt");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  bytes[bytes.size() - 1] ^= 0x01;  // flip a bit in the last payload
  // The streamed reader always verifies checksums...
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_csr_snapshot(in), io_error);
  scratch_file bad("paycorrupt_bad");
  dump(bad.path, bytes);
  // ...the mmap loader only when asked (zero-copy loads stay O(page faults)).
  EXPECT_THROW(load_csr_snapshot(bad.path, /*verify_checksums=*/true), io_error);
}

TEST(CsrSnapshot, RejectsUnsupportedVersion) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("version");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  csr_detail::put_u32(reinterpret_cast<unsigned char*>(bytes.data()) + 8, 99);
  refresh_header_checksum(bytes);
  scratch_file bad("version_bad");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      io_error);
}

TEST(CsrSnapshot, RejectsOutOfBoundsSection) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("oob");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  // Push the first section's offset past the declared file size.
  namespace d = csr_detail;
  auto* entry = reinterpret_cast<unsigned char*>(bytes.data()) + d::header_bytes;
  d::put_u64(entry + 8, 1u << 30);
  refresh_header_checksum(bytes);
  scratch_file bad("oob_bad");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("bounds"), std::string::npos);
          throw;
        }
      },
      io_error);
}

// A *crafted* snapshot has internally consistent checksums, so the only
// line of defense against out-of-bounds interior offsets is the structural
// pass.  Before that pass existed, this file drove to_biedgelist into
// heap-corrupting writes (idx[e+1] far past m) on the default
// verify_checksums=false mmap path.
TEST(CsrSnapshot, RejectsNonMonotonicInteriorIndex) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("nonmono");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  // Section 0 = E2N_INDICES: blow up idx[1] while leaving idx[0] == 0 and
  // idx[n0] == m intact, so the O(1) extents check alone would pass.
  namespace d = csr_detail;
  auto* idx1 = reinterpret_cast<unsigned char*>(bytes.data()) + section_offset(bytes, 0) + 8;
  d::put_u64(idx1, std::uint64_t{1} << 30);
  refresh_section_checksum(bytes, 0);
  scratch_file bad("nonmono_bad");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);  // mmap path, checksums NOT verified
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("monotonically"), std::string::npos);
          throw;
        }
      },
      io_error);
  std::istringstream in(bytes, std::ios::binary);  // checksums all verify
  EXPECT_THROW(read_csr_snapshot(in), io_error);
}

TEST(CsrSnapshot, RejectsTargetIdsOutsideOppositePartition) {
  NWHypergraph hg(nwtest::figure1_hypergraph());
  scratch_file f("oobtgt");
  hg.save_csr_snapshot(f.path);
  auto bytes = slurp(f.path);
  // Section 1 = E2N_TARGETS: first hypernode id -> far past n1.
  namespace d = csr_detail;
  auto* tgt0 = reinterpret_cast<unsigned char*>(bytes.data()) + section_offset(bytes, 1);
  d::put_u32(tgt0, 0xFFFFFFF0u);
  refresh_section_checksum(bytes, 1);
  scratch_file bad("oobtgt_bad");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);  // mmap path, checksums NOT verified
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("opposite partition"), std::string::npos);
          throw;
        }
      },
      io_error);
  std::istringstream in(bytes, std::ios::binary);  // checksums all verify
  EXPECT_THROW(read_csr_snapshot(in), io_error);
}

// Unknown kinds are forward-compatibility room: both readers must tolerate
// them, and the streamed reader must never size a staging buffer from
// their untrusted elem_size (0 here, with a 7-byte payload — the exact
// shape that used to overflow the u32 staging branch).
TEST(CsrSnapshot, ReadersTolerateUnknownSectionsWithoutTrustingElemSize) {
  auto bytes = build_tiny_snapshot(/*with_unknown_section=*/true);
  std::istringstream in(bytes, std::ios::binary);
  auto               snap = read_csr_snapshot(in);
  EXPECT_EQ(snap.n0, 1u);
  EXPECT_EQ(snap.n1, 1u);
  EXPECT_EQ(snap.m, 1u);
  ASSERT_EQ(snap.edges.csr().targets().size(), 1u);
  EXPECT_EQ(snap.edges.csr().targets()[0], 0u);
  scratch_file f("unknown");
  dump(f.path, bytes);
  auto loaded = load_csr_snapshot(f.path, /*verify_checksums=*/true);
  EXPECT_EQ(loaded.m, 1u);
  // The unknown section is still checksum-verified on the streamed path.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;  // last byte of the unknown payload
  std::istringstream cin(corrupt, std::ios::binary);
  EXPECT_THROW(read_csr_snapshot(cin), io_error);
  // Sanity: the hand-assembled file without the extra section also loads.
  auto plain = build_tiny_snapshot(/*with_unknown_section=*/false);
  std::istringstream pin(plain, std::ios::binary);
  EXPECT_EQ(read_csr_snapshot(pin).m, 1u);
}

// A verified load is a full audit: it hashes every listed section, so a
// corrupt payload of a kind the loader drops still fails it.
TEST(CsrSnapshot, VerifiedLoadChecksumsEverySection) {
  auto bytes = build_tiny_snapshot(/*with_unknown_section=*/true);
  bytes[bytes.size() - 1] ^= 0x01;  // last byte of the unknown-kind payload
  scratch_file f("unknown_corrupt");
  dump(f.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(f.path, /*verify_checksums=*/true);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum mismatch (kind 99)"), std::string::npos)
              << e.what();
          throw;
        }
      },
      io_error);
  // An unverified load never reads the dropped payload.
  EXPECT_EQ(load_csr_snapshot(f.path).m, 1u);
}

// A known kind listed twice could have its two copies resolved
// inconsistently (one copy validated, the other adopted): before
// parse_header rejected duplicates, a crafted file with two E2N_INDICES
// sections — the first valid-length, the second shorter — could steer the
// streamed reader's staging past require_section and into out-of-bounds
// reads (compressed dictionary pass) or an NW_ASSERT abort (raw path).
TEST(CsrSnapshot, RejectsDuplicateKnownSectionKinds) {
  for (std::uint32_t kind : {csr_sec_e2n_indices, csr_sec_e2n_targets, csr_sec_n2e_targets}) {
    SCOPED_TRACE("duplicated kind " + std::to_string(kind));
    auto bytes = build_tiny_snapshot(/*with_unknown_section=*/false, /*dup_kind=*/kind);
    scratch_file bad("dupsec");
    dump(bad.path, bytes);
    EXPECT_THROW(
        {
          try {
            load_csr_snapshot(bad.path);
          } catch (const io_error& e) {
            EXPECT_NE(std::string(e.what()).find("more than once"), std::string::npos)
                << e.what();
            throw;
          }
        },
        io_error);
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(read_csr_snapshot(in), io_error);
  }
  // Unknown kinds, by contrast, may legitimately repeat.
  auto ok = build_tiny_snapshot(/*with_unknown_section=*/true, /*dup_kind=*/99);
  std::istringstream in(ok, std::ios::binary);
  EXPECT_EQ(read_csr_snapshot(in).m, 1u);
}

// A stream's header can claim any file_size, so section lengths can pass
// the in-file bounds checks while being astronomically large.  Staging must
// surface that as io_error (or hit honest truncation), never std::bad_alloc
// or an OOM kill.
TEST(CsrSnapshot, HugeClaimedSectionLengthIsIoErrorNotBadAlloc) {
  namespace d = csr_detail;
  const std::uint64_t sec_off   = 128;  // 64-aligned, past header + 1-entry table (96)
  const std::uint64_t sec_len   = std::uint64_t{1} << 60;
  const std::uint64_t file_size = sec_off + sec_len;
  std::string         bytes(96, '\0');
  auto*               p = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(p, csr_snapshot_magic, sizeof(csr_snapshot_magic));
  d::put_u32(p + 8, csr_snapshot_version);
  d::put_u64(p + 16, 1);  // n0
  d::put_u64(p + 24, 1);  // n1
  d::put_u64(p + 32, 1);  // m
  d::put_u32(p + 40, 1);  // section_count
  d::put_u64(p + 48, file_size);
  auto* e = p + d::header_bytes;
  d::put_u32(e + 0, csr_sec_e2n_indices);
  d::put_u32(e + 4, 8);
  d::put_u64(e + 8, sec_off);
  d::put_u64(e + 16, sec_len);
  refresh_header_checksum(bytes);
  auto expect_rejects = [](std::istream& in, const char* needle) {
    EXPECT_THROW(
        {
          try {
            read_csr_snapshot(in);
          } catch (const io_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
            throw;
          }
        },
        io_error);
  };
  // Seekable: the claim is checked against the real length before any
  // allocation.
  std::istringstream in(bytes, std::ios::binary);
  expect_rejects(in, "stream has 96");
  // Non-seekable: honest truncation on the first 4 MiB read.
  pipe_input pipe(bytes);
  expect_rejects(pipe.in, "stream ended after 96 of");
}

TEST(CsrSnapshot, CopyOfMmapViewIsOwningDeepCopy) {
#if NWHY_HAS_MMAP
  NWHypergraph hg(gen::arbitrary_hypergraph(0xD33D));
  scratch_file f("deepcopy");
  hg.save_csr_snapshot(f.path);
  nw::graph::adjacency<> copy;
  {
    auto snap = map_csr_snapshot(f.path);
    ASSERT_TRUE(snap.edges.csr().is_external());
    copy = snap.edges.csr();  // deep copy into owned storage
    EXPECT_FALSE(copy.is_external());
  }  // snapshot + mapping destroyed here
  // The copy must survive the unmap.
  expect_same_csr(copy, hg.hyperedges().csr());
#else
  GTEST_SKIP() << "no mmap on this platform";
#endif
}

// --- compressed sections (kinds 7-10): crafted-input rejection ----------------------
//
// Every mutation below produces a file whose checksums all verify (the
// refresh_* helpers re-hash after the edit), so the *structural* validation
// of the compressed payloads is what must catch it — with io_error carrying
// byte context, never UB.  scripts/sanitize.sh ubsan runs this suite under
// -fno-sanitize-recover to prove the "never UB" half.

namespace {

/// Table index of the first section with `kind`, or npos.
std::size_t section_index_by_kind(const std::string& bytes, std::uint32_t kind) {
  namespace d = csr_detail;
  const auto* p     = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint32_t count = d::get_u32(p + 40);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (d::get_u32(p + d::header_bytes + std::size_t{i} * d::table_entry_bytes) == kind) return i;
  }
  return std::string::npos;
}

/// Serialize `hg` as a compressed snapshot into a byte string.
std::string compressed_bytes(const NWHypergraph& hg, csr_compress_options opt = {}) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_snapshot(ss, hg.hyperedges(), hg.hypernodes(), opt);
  return ss.str();
}

/// Both readers must reject `bytes` with io_error (mmap without checksum
/// verification — proving structural validation alone suffices — and the
/// always-verifying streamed reader).
void expect_both_readers_reject(const std::string& bytes, const char* needle) {
  scratch_file bad("zcraft");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        try {
          load_csr_snapshot(bad.path);
        } catch (const io_error& e) {
          if (needle != nullptr) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
          }
          throw;
        }
      },
      io_error);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_csr_snapshot(in), io_error);
}

/// A hypergraph with exact duplicate hyperedge rows, so the compressing
/// writer emits the dictionary kinds 9/10.
NWHypergraph duplicated_rows_hypergraph() {
  biedgelist<> el;
  for (vertex_id_t e = 0; e < 12; ++e) {
    for (vertex_id_t v : {e % 4, static_cast<vertex_id_t>(e % 4 + 5)}) {
      el.push_back(e, v);
    }
  }
  el.sort_and_unique();
  return NWHypergraph(std::move(el));
}

}  // namespace

// --- legacy adjoin sections -------------------------------------------------------
//
// Writers no longer emit HAS_ADJOIN or kinds 5/6 (the adjoin graph is a view
// over the two CSRs), but readers accept files that carry them: both load
// paths adopt the bi-adjacency pair, keep the flag, and never decode the
// adjoin sections.

TEST(CsrSnapshot, LegacyAdjoinSnapshotAnswersAsPlainFigure1) {
  NWHypergraph              plain(nwtest::figure1_hypergraph());
  std::vector<csr_snapshot> loads;
  {
    std::ifstream in(kLegacyAdjoinSnapshot, std::ios::binary);
    loads.push_back(read_csr_snapshot(in, kLegacyAdjoinSnapshot));
  }
  loads.push_back(load_csr_snapshot(kLegacyAdjoinSnapshot, /*verify_checksums=*/true));
  for (auto& snap : loads) {
    EXPECT_NE(snap.flags & csr_flag_has_adjoin, 0u);
    expect_same_csr(snap.edges.csr(), plain.hyperedges().csr());
    expect_same_csr(snap.nodes.csr(), plain.hypernodes().csr());
    NWHypergraph hg(std::move(snap));
    for (vertex_id_t e = 0; e < plain.num_hyperedges(); ++e) {
      EXPECT_EQ(hg.bfs(e).dist_edge, plain.bfs(e).dist_edge);
      EXPECT_EQ(adjoin_bfs_distances(hg.adjoin(), e), adjoin_bfs_distances(plain.adjoin(), e));
    }
    const auto want = plain.connected_components();
    for (const auto& got : {hg.connected_components(), hg.connected_components_adjoin()}) {
      EXPECT_EQ(got.labels_edge, want.labels_edge);
      EXPECT_EQ(got.labels_node, want.labels_node);
    }
    EXPECT_EQ(hg.toplexes(), plain.toplexes());
  }
}

// Never decoded is not never read: a verified load hashes kinds 5/6 like
// every other listed section, so a flipped byte there is still io_error.
TEST(CsrSnapshot, LegacyAdjoinSectionsAreChecksummed) {
  std::string bytes = slurp(kLegacyAdjoinSnapshot);
  const auto  sec   = section_index_by_kind(bytes, csr_sec_adjoin_targets);
  ASSERT_NE(sec, std::string::npos);
  bytes[section_offset(bytes, sec) + 5] ^= 0x01;
  scratch_file f("legacy_flip");
  dump(f.path, bytes);
  EXPECT_THROW(load_csr_snapshot(f.path, /*verify_checksums=*/true), io_error);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_csr_snapshot(in), io_error);
}

TEST(CsrSnapshotCompressed, RejectsTruncationInsideCompressedPayloads) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A17));
  auto         bytes = compressed_bytes(hg);
  ASSERT_GT(bytes.size(), 256u);
  for (std::size_t keep : {std::size_t{200}, bytes.size() / 2, bytes.size() - 5}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    scratch_file cut("ztrunc");
    dump(cut.path, bytes.substr(0, keep));
    EXPECT_THROW(load_csr_snapshot(cut.path), io_error);
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW(read_csr_snapshot(in), io_error);
  }
}

TEST(CsrSnapshotCompressed, RejectsControlStreamOverrunningItsBlock) {
  // Crank the first control byte to all-4-byte lanes: the per-block demand
  // recomputed by the validator no longer matches the block's data slice.
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A18));
  auto bytes = compressed_bytes(hg, csr_compress_options{true, /*dedup_rows=*/false, 4096});
  auto sec   = section_index_by_kind(bytes, csr_sec_e2n_targets_svb);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  const auto* p  = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto  off = d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 8);
  const auto  nv  = d::get_u64(p + off + 8);
  const auto  nb  = (nv + 4095) / 4096;
  // ctrl stream begins after the 32-byte sub-header and nb x 16-byte metas.
  auto* ctrl0 = reinterpret_cast<unsigned char*>(bytes.data()) + off + 32 + nb * 16;
  ASSERT_NE(*ctrl0, 0xFF) << "fixture delta widths already maximal";
  *ctrl0 = 0xFF;
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, "control");
}

TEST(CsrSnapshotCompressed, RejectsPayloadSmallerThanItsGeometry) {
  // Shrink the section length in the table: the sub-header's own geometry
  // (metas + control + data + pad) no longer fits.
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A19));
  auto bytes = compressed_bytes(hg, csr_compress_options{true, false, 4096});
  auto sec   = section_index_by_kind(bytes, csr_sec_n2e_targets_svb);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  auto* e   = reinterpret_cast<unsigned char*>(bytes.data()) + d::header_bytes +
            sec * d::table_entry_bytes;
  const auto len = d::get_u64(e + 16);
  ASSERT_GT(len, 8u);
  d::put_u64(e + 16, len - 8);
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, nullptr);
}

TEST(CsrSnapshotCompressed, RejectsDataBytesInflatedPastTheSection) {
  // Inflate the sub-header's data_bytes: now geometry exceeds the payload.
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A1A));
  auto bytes = compressed_bytes(hg, csr_compress_options{true, false, 4096});
  auto sec   = section_index_by_kind(bytes, csr_sec_e2n_targets_svb);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  const auto* p   = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto  off = d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 8);
  auto* db = reinterpret_cast<unsigned char*>(bytes.data()) + off + 16;
  d::put_u64(db, d::get_u64(db) + 1000);
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, nullptr);
}

TEST(CsrSnapshotCompressed, RejectsCompressedCountDisagreeingWithHeader) {
  // Shrink the header's incidence count m: the E2N index section still
  // sums to the real count, which no longer matches.
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A1B));
  auto bytes = compressed_bytes(hg, csr_compress_options{true, false, 4096});
  namespace d = csr_detail;
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  const auto m = d::get_u64(p + 32);
  ASSERT_GT(m, 0u);
  d::put_u64(p + 32, m - 1);
  refresh_header_checksum(bytes);
  expect_both_readers_reject(bytes, nullptr);
}

TEST(CsrSnapshotCompressed, RejectsDictRefOutOfRange) {
  NWHypergraph hg = duplicated_rows_hypergraph();
  auto         bytes = compressed_bytes(hg);
  auto         sec   = section_index_by_kind(bytes, csr_sec_e2n_dict_refs);
  ASSERT_NE(sec, std::string::npos) << "fixture did not engage the dictionary";
  namespace d = csr_detail;
  auto* r0 = reinterpret_cast<unsigned char*>(bytes.data()) + section_offset(bytes, sec);
  d::put_u32(r0, 0xFFFFFFF0u);
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, "dictionary");
}

TEST(CsrSnapshotCompressed, RejectsDictRefWithMismatchedDegree) {
  // Point a row's ref at a dictionary row of a *different* length: the
  // degree cross-check (dict row length vs the row's index extent) fires
  // even though the ref itself is in range.
  NWHypergraph hg = duplicated_rows_hypergraph();
  // Append one hyperedge with a distinct degree so two dictionary rows of
  // different lengths exist.
  biedgelist<> el = hg.edge_list();
  for (vertex_id_t v : {0, 1, 2, 3, 4}) el.push_back(12, v);
  for (vertex_id_t v : {0, 1, 2, 3, 4}) el.push_back(13, v);
  NWHypergraph hg2(std::move(el));
  auto         bytes = compressed_bytes(hg2);
  auto         sec   = section_index_by_kind(bytes, csr_sec_e2n_dict_refs);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  auto* p  = reinterpret_cast<unsigned char*>(bytes.data());
  auto* r  = p + section_offset(bytes, sec);
  // Row 0 has degree 2, the appended rows degree 5: swap row 0's ref for
  // the last row's ref (a different dictionary slot with another length).
  const auto last = d::get_u32(r + (hg2.num_hyperedges() - 1) * 4);
  ASSERT_NE(d::get_u32(r), last);
  d::put_u32(r, last);
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, "dictionary");
}

TEST(CsrSnapshotCompressed, RejectsIncompleteDictionaryPair) {
  NWHypergraph hg = duplicated_rows_hypergraph();
  for (std::uint32_t victim : {csr_sec_e2n_dict_refs, csr_sec_e2n_dict_indices}) {
    SCOPED_TRACE("victim kind " + std::to_string(victim));
    auto bytes = compressed_bytes(hg);
    auto sec   = section_index_by_kind(bytes, victim);
    ASSERT_NE(sec, std::string::npos);
    namespace d = csr_detail;
    // Re-kind the section to an unknown id: readers drop unknown kinds, so
    // its partner is now alone.
    d::put_u32(reinterpret_cast<unsigned char*>(bytes.data()) + d::header_bytes +
                   sec * d::table_entry_bytes,
               1999);
    refresh_header_checksum(bytes);
    expect_both_readers_reject(bytes, "pair");
  }
}

TEST(CsrSnapshotCompressed, RejectsDictionaryWithoutCompressedTargets) {
  // Re-kind the SVB targets section away: the dictionary pair now rides
  // alongside a raw/absent E2N targets section, which the spec forbids.
  NWHypergraph hg = duplicated_rows_hypergraph();
  auto         bytes = compressed_bytes(hg);
  auto         sec   = section_index_by_kind(bytes, csr_sec_e2n_targets_svb);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  d::put_u32(reinterpret_cast<unsigned char*>(bytes.data()) + d::header_bytes +
                 sec * d::table_entry_bytes,
             1999);
  refresh_header_checksum(bytes);
  expect_both_readers_reject(bytes, "dictionary");
}

TEST(CsrSnapshotCompressed, OldReaderStoryMissingTargetsReadsAsMissingSection) {
  // Forward compatibility: a reader that predates the compressed kinds
  // sees them as unknown sections and reports the raw targets section as
  // missing — the documented failure mode.  Emulate by re-kinding *both*
  // SVB sections away and checking the message names the required kind.
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A1C));
  auto bytes = compressed_bytes(hg, csr_compress_options{true, false, 4096});
  namespace d = csr_detail;
  for (std::uint32_t kind : {csr_sec_e2n_targets_svb, csr_sec_n2e_targets_svb}) {
    auto sec = section_index_by_kind(bytes, kind);
    ASSERT_NE(sec, std::string::npos);
    d::put_u32(reinterpret_cast<unsigned char*>(bytes.data()) + d::header_bytes +
                   sec * d::table_entry_bytes,
               1999);
  }
  refresh_header_checksum(bytes);
  expect_both_readers_reject(bytes, "missing required section");
}

// The per-block min/max steer contains() skipping, so they must be exact:
// a forged pair wide enough that the probe still decodes the block must be
// rejected at decode time (io_error), not silently tolerated — otherwise
// crafted skip metadata could make stream-mode queries diverge from a
// materialized load of the same file.  The checksum-skipping mmap path is
// the one with no other line of defense.
TEST(CsrSnapshotCompressed, ForgedBlockMinMaxFailsLoudlyWhenDecoded) {
  NWHypergraph hg = duplicated_rows_hypergraph();
  auto         bytes = compressed_bytes(hg);
  auto         sec   = section_index_by_kind(bytes, csr_sec_e2n_targets_svb);
  ASSERT_NE(sec, std::string::npos);
  namespace d = csr_detail;
  // Widen block 0's min/max to [0, 2^32-1]: no probe is ever diverted, so
  // the first contains() decode sees metadata disagreeing with the values.
  auto* meta = reinterpret_cast<unsigned char*>(bytes.data()) + section_offset(bytes, sec) + 32;
  d::put_u32(meta + 8, 0);
  d::put_u32(meta + 12, 0xFFFFFFFFu);
  refresh_section_checksum(bytes, sec);
  scratch_file bad("zminmax");
  dump(bad.path, bytes);
  auto snap = load_csr_snapshot(bad.path, /*verify_checksums=*/false, snapshot_decode::stream);
  ASSERT_TRUE(snap.edges_view.has_value());
  EXPECT_THROW(
      {
        try {
          (void)snap.edges_view->contains(0, 0);
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("min/max"), std::string::npos) << e.what();
          throw;
        }
      },
      io_error);
}

// to_biedgelist on a stream-mode snapshot must expand the *compressed* E2N
// view (it used to read the unpopulated `edges` CSR and silently return an
// empty incidence list).
TEST(CsrSnapshotCompressed, StreamModeToBiedgelistMatchesEdgeList) {
  NWHypergraph hg(gen::arbitrary_hypergraph(0x7A1D));
  scratch_file f("zstream_el");
  hg.save_csr_snapshot(f.path, csr_compress_options{});
  auto snap = load_csr_snapshot(f.path, /*verify_checksums=*/true, snapshot_decode::stream);
  ASSERT_TRUE(snap.streaming());
  auto el = snap.to_biedgelist();
  ASSERT_EQ(el.size(), hg.edge_list().size());
  for (std::size_t i = 0; i < el.size(); ++i) ASSERT_EQ(el[i], hg.edge_list()[i]);
  // The expansion is one-shot: the snapshot itself stays in stream mode.
  EXPECT_TRUE(snap.streaming());
}

// --------------------------------------------------------------------------
// Crafted shard-directory inputs (kinds 11/12/13).  Every mutation below
// keeps all checksums valid — exactly what a *crafted* file looks like —
// so rejection must come from structural validation in both plain readers
// and in the out-of-core sharded_snapshot, always as io_error, never UB.

#include "nwhy/io/shard.hpp"

namespace {

/// Serialize `hg` as a sharded snapshot (optionally SVB slices, optionally
/// with an embedded kind-13 inverse map) into a byte string.
std::string sharded_bytes(const NWHypergraph& hg, std::uint32_t shards, bool compress = false,
                          std::span<const vertex_id_t> relabel_inv = {}) {
  csr_shard_options so;
  so.shards   = shards;
  so.compress = compress;
  csr_write_options wopt;
  wopt.shard       = &so;
  wopt.relabel_inv = relabel_inv;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_snapshot(ss, hg.hyperedges(), hg.hypernodes(), wopt);
  return ss.str();
}

std::uint64_t peek_dir_word(const std::string& bytes, std::size_t shard, std::size_t word) {
  namespace d = csr_detail;
  const auto  sec = section_index_by_kind(bytes, csr_sec_shard_dir);
  const auto* p   = reinterpret_cast<const unsigned char*>(bytes.data());
  return d::get_u64(p + section_offset(bytes, sec) +
                    (shard * d::shard_record_words + word) * 8);
}

/// Overwrite one u64 of shard record `shard` and re-validate all checksums.
void poke_dir_word(std::string& bytes, std::size_t shard, std::size_t word,
                   std::uint64_t value) {
  namespace d  = csr_detail;
  const auto sec = section_index_by_kind(bytes, csr_sec_shard_dir);
  auto*      p   = reinterpret_cast<unsigned char*>(bytes.data());
  d::put_u64(p + section_offset(bytes, sec) + (shard * d::shard_record_words + word) * 8, value);
  refresh_section_checksum(bytes, sec);
}

/// Shrink section `sec`'s table length field and refresh its checksum over
/// the shortened payload (header checksum included).
void shrink_section_length(std::string& bytes, std::size_t sec, std::uint64_t new_len) {
  namespace d = csr_detail;
  auto* p     = reinterpret_cast<unsigned char*>(bytes.data());
  d::put_u64(p + d::header_bytes + sec * d::table_entry_bytes + 16, new_len);
  refresh_section_checksum(bytes, sec);
}

/// The out-of-core reader must reject too: either at open or at the first
/// load_shard sweep.
void expect_sharded_reader_rejects(const std::string& bytes) {
  scratch_file bad("shcraft");
  dump(bad.path, bytes);
  EXPECT_THROW(
      {
        sharded_snapshot snap(bad.path);
        for (std::size_t k = 0; k < snap.num_shards(); ++k) (void)snap.load_shard(k);
      },
      io_error);
}

NWHypergraph sharded_fixture() { return NWHypergraph(gen::arbitrary_hypergraph(0x5AA0)); }

}  // namespace

TEST(CsrSnapshotSharded, RejectsOverlappingShardRanges) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 0, 1, peek_dir_word(bytes, 0, 1) + 1);  // e_end into shard 1
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsGappedOrOutOfOrderShardRanges) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 1, 0, peek_dir_word(bytes, 1, 0) + 1);  // gap after shard 0
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsMisalignedSlicePayload) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 1, 2, peek_dir_word(bytes, 1, 2) + 8);  // e2n_off off 64-alignment
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsDirectoryLengthNotARecordMultiple) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  const auto sec = section_index_by_kind(bytes, csr_sec_shard_dir);
  namespace d = csr_detail;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto  len = d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 16);
  shrink_section_length(bytes, sec, len - 8);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsIncidenceCountLie) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 0, 8, peek_dir_word(bytes, 0, 8) + 1);  // counts no longer sum to m
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsSubIndexLengthLie) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 0, 5, peek_dir_word(bytes, 0, 5) - 8);  // sub_len != (n1+1)*8
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsTruncatedShardPayload) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  const auto sec = section_index_by_kind(bytes, csr_sec_shard_payload);
  namespace d = csr_detail;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto  len = d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 16);
  ASSERT_GT(len, 64u);
  shrink_section_length(bytes, sec, len - 64);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsUnknownShardFlags) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  poke_dir_word(bytes, 0, 9, 4);  // only bit 0 (SVB) is defined
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsOutOfRangeSliceTargets) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);  // raw slices: targets are plain u32
  namespace d = csr_detail;
  const auto sec         = section_index_by_kind(bytes, csr_sec_shard_payload);
  const auto payload_off = section_offset(bytes, sec);
  const auto e2n_off     = peek_dir_word(bytes, 0, 2);
  auto*      p           = reinterpret_cast<unsigned char*>(bytes.data());
  d::put_u32(p + payload_off + e2n_off, 0xFFFFFFF0u);  // >= n1
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsDirectoryWithoutPayload) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3);
  namespace d = csr_detail;
  const auto sec = section_index_by_kind(bytes, csr_sec_shard_payload);
  auto*      p   = reinterpret_cast<unsigned char*>(bytes.data());
  d::put_u32(p + d::header_bytes + sec * d::table_entry_bytes, 99);  // now an unknown kind
  d::put_u32(p + d::header_bytes + sec * d::table_entry_bytes + 4, 0);
  refresh_header_checksum(bytes);
  expect_both_readers_reject(bytes, "pair");
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsRelabelInvNonPermutation) {
  auto hg = sharded_fixture();
  std::vector<vertex_id_t> identity(hg.num_hyperedges());
  std::iota(identity.begin(), identity.end(), 0);
  auto bytes = sharded_bytes(hg, 3, false, identity);
  namespace d = csr_detail;
  const auto sec = section_index_by_kind(bytes, csr_sec_relabel_inv);
  ASSERT_NE(sec, std::string::npos);
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  // Duplicate entry 0 into slot 1: still in range, no longer a bijection.
  d::put_u32(p + section_offset(bytes, sec) + 4, 0);
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, RejectsRelabelInvOutOfRangeEntry) {
  auto hg = sharded_fixture();
  std::vector<vertex_id_t> identity(hg.num_hyperedges());
  std::iota(identity.begin(), identity.end(), 0);
  auto bytes = sharded_bytes(hg, 3, false, identity);
  namespace d = csr_detail;
  const auto sec = section_index_by_kind(bytes, csr_sec_relabel_inv);
  auto*      p   = reinterpret_cast<unsigned char*>(bytes.data());
  d::put_u32(p + section_offset(bytes, sec), static_cast<std::uint32_t>(hg.num_hyperedges()));
  refresh_section_checksum(bytes, sec);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}

TEST(CsrSnapshotSharded, SvbSlicesRejectTruncationToo) {
  auto hg    = sharded_fixture();
  auto bytes = sharded_bytes(hg, 3, /*compress=*/true);
  const auto sec = section_index_by_kind(bytes, csr_sec_shard_payload);
  namespace d = csr_detail;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto  len = d::get_u64(p + d::header_bytes + sec * d::table_entry_bytes + 16);
  ASSERT_GT(len, 128u);
  shrink_section_length(bytes, sec, len - 128);
  expect_both_readers_reject(bytes, nullptr);
  expect_sharded_reader_rejects(bytes);
}
