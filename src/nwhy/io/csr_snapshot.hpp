// nwhy/io/csr_snapshot.hpp
//
// NWHYCSR2: the versioned binary snapshot of a hypergraph's *built* CSR
// structures.  Where NWHYBIN1 (nwhy/io/binary.hpp) caches the raw edge list
// and pays the full parallel CSR construction on every load, NWHYCSR2
// serializes both bi-adjacency CSRs, so a load is just a validation pass
// plus — on the mmap path — zero copies: `map_csr_snapshot` hands
// file-backed `std::span`s straight into `biadjacency`, making load one
// streaming scan of the file with no parsing, hashing, or construction.
//
// Byte-level layout (little-endian throughout; docs/IO_FORMATS.md is the
// normative spec — keep the two in sync):
//
//   offset size  field
//   ------ ----  -----------------------------------------------------------
//        0    8  magic "NWHYCSR2"
//        8    4  u32 version (currently 1)
//       12    4  u32 flags: bit0 HAS_ADJOIN (legacy), bit1 CANONICAL
//       16    8  u64 n0   (hyperedge cardinality)
//       24    8  u64 n1   (hypernode cardinality)
//       32    8  u64 m    (incidence count)
//       40    4  u32 section_count
//       44    4  u32 reserved (0)
//       48    8  u64 file_size (end of last section payload)
//       56    8  u64 header_checksum: FNV-1a-64 over bytes [0,56) ++ the
//                 whole section table
//       64  32k  section table: section_count entries of 32 bytes each
//                   u32 kind | u32 elem_size | u64 offset | u64 length |
//                   u64 checksum (FNV-1a-64 over the payload bytes)
//
// Section kinds (elem_size in parentheses):
//   1 E2N_INDICES    (8)  (n0+1) x u64   hyperedge->hypernode row offsets
//   2 E2N_TARGETS    (4)  m x u32        hypernode ids
//   3 N2E_INDICES    (8)  (n1+1) x u64   hypernode->hyperedge row offsets
//   4 N2E_TARGETS    (4)  m x u32        hyperedge ids
//   5 ADJOIN_INDICES (8)  legacy: never written, checksummed, never decoded
//   6 ADJOIN_TARGETS (4)  legacy: never written, checksummed, never decoded
//
// Every payload starts at a 64-byte-aligned offset (zero padding between
// sections); table order equals file order (strictly increasing offsets).
// CANONICAL means the CSRs came from a sort_and_unique'd edge list with
// sorted neighbor rows — NWHypergraph adopts such snapshots wholesale and
// rebuilds from scratch otherwise.
//
// One parser, two front ends: `map_csr_snapshot` maps the file and
// `read_csr_snapshot` stages a stream into one owned image; both hand the
// bytes to parse_header + snapshot_from_image, so the two load paths accept
// and reject exactly the same files.
//
// Validation policy: bad magic, unsupported versions, truncation,
// out-of-bounds/misaligned sections, u32 id overflow and header-checksum
// mismatch are rejected with io_error (never abort).  A full structural pass
// runs over every adopted CSR — row offsets must be monotonically
// non-decreasing and every target id must index the opposite partition —
// because checksums are forgeable and a crafted snapshot must never be able
// to drive to_biedgelist or the algorithms out of bounds.  That pass is
// O(n + m) parallel integer compares (memory-bandwidth bound, a tiny
// fraction of what re-parsing text would cost), so the mmap load is "one
// streaming read" rather than strictly O(page faults).  A verified load
// hashes every listed section, unknown kinds included; the streamed reader
// always verifies, the mmap loader only when asked (`verify_checksums`),
// since hashing is much slower than the structural compare pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <ostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define NWHY_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define NWHY_HAS_MMAP 0
#endif

#include "nwhy/biadjacency.hpp"
#include "nwhy/biedgelist.hpp"
#include "nwhy/io/compress.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"

namespace nw::hypergraph {

static_assert(std::endian::native == std::endian::little,
              "NWHYCSR2 snapshots assume a little-endian host");
static_assert(sizeof(nw::offset_t) == 8 && sizeof(nw::vertex_id_t) == 4,
              "NWHYCSR2 section layout is fixed to u64 offsets / u32 ids");

inline constexpr char          csr_snapshot_magic[8] = {'N', 'W', 'H', 'Y', 'C', 'S', 'R', '2'};
inline constexpr std::uint32_t csr_snapshot_version  = 1;

/// Header flag bits.  HAS_ADJOIN is legacy: older writers set it with
/// sections 5/6, which readers checksum but never decode (the adjoin graph
/// is a view over the two CSRs, nwhy/adjoin.hpp).
inline constexpr std::uint32_t csr_flag_has_adjoin = 1u << 0;
inline constexpr std::uint32_t csr_flag_canonical  = 1u << 1;

/// Section kinds.
inline constexpr std::uint32_t csr_sec_e2n_indices    = 1;
inline constexpr std::uint32_t csr_sec_e2n_targets    = 2;
inline constexpr std::uint32_t csr_sec_n2e_indices    = 3;
inline constexpr std::uint32_t csr_sec_n2e_targets    = 4;
inline constexpr std::uint32_t csr_sec_adjoin_indices = 5;
inline constexpr std::uint32_t csr_sec_adjoin_targets = 6;

/// Compressed section kinds (docs/IO_FORMATS.md §4).  A compressing writer
/// emits kind 7 (and optionally 9+10) *instead of* kind 2, and kind 8
/// instead of kind 4; index sections stay raw — algorithms need the logical
/// per-row offsets for degrees regardless of how targets are stored.  An
/// old (pre-compression) reader treats 7–10 as unknown kinds — checksummed,
/// skipped — and then fails cleanly with "missing required section kind 2",
/// the intended forward-compat behavior.
inline constexpr std::uint32_t csr_sec_e2n_targets_svb  = 7;   ///< StreamVByte blocks (elem 1)
inline constexpr std::uint32_t csr_sec_n2e_targets_svb  = 8;   ///< StreamVByte blocks (elem 1)
inline constexpr std::uint32_t csr_sec_e2n_dict_refs    = 9;   ///< n0 x u32 unique-row refs
inline constexpr std::uint32_t csr_sec_e2n_dict_indices = 10;  ///< (n_unique+1) x u64

/// Locality section kinds (docs/IO_FORMATS.md §4.7).  A sharding writer
/// slices both target streams into K contiguous hyperedge-range shards and
/// emits kinds 11+12 *instead of* the target sections (2/4 or 7/8); the
/// index sections (1/3) stay raw and resident.  Old readers skip 11/12 as
/// unknown kinds and fail with "missing required section kind 2" — the same
/// forward-compat story as the compressed kinds.  Kind 13 records the
/// degree-relabel inverse permutation (old external id of each stored row)
/// so loaders can keep answers in the caller's original id space.
inline constexpr std::uint32_t csr_sec_shard_dir     = 11;  ///< K x 80-byte shard records (elem 8)
inline constexpr std::uint32_t csr_sec_shard_payload = 12;  ///< concatenated shard slices (elem 1)
inline constexpr std::uint32_t csr_sec_relabel_inv   = 13;  ///< n0 x u32 old-id-of-row map

/// Human-readable section kind name (`nwhy_tool inspect`).
inline const char* csr_section_kind_name(std::uint32_t kind) {
  switch (kind) {
    case csr_sec_e2n_indices: return "E2N_INDICES";
    case csr_sec_e2n_targets: return "E2N_TARGETS";
    case csr_sec_n2e_indices: return "N2E_INDICES";
    case csr_sec_n2e_targets: return "N2E_TARGETS";
    case csr_sec_adjoin_indices: return "ADJOIN_INDICES";
    case csr_sec_adjoin_targets: return "ADJOIN_TARGETS";
    case csr_sec_e2n_targets_svb: return "E2N_TARGETS_SVB";
    case csr_sec_n2e_targets_svb: return "N2E_TARGETS_SVB";
    case csr_sec_e2n_dict_refs: return "E2N_DICT_REFS";
    case csr_sec_e2n_dict_indices: return "E2N_DICT_INDICES";
    case csr_sec_shard_dir: return "SHARD_DIR";
    case csr_sec_shard_payload: return "SHARD_PAYLOAD";
    case csr_sec_relabel_inv: return "RELABEL_INV";
    default: return "UNKNOWN";
  }
}

/// How a reader should handle compressed target sections.
enum class snapshot_decode {
  materialize,  ///< decode into owned CSRs at load — downstream code sees
                ///< exactly what a raw snapshot would have produced
  stream,       ///< keep `compressed_adjacency` views; traversal decodes
                ///< block-wise on demand with bounded memory
};

namespace csr_detail {

inline constexpr std::size_t header_bytes        = 64;
inline constexpr std::size_t checksummed_header  = 56;  ///< header bytes under the checksum
inline constexpr std::size_t table_entry_bytes   = 32;
inline constexpr std::size_t section_alignment   = 64;
inline constexpr std::size_t max_section_count   = 16;  ///< sanity bound for v1 readers

inline constexpr std::uint64_t fnv_basis = 14695981039346656037ull;
inline constexpr std::uint64_t fnv_prime = 1099511628211ull;

/// FNV-1a-64 over a byte run, chainable via `h`.
inline std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t h = fnv_basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= fnv_prime;
  }
  return h;
}

inline void put_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
inline void put_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

struct section_entry {
  std::uint32_t kind      = 0;
  std::uint32_t elem_size = 0;
  std::uint64_t offset    = 0;
  std::uint64_t length    = 0;  ///< payload bytes (excludes alignment padding)
  std::uint64_t checksum  = 0;
};

/// Everything parsed and validated out of header + table (no payloads).
struct parsed_header {
  std::uint32_t              version = 0;
  std::uint32_t              flags   = 0;
  std::uint64_t              n0 = 0, n1 = 0, m = 0;
  std::uint64_t              file_size = 0;
  std::vector<section_entry> sections;

  [[nodiscard]] const section_entry* find(std::uint32_t kind) const {
    for (const auto& s : sections) {
      if (s.kind == kind) return &s;
    }
    return nullptr;
  }
};

/// Expected elem_size per kind (0 = unknown kind, tolerated for forward
/// compatibility as long as the bounds hold).
inline std::uint32_t expected_elem_size(std::uint32_t kind) {
  switch (kind) {
    case csr_sec_e2n_indices:
    case csr_sec_n2e_indices:
    case csr_sec_adjoin_indices:
    case csr_sec_e2n_dict_indices:
    case csr_sec_shard_dir: return 8;
    case csr_sec_e2n_targets:
    case csr_sec_n2e_targets:
    case csr_sec_adjoin_targets:
    case csr_sec_e2n_dict_refs:
    case csr_sec_relabel_inv: return 4;
    case csr_sec_e2n_targets_svb:
    case csr_sec_n2e_targets_svb:
    case csr_sec_shard_payload: return 1;
    default: return 0;
  }
}

/// Parse + structurally validate header and section table from a byte
/// buffer holding at least the header+table prefix.  `available` is how
/// many bytes of the file are actually present (mmap: the mapping size;
/// stream: claimed file_size once the prefix is read).  Throws io_error.
inline parsed_header parse_header(const unsigned char* data, std::uint64_t available,
                                  const std::string& origin) {
  if (available < header_bytes) {
    throw io_error("truncated NWHYCSR2 snapshot (no room for the 64-byte header)", origin, 0,
                   available);
  }
  if (std::memcmp(data, csr_snapshot_magic, sizeof(csr_snapshot_magic)) != 0) {
    throw io_error("not an NWHYCSR2 snapshot (bad magic)", origin, 0, 0);
  }
  parsed_header h;
  h.version = get_u32(data + 8);
  h.flags   = get_u32(data + 12);
  if (h.version != csr_snapshot_version) {
    throw io_error("unsupported NWHYCSR2 version " + std::to_string(h.version) +
                       " (this reader understands version 1)",
                   origin, 0, 8);
  }
  h.n0 = get_u64(data + 16);
  h.n1 = get_u64(data + 24);
  h.m  = get_u64(data + 32);
  const std::uint32_t count = get_u32(data + 40);
  h.file_size               = get_u64(data + 48);
  if (count == 0 || count > max_section_count) {
    throw io_error("NWHYCSR2 section count " + std::to_string(count) + " out of range [1, " +
                       std::to_string(max_section_count) + "]",
                   origin, 0, 40);
  }
  const std::uint64_t table_end = header_bytes + std::uint64_t{count} * table_entry_bytes;
  if (available < table_end || h.file_size < table_end) {
    throw io_error("truncated NWHYCSR2 snapshot (section table cut short)", origin, 0,
                   header_bytes);
  }
  if (h.file_size > available) {
    throw io_error("truncated NWHYCSR2 snapshot (header declares " +
                       std::to_string(h.file_size) + " bytes, file has " +
                       std::to_string(available) + ")",
                   origin, 0, 48);
  }
  const std::uint64_t stored = get_u64(data + 56);
  std::uint64_t       actual = fnv1a64(data, checksummed_header);
  actual = fnv1a64(data + header_bytes, table_end - header_bytes, actual);
  if (stored != actual) {
    throw io_error("NWHYCSR2 header checksum mismatch (file corrupt?)", origin, 0, 56);
  }

  // u32 id space: ids must fit vertex_id_t with the null sentinel reserved.
  const std::uint64_t id_limit = std::numeric_limits<nw::vertex_id_t>::max();
  if (h.n0 > id_limit || h.n1 > id_limit) {
    throw io_error("NWHYCSR2 cardinality overflows the 32-bit id space", origin, 0, 16);
  }

  h.sections.resize(count);
  std::uint64_t prev_end   = table_end;
  std::uint32_t seen_kinds = 0;  // known kinds are 1..13, so a u32 mask fits
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* e  = data + header_bytes + std::size_t{i} * table_entry_bytes;
    auto&                s  = h.sections[i];
    s.kind      = get_u32(e + 0);
    s.elem_size = get_u32(e + 4);
    s.offset    = get_u64(e + 8);
    s.length    = get_u64(e + 16);
    s.checksum  = get_u64(e + 24);
    const std::size_t entry_off = header_bytes + std::size_t{i} * table_entry_bytes;
    if (s.offset % section_alignment != 0) {
      throw io_error("NWHYCSR2 section " + std::to_string(i) + " payload is not 64-byte aligned",
                     origin, 0, entry_off);
    }
    if (s.offset < prev_end || s.length > h.file_size || s.offset > h.file_size - s.length) {
      throw io_error("NWHYCSR2 section " + std::to_string(i) +
                         " out of bounds (offset " + std::to_string(s.offset) + ", length " +
                         std::to_string(s.length) + ", file size " +
                         std::to_string(h.file_size) + ")",
                     origin, 0, entry_off);
    }
    const std::uint32_t want = expected_elem_size(s.kind);
    // Known kinds may appear at most once: every consumer resolves a kind
    // to ONE section (require_section / parsed_header::find), so a file
    // listing a kind twice could have its two copies validated and adopted
    // inconsistently.  Unknown kinds may repeat — they are dropped
    // wholesale.
    if (want != 0) {
      if ((seen_kinds >> s.kind) & 1u) {
        throw io_error("NWHYCSR2 snapshot lists section kind " + std::to_string(s.kind) +
                           " more than once",
                       origin, 0, entry_off);
      }
      seen_kinds |= 1u << s.kind;
    }
    if (want != 0 && s.elem_size != want) {
      throw io_error("NWHYCSR2 section kind " + std::to_string(s.kind) +
                         " has elem_size " + std::to_string(s.elem_size) + ", expected " +
                         std::to_string(want),
                     origin, 0, entry_off);
    }
    if (s.elem_size != 0 && s.length % s.elem_size != 0) {
      throw io_error("NWHYCSR2 section " + std::to_string(i) +
                         " length is not a multiple of its element size",
                     origin, 0, entry_off);
    }
    prev_end = s.offset + s.length;
  }
  return h;
}

/// Locate a required section and check its exact payload length.
inline const section_entry& require_section(const parsed_header& h, std::uint32_t kind,
                                            std::uint64_t expect_bytes,
                                            const std::string& origin) {
  const section_entry* s = h.find(kind);
  if (s == nullptr) {
    throw io_error("NWHYCSR2 snapshot is missing required section kind " + std::to_string(kind),
                   origin, 0, header_bytes);
  }
  if (s->length != expect_bytes) {
    throw io_error("NWHYCSR2 section kind " + std::to_string(kind) + " has " +
                       std::to_string(s->length) + " bytes, expected " +
                       std::to_string(expect_bytes),
                   origin, 0, header_bytes);
  }
  return *s;
}

/// Cheap O(1)-page invariants on an index section: starts at 0, ends at the
/// declared element count of the paired targets section.
inline void check_index_extents(std::span<const nw::offset_t> idx, std::uint64_t want_end,
                                const char* what, const std::string& origin) {
  if (idx.empty() || idx.front() != 0 || idx.back() != want_end) {
    throw io_error(std::string("NWHYCSR2 ") + what +
                       " index section is inconsistent with its targets section",
                   origin, 0, header_bytes);
  }
}

/// Full structural validation of one CSR section pair before it is adopted:
/// row offsets must be monotonically non-decreasing (together with the
/// extents check this pins every offset into [0, tgt.size()]), and every
/// target id must index the opposite partition (`target_bound`
/// exclusive).  Checksums are forgeable — and the mmap path skips them by
/// default — so this pass is what stands between a corrupt or crafted
/// .nwcsr and out-of-bounds reads/writes in to_biedgelist and every
/// algorithm that walks the CSR.  O(n + m) parallel integer compares.
inline void check_index_structure(std::span<const nw::offset_t> idx, std::uint64_t want_end,
                                  const char* what, const std::string& origin,
                                  par::thread_pool& pool = par::thread_pool::default_pool()) {
  check_index_extents(idx, want_end, what, origin);
  std::atomic<bool> bad_idx{false};
  par::parallel_for(
      0, idx.size() - 1,
      [&](std::size_t i) {
        if (idx[i] > idx[i + 1]) bad_idx.store(true, std::memory_order_relaxed);
      },
      par::blocked{}, pool);
  if (bad_idx.load(std::memory_order_relaxed)) {
    throw io_error(std::string("NWHYCSR2 ") + what +
                       " index section is not monotonically non-decreasing",
                   origin, 0, header_bytes);
  }
}

inline void check_csr_structure(std::span<const nw::offset_t>    idx,
                                std::span<const nw::vertex_id_t> tgt,
                                std::uint64_t target_bound, const char* what,
                                const std::string& origin,
                                par::thread_pool& pool = par::thread_pool::default_pool()) {
  check_index_structure(idx, tgt.size(), what, origin, pool);
  std::atomic<bool> bad_tgt{false};
  par::parallel_for(
      0, tgt.size(),
      [&](std::size_t k) {
        if (tgt[k] >= target_bound) bad_tgt.store(true, std::memory_order_relaxed);
      },
      par::blocked{}, pool);
  if (bad_tgt.load(std::memory_order_relaxed)) {
    throw io_error(std::string("NWHYCSR2 ") + what +
                       " targets section holds ids outside the opposite partition",
                   origin, 0, header_bytes);
  }
}

// ---- Hyperedge-range shards (kinds 11/12) --------------------------------
//
// The shard directory is K consecutive 80-byte records of 10 u64 words:
//
//   w0 e_begin   w1 e_end     hyperedge range [e_begin, e_end)
//   w2 e2n_off   w3 e2n_len   E2N targets slice for rows in the range
//   w4 sub_off   w5 sub_len   per-shard N2E sub-index, (n1+1) x u64
//   w6 n2e_off   w7 n2e_len   N2E targets slice: incident edge ids in range
//   w8 count                  incidences in the range
//   w9 flags                  bit0: both target slices are SVB payloads
//
// Offsets are relative to the start of the SHARD_PAYLOAD section, 64-byte
// aligned, and the three segments of record i appear in that order after
// every segment of record i-1 (no overlap).  Ranges exactly partition
// [0, n0) in ascending order and counts sum to m.  The sub-index delimits,
// per hypernode, its incident edges *within the range*; because canonical
// N2E rows are sorted, the global row of a node is the concatenation of its
// shard slices in shard order — which is how `reassemble_from_shards`
// rebuilds the raw streams and how `sharded_snapshot` serves one shard at a
// time without touching the rest of the file.

inline constexpr std::size_t   shard_record_words = 10;
inline constexpr std::uint64_t shard_flag_svb     = 1;

struct shard_entry {
  std::uint64_t e_begin = 0, e_end = 0;
  std::uint64_t e2n_off = 0, e2n_len = 0;
  std::uint64_t sub_off = 0, sub_len = 0;
  std::uint64_t n2e_off = 0, n2e_len = 0;
  std::uint64_t count = 0, flags = 0;
};

/// Parse + geometry-validate the shard directory against the header
/// cardinalities and the SHARD_PAYLOAD section length.  Slice *contents*
/// (sub-index structure, target ranges, SVB payload geometry) are validated
/// when a slice is actually decoded.  Throws io_error on any inconsistency.
inline std::vector<shard_entry> parse_shard_directory(std::span<const nw::offset_t> words,
                                                      std::uint64_t n0, std::uint64_t n1,
                                                      std::uint64_t m, std::uint64_t payload_len,
                                                      const std::string& origin) {
  auto fail = [&](const std::string& msg) {
    throw io_error("NWHYCSR2 shard directory: " + msg, origin, 0, header_bytes);
  };
  if (words.empty() || words.size() % shard_record_words != 0) {
    fail("length is not a positive multiple of the 80-byte record size");
  }
  const std::size_t        k = words.size() / shard_record_words;
  std::vector<shard_entry> dir(k);
  std::uint64_t            cursor = 0;  // segments are laid out in record order
  std::uint64_t            total  = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const nw::offset_t* w = words.data() + i * shard_record_words;
    auto&               s = dir[i];
    s.e_begin = w[0]; s.e_end = w[1];
    s.e2n_off = w[2]; s.e2n_len = w[3];
    s.sub_off = w[4]; s.sub_len = w[5];
    s.n2e_off = w[6]; s.n2e_len = w[7];
    s.count   = w[8]; s.flags   = w[9];
    const std::uint64_t want_begin = i == 0 ? 0 : dir[i - 1].e_end;
    if (s.e_begin != want_begin || s.e_end <= s.e_begin || s.e_end > n0) {
      fail("shard " + std::to_string(i) + " range [" + std::to_string(s.e_begin) + ", " +
           std::to_string(s.e_end) + ") does not partition [0, " + std::to_string(n0) + ")");
    }
    if ((s.flags & ~shard_flag_svb) != 0) {
      fail("shard " + std::to_string(i) + " carries unknown flags");
    }
    if (s.count > m - total) {
      fail("shard incidence counts exceed the header's declared total");
    }
    total += s.count;
    if (s.sub_len != (n1 + 1) * sizeof(nw::offset_t)) {
      fail("shard " + std::to_string(i) + " sub-index has " + std::to_string(s.sub_len) +
           " bytes, expected " + std::to_string((n1 + 1) * sizeof(nw::offset_t)));
    }
    if ((s.flags & shard_flag_svb) == 0 &&
        (s.e2n_len != s.count * sizeof(nw::vertex_id_t) ||
         s.n2e_len != s.count * sizeof(nw::vertex_id_t))) {
      fail("shard " + std::to_string(i) + " raw slice lengths disagree with its incidence count");
    }
    const std::uint64_t offs[3] = {s.e2n_off, s.sub_off, s.n2e_off};
    const std::uint64_t lens[3] = {s.e2n_len, s.sub_len, s.n2e_len};
    for (int seg = 0; seg < 3; ++seg) {
      if (offs[seg] % section_alignment != 0 || offs[seg] < cursor || lens[seg] > payload_len ||
          offs[seg] > payload_len - lens[seg]) {
        fail("shard " + std::to_string(i) + " segment " + std::to_string(seg) +
             " is misaligned, overlapping, or out of bounds");
      }
      cursor = offs[seg] + lens[seg];
    }
  }
  if (dir.back().e_end != n0) {
    fail("shard ranges stop at " + std::to_string(dir.back().e_end) + ", expected " +
         std::to_string(n0));
  }
  if (total != m) {
    fail("shard incidence counts sum to " + std::to_string(total) + ", header declares " +
         std::to_string(m));
  }
  return dir;
}

/// Decode one shard target slice — raw little-endian u32s or a full SVB
/// payload — into `out`, which must hold exactly `count` values.  The SVB
/// path runs the compressed_targets constructor, so a truncated or lying
/// slice fails its geometry/control checks rather than overrunning.
inline void decode_shard_slice(std::span<const unsigned char> slice, std::uint64_t file_off,
                               bool svb_slice, std::uint64_t count, nw::vertex_id_t* out,
                               const std::string& origin) {
  if (!svb_slice) {
    std::memcpy(out, slice.data(), static_cast<std::size_t>(count) * sizeof(nw::vertex_id_t));
    return;
  }
  compressed_targets ct(slice, origin, file_off);
  if (ct.num_values() != count) {
    throw io_error("NWHYCSR2 shard slice holds " + std::to_string(ct.num_values()) +
                       " values, directory declares " + std::to_string(count),
                   origin, 0, static_cast<std::size_t>(file_off));
  }
  for (std::uint64_t b = 0; b < ct.num_blocks(); ++b) {
    ct.decode_block(b, out + b * std::uint64_t{ct.block_size()});
  }
}

/// Rebuild the two raw target streams from a sharded snapshot: decode every
/// shard's slices and scatter the N2E pieces back into global row order.
/// Validates the global index sections first (slice geometry is derived
/// from them), every per-shard sub-index, the shard-local target ranges,
/// and finally runs the same full structural pass a raw snapshot gets —
/// so adoption downstream is exactly as safe as kind 2/4 sections.
inline void reassemble_from_shards(const std::vector<shard_entry>& dir,
                                   std::span<const unsigned char> payload,
                                   std::uint64_t payload_file_off,
                                   std::span<const nw::offset_t> e2n_idx,
                                   std::span<const nw::offset_t> n2e_idx, std::uint64_t n0,
                                   std::uint64_t n1, std::uint64_t m,
                                   std::vector<nw::vertex_id_t>& e2n_out,
                                   std::vector<nw::vertex_id_t>& n2e_out,
                                   const std::string& origin) {
  auto fail = [&](const std::string& msg) {
    throw io_error("NWHYCSR2 shard payload: " + msg, origin, 0,
                   static_cast<std::size_t>(payload_file_off));
  };
  if (e2n_idx.size() != n0 + 1 || n2e_idx.size() != n1 + 1) {
    fail("global index sections disagree with the header cardinalities");
  }
  check_index_structure(e2n_idx, m, "E2N", origin);
  check_index_structure(n2e_idx, m, "N2E", origin);
  e2n_out.assign(static_cast<std::size_t>(m), 0);
  n2e_out.assign(static_cast<std::size_t>(m), 0);
  std::vector<nw::offset_t>    cursor(static_cast<std::size_t>(n1), 0);
  std::vector<nw::vertex_id_t> scratch;
  for (std::size_t i = 0; i < dir.size(); ++i) {
    const auto& s   = dir[i];
    const bool  svb = (s.flags & shard_flag_svb) != 0;
    if (s.count != e2n_idx[s.e_end] - e2n_idx[s.e_begin]) {
      fail("shard " + std::to_string(i) + " incidence count disagrees with the E2N index");
    }
    // The E2N slice is the range's rows verbatim: decode straight into place.
    decode_shard_slice(payload.subspan(s.e2n_off, s.e2n_len), payload_file_off + s.e2n_off, svb,
                       s.count, e2n_out.data() + e2n_idx[s.e_begin], origin);
    const auto* sub = reinterpret_cast<const nw::offset_t*>(payload.data() + s.sub_off);
    if (sub[0] != 0 || sub[n1] != s.count) {
      fail("shard " + std::to_string(i) + " sub-index extents disagree with its incidence count");
    }
    for (std::uint64_t v = 0; v < n1; ++v) {
      if (sub[v] > sub[v + 1]) {
        fail("shard " + std::to_string(i) + " sub-index is not monotonically non-decreasing");
      }
    }
    scratch.resize(static_cast<std::size_t>(s.count));
    decode_shard_slice(payload.subspan(s.n2e_off, s.n2e_len), payload_file_off + s.n2e_off, svb,
                       s.count, scratch.data(), origin);
    for (std::uint64_t k = 0; k < s.count; ++k) {
      if (scratch[k] < s.e_begin || scratch[k] >= s.e_end) {
        fail("shard " + std::to_string(i) + " N2E slice holds edge ids outside its range");
      }
    }
    // Scatter each node's slice behind what earlier shards contributed.
    // Per-node totals are forced to the global degrees: every cursor is
    // bounded by its row here, and the shard counts sum to m (directory
    // check), so a shortfall in one row would surface as an overrun in
    // another.
    for (std::uint64_t v = 0; v < n1; ++v) {
      const std::uint64_t len = sub[v + 1] - sub[v];
      if (len == 0) continue;
      if (cursor[v] + len > n2e_idx[v + 1] - n2e_idx[v]) {
        fail("shard " + std::to_string(i) + " sub-index disagrees with the global N2E index");
      }
      std::memcpy(n2e_out.data() + n2e_idx[v] + cursor[v], scratch.data() + sub[v],
                  static_cast<std::size_t>(len) * sizeof(nw::vertex_id_t));
      cursor[v] += len;
    }
  }
  check_csr_structure(e2n_idx, std::span<const nw::vertex_id_t>(e2n_out), n1, "E2N", origin);
  check_csr_structure(n2e_idx, std::span<const nw::vertex_id_t>(n2e_out), n0, "N2E", origin);
}

/// A kind-13 section must be a permutation of [0, n0): anything else would
/// let answer translation read out of bounds or silently alias rows.
inline void validate_relabel_inv(std::span<const nw::vertex_id_t> inv, std::uint64_t n0,
                                 const std::string& origin) {
  std::vector<unsigned char> seen(static_cast<std::size_t>(n0), 0);
  for (auto v : inv) {
    if (v >= n0 || seen[v] != 0) {
      throw io_error("NWHYCSR2 relabel section is not a permutation of the hyperedge ids",
                     origin, 0, header_bytes);
    }
    seen[v] = 1;
  }
}

/// Validate a compressed targets section (plus optional dictionary pair)
/// against its raw index section and assemble the `compressed_adjacency`
/// view.  On return every *structural* property is proven — index
/// monotonicity/extents, payload geometry (via the compressed_targets
/// constructor, including the control-sum pass), dictionary ref bounds and
/// per-row degree agreement; the decoded *values* are bound-checked lazily
/// at decode time.  `payload_offset` labels io_errors with the section's
/// file position.
inline compressed_adjacency make_compressed_view(
    std::span<const nw::offset_t> idx, std::span<const unsigned char> payload,
    std::uint64_t payload_offset, std::span<const nw::vertex_id_t> refs,
    std::span<const nw::offset_t> dict_idx, std::uint64_t n, std::uint64_t m,
    std::uint64_t target_bound, const char* what, const std::string& origin,
    std::shared_ptr<const void> keepalive,
    par::thread_pool& pool = par::thread_pool::default_pool()) {
  // The dictionary pass below reads idx[u+1] up to u = n-1; the caller's
  // require_section pins idx to exactly n+1 offsets.
  NW_ASSERT(idx.size() == n + 1, "compressed index section must hold n+1 offsets");
  check_index_structure(idx, m, what, origin, pool);
  compressed_targets targets(payload, origin, payload_offset);
  NWOBS_COUNT("csr.compressed_bytes", payload.size());
  const bool have_refs = !refs.empty() || !dict_idx.empty();
  if (!have_refs) {
    if (targets.num_values() != m) {
      throw io_error(std::string("NWHYCSR2 ") + what + " compressed targets hold " +
                         std::to_string(targets.num_values()) + " values, header declares " +
                         std::to_string(m),
                     origin, 0, payload_offset);
    }
    return compressed_adjacency(idx, targets, target_bound, origin, std::move(keepalive));
  }
  // Dictionary-backed: refs has one entry per row, dict_idx delimits the
  // unique rows inside the compressed stream.
  if (refs.size() != n) {
    throw io_error(std::string("NWHYCSR2 ") + what + " dictionary refs section has " +
                       std::to_string(refs.size()) + " entries, expected " + std::to_string(n),
                   origin, 0, payload_offset);
  }
  if (dict_idx.size() < 2 || dict_idx.size() - 1 > n) {
    throw io_error(std::string("NWHYCSR2 ") + what + " dictionary index section has an invalid " +
                       "unique-row count",
                   origin, 0, payload_offset);
  }
  check_index_structure(dict_idx, targets.num_values(), "E2N dictionary", origin, pool);
  const std::uint64_t n_unique = dict_idx.size() - 1;
  std::atomic<bool>   bad{false};
  par::parallel_for(
      0, n,
      [&](std::size_t u) {
        const auto r = refs[u];
        if (r >= n_unique || dict_idx[r + 1] - dict_idx[r] != idx[u + 1] - idx[u]) {
          bad.store(true, std::memory_order_relaxed);
        }
      },
      par::blocked{}, pool);
  if (bad.load(std::memory_order_relaxed)) {
    throw io_error(std::string("NWHYCSR2 ") + what +
                       " dictionary refs are out of range or disagree with the row degrees",
                   origin, 0, payload_offset);
  }
  return compressed_adjacency(idx, refs, dict_idx, targets, target_bound, origin,
                              std::move(keepalive));
}

}  // namespace csr_detail

/// A loaded snapshot: the two bi-adjacency CSRs and the keepalive owning
/// the file image the spans point into.  Move
/// `storage` along with the CSRs (NWHypergraph's snapshot constructor
/// does).
struct csr_snapshot {
  std::uint32_t version = csr_snapshot_version;
  std::uint32_t flags   = 0;
  std::uint64_t n0 = 0, n1 = 0, m = 0;

  biadjacency<0> edges;  ///< hyperedge -> hypernodes CSR
  biadjacency<1> nodes;  ///< hypernode -> hyperedges CSR

  /// Populated instead of edges/nodes when a compressed snapshot is loaded
  /// with `snapshot_decode::stream`: block-decoding views over the still-
  /// compressed sections.  Traversal engines run on them directly;
  /// `materialize_views` folds them into owned CSRs when the raw form is
  /// needed (to_biedgelist, save, ...).
  std::optional<compressed_adjacency> edges_view;
  std::optional<compressed_adjacency> nodes_view;

  /// Degree-relabel inverse permutation (kind 13): `relabel_inv[i]` is the
  /// original external id of stored hyperedge row `i`.  Empty when the
  /// snapshot was written in input order.  Validated to be a permutation of
  /// [0, n0) at load; NWHypergraph's snapshot constructor installs it so
  /// every query keeps answering in the caller's original id space.
  std::vector<nw::vertex_id_t> relabel_inv;

  /// Owns the file image (the mmap'd file, or the streamed reader's staged
  /// copy) while some span above points into it: a raw E2N/N2E side or a
  /// stream-mode view.  Null when every structure owns its
  /// vectors (decoded or shard-reassembled sides), which frees the image.
  std::shared_ptr<const void> storage;

  [[nodiscard]] bool canonical() const { return (flags & csr_flag_canonical) != 0; }
  [[nodiscard]] bool streaming() const { return edges_view.has_value() || nodes_view.has_value(); }

  /// Decode any streaming views into owned CSRs (parallel block decode).
  /// After this the snapshot is indistinguishable from a materialize-mode
  /// load.
  void materialize_views(par::thread_pool& pool = par::thread_pool::default_pool()) {
    if (edges_view) {
      edges = biadjacency<0>::from_csr(edges_view->materialize(pool), n0, n1);
      edges_view.reset();
    }
    if (nodes_view) {
      nodes = biadjacency<1>::from_csr(nodes_view->materialize(pool), n1, n0);
      nodes_view.reset();
    }
  }

  /// Expand the E2N CSR back into the canonical incidence list (parallel
  /// over hyperedge rows; output order = row-major CSR order, which for a
  /// CANONICAL snapshot is exactly sort_and_unique order).  On a
  /// stream-mode snapshot `edges` is intentionally empty, so the
  /// compressed E2N view is decoded first (one-shot; the snapshot itself
  /// stays in stream mode).
  [[nodiscard]] biedgelist<> to_biedgelist(
      par::thread_pool& pool = par::thread_pool::default_pool()) const {
    auto expand = [&](std::span<const nw::offset_t>    idx,
                      std::span<const nw::vertex_id_t> tgt) {
      std::vector<nw::vertex_id_t> edge_ids(tgt.size()), node_ids(tgt.size());
      par::parallel_for(
          0, idx.empty() ? 0 : idx.size() - 1,
          [&](std::size_t e) {
            for (nw::offset_t k = idx[e]; k < idx[e + 1]; ++k) {
              edge_ids[k] = static_cast<nw::vertex_id_t>(e);
              node_ids[k] = tgt[k];
            }
          },
          par::blocked{}, pool);
      return biedgelist<>(std::move(edge_ids), std::move(node_ids), n0, n1);
    };
    if (edges_view) {
      auto csr = edges_view->materialize(pool);
      return expand(csr.indices(), csr.targets());
    }
    return expand(edges.csr().indices(), edges.csr().targets());
  }
};

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

/// Sharding parameters (docs/IO_FORMATS.md §4.7).  `shards` pins the shard
/// count exactly (clamped to n0); when 0 the writer cuts a new shard
/// whenever the accumulated raw slice bytes reach `target_bytes` (0 defers
/// to the NWHY_SHARD_TARGET_BYTES environment knob, default 1 MiB).
struct csr_shard_options {
  std::uint32_t shards       = 0;
  std::uint64_t target_bytes = 0;
  bool          compress     = false;  ///< SVB-encode every shard target slice
  std::uint32_t block_size   = 4096;
};

/// Aggregate writer options.  `compress` and `shard` are mutually
/// exclusive ways of storing the target streams: when `shard` is set the
/// target sections move into the shard payload (kinds 11/12) and
/// `shard->compress` governs slice encoding; `compress` then only matters
/// as a programming error guard.  `relabel_inv`, when non-empty, must be a
/// permutation of [0, n0) mapping stored row -> original external id; it is
/// embedded as a kind-13 section.
struct csr_write_options {
  const csr_compress_options*      compress = nullptr;
  const csr_shard_options*         shard    = nullptr;
  std::span<const nw::vertex_id_t> relabel_inv{};
  bool                             canonical = true;
};

namespace csr_detail {

/// Resolve the shard byte budget: explicit option, else environment knob.
inline std::uint64_t shard_target_bytes(const csr_shard_options& opt) {
  if (opt.target_bytes != 0) return opt.target_bytes;
  return nw::util::env_u64_strict("NWHY_SHARD_TARGET_BYTES", std::uint64_t{1} << 20,
                                  std::uint64_t{4} << 10, std::uint64_t{1} << 40);
}

/// Build the shard payload blob + directory for a canonical bi-adjacency
/// pair.  Shard boundaries either balance incidences across an explicit
/// shard count or greedily accumulate rows until the raw slice footprint
/// (8 bytes per incidence: the E2N value and its N2E mirror) reaches the
/// byte budget.  Each shard's N2E slice is derived by transposing its E2N
/// slice, which for sorted rows reproduces exactly the global rows'
/// in-range subsequences.
struct shard_blob {
  std::vector<shard_entry>   dir;
  std::vector<nw::offset_t>  dir_words;  ///< serialized kind-11 payload
  std::vector<unsigned char> payload;    ///< serialized kind-12 payload
};

inline shard_blob build_shard_blob(const biadjacency<0>& edges, const csr_shard_options& opt,
                                   std::uint64_t n1) {
  auto                e2n_idx = edges.csr().indices();
  auto                e2n_tgt = edges.csr().targets();
  const std::uint64_t n0      = edges.num_sources();
  const std::uint64_t m       = e2n_tgt.size();

  std::vector<std::uint64_t> cuts{0};
  if (opt.shards > 0) {
    const std::uint64_t k = std::min<std::uint64_t>(opt.shards, n0);
    for (std::uint64_t i = 1; i < k; ++i) {
      auto          it = std::lower_bound(e2n_idx.begin(), e2n_idx.end(), i * m / k);
      std::uint64_t e  = static_cast<std::uint64_t>(it - e2n_idx.begin());
      cuts.push_back(std::clamp<std::uint64_t>(e, cuts.back() + 1, n0 - (k - i)));
    }
    cuts.push_back(n0);
  } else {
    const std::uint64_t target = shard_target_bytes(opt);
    std::uint64_t       e      = 0;
    while (e < n0) {
      std::uint64_t bytes = 0, end = e;
      while (end < n0 && (end == e || bytes < target)) {
        bytes += (e2n_idx[end + 1] - e2n_idx[end]) * 8;
        ++end;
      }
      cuts.push_back(end);
      e = end;
    }
  }

  shard_blob blob;
  auto       append_aligned = [&](const void* data, std::uint64_t len) {
    const std::uint64_t off = align_up(blob.payload.size(), section_alignment);
    blob.payload.resize(static_cast<std::size_t>(off + len), 0);
    std::memcpy(blob.payload.data() + off, data, static_cast<std::size_t>(len));
    return off;
  };
  std::vector<nw::offset_t>    sub(static_cast<std::size_t>(n1) + 1);
  std::vector<nw::offset_t>    fill(static_cast<std::size_t>(n1));
  std::vector<nw::vertex_id_t> n2e_slice;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t eb = cuts[i], ee = cuts[i + 1];
    shard_entry         s;
    s.e_begin = eb;
    s.e_end   = ee;
    s.count   = e2n_idx[ee] - e2n_idx[eb];
    s.flags   = opt.compress ? shard_flag_svb : 0;
    auto slice = e2n_tgt.subspan(static_cast<std::size_t>(e2n_idx[eb]),
                                 static_cast<std::size_t>(s.count));
    // Transpose the slice: counting pass, prefix sum, stable scatter of the
    // edge ids — per-node output is e-ascending, matching canonical rows.
    std::fill(sub.begin(), sub.end(), 0);
    for (auto v : slice) ++sub[static_cast<std::size_t>(v) + 1];
    for (std::uint64_t v = 0; v < n1; ++v) sub[v + 1] += sub[v];
    std::copy(sub.begin(), sub.end() - 1, fill.begin());
    n2e_slice.resize(static_cast<std::size_t>(s.count));
    for (std::uint64_t e = eb; e < ee; ++e) {
      for (nw::offset_t k = e2n_idx[e]; k < e2n_idx[e + 1]; ++k) {
        n2e_slice[fill[e2n_tgt[k]]++] = static_cast<nw::vertex_id_t>(e);
      }
    }
    if (opt.compress) {
      auto enc  = svb::encode(slice, opt.block_size);
      s.e2n_off = append_aligned(enc.data(), enc.size());
      s.e2n_len = enc.size();
    } else {
      s.e2n_off = append_aligned(slice.data(), s.count * sizeof(nw::vertex_id_t));
      s.e2n_len = s.count * sizeof(nw::vertex_id_t);
    }
    s.sub_off = append_aligned(sub.data(), (n1 + 1) * sizeof(nw::offset_t));
    s.sub_len = (n1 + 1) * sizeof(nw::offset_t);
    if (opt.compress) {
      auto enc  = svb::encode(std::span<const nw::vertex_id_t>(n2e_slice), opt.block_size);
      s.n2e_off = append_aligned(enc.data(), enc.size());
      s.n2e_len = enc.size();
    } else {
      s.n2e_off = append_aligned(n2e_slice.data(), s.count * sizeof(nw::vertex_id_t));
      s.n2e_len = s.count * sizeof(nw::vertex_id_t);
    }
    blob.dir.push_back(s);
  }
  blob.dir_words.reserve(blob.dir.size() * shard_record_words);
  for (const auto& s : blob.dir) {
    const std::uint64_t w[shard_record_words] = {s.e_begin, s.e_end,   s.e2n_off, s.e2n_len,
                                                 s.sub_off, s.sub_len, s.n2e_off, s.n2e_len,
                                                 s.count,   s.flags};
    blob.dir_words.insert(blob.dir_words.end(), w, w + shard_record_words);
  }
  NWOBS_COUNT("io.shard_count", blob.dir.size());
  return blob;
}

}  // namespace csr_detail

/// Serialize built CSRs as an NWHYCSR2 snapshot.  `wopt.canonical` asserts
/// the CSRs came from a sort_and_unique'd edge list (what NWHypergraph
/// guarantees); loaders only adopt the structures wholesale when it is set.
/// Every stream write is checked: a failure (ENOSPC, closed pipe, ...)
/// throws io_error immediately instead of silently emitting a truncated
/// snapshot.  `origin` labels the error.
inline void write_csr_snapshot_impl(std::ostream& out, const biadjacency<0>& edges,
                                    const biadjacency<1>& nodes, const std::string& origin,
                                    const csr_write_options& wopt) {
  namespace d = csr_detail;
  NWOBS_SCOPE_TIMER("io.snapshot_write");
  NW_ASSERT(edges.num_edges() == nodes.num_edges(),
            "bi-adjacency pair disagrees on the incidence count");
  NW_ASSERT(edges.num_sources() == nodes.num_targets() &&
                edges.num_targets() == nodes.num_sources(),
            "bi-adjacency pair disagrees on the partition cardinalities");
  const bool                  canonical = wopt.canonical;
  const csr_compress_options* opt       = wopt.compress;
  const std::uint64_t         n0        = edges.num_sources();
  const std::uint64_t         n1        = nodes.num_sources();
  const std::uint64_t         m         = edges.num_edges();
  const bool sharding = wopt.shard != nullptr && n0 > 0;
  NW_ASSERT(!sharding || canonical,
            "sharded snapshots require canonical CSRs (sorted neighbor rows)");
  if (!wopt.relabel_inv.empty()) {
    NW_ASSERT(wopt.relabel_inv.size() == n0,
              "relabel_inv must map every stored hyperedge row");
  }

  struct raw_section {
    std::uint32_t kind;
    std::uint32_t elem_size;
    const void*   data;
    std::uint64_t length;
  };
  std::vector<raw_section> raws;
  // Owned buffers for encoded payloads + dictionary vectors; inner buffers
  // are pointer-stable across pushes, so raws may reference them directly.
  std::vector<std::vector<unsigned char>> encoded;
  std::optional<row_dictionary>           dict;
  d::shard_blob                           blob;

  auto add_indices = [&](const nw::graph::adjacency<>& csr, std::uint32_t idx_kind) {
    auto idx = csr.indices();
    raws.push_back({idx_kind, 8, idx.data(), idx.size() * sizeof(nw::offset_t)});
  };
  auto add_targets_raw = [&](const nw::graph::adjacency<>& csr, std::uint32_t tgt_kind) {
    auto tgt = csr.targets();
    raws.push_back({tgt_kind, 4, tgt.data(), tgt.size() * sizeof(nw::vertex_id_t)});
  };
  auto add_svb = [&](std::span<const nw::vertex_id_t> values, std::uint32_t svb_kind) {
    encoded.push_back(svb::encode(values, opt->block_size));
    raws.push_back({svb_kind, 1, encoded.back().data(), encoded.back().size()});
  };

  const bool compress = !sharding && opt != nullptr && opt->compress_targets;
  if (sharding) {
    // Target streams live inside the shard payload; only the global index
    // sections stay in their own (resident) sections.
    blob = d::build_shard_blob(edges, *wopt.shard, n1);
    add_indices(edges.csr(), csr_sec_e2n_indices);
    add_indices(nodes.csr(), csr_sec_n2e_indices);
    raws.push_back({csr_sec_shard_dir, 8, blob.dir_words.data(),
                    blob.dir_words.size() * sizeof(nw::offset_t)});
    raws.push_back({csr_sec_shard_payload, 1, blob.payload.data(), blob.payload.size()});
  } else {
    add_indices(edges.csr(), csr_sec_e2n_indices);
    if (!compress) {
      add_targets_raw(edges.csr(), csr_sec_e2n_targets);
    } else {
      if (opt->dedup_rows) {
        dict = build_row_dictionary(edges.csr().indices(), edges.csr().targets());
      }
      if (dict) {
        add_svb(dict->stored, csr_sec_e2n_targets_svb);
        raws.push_back({csr_sec_e2n_dict_refs, 4, dict->refs.data(),
                        dict->refs.size() * sizeof(nw::vertex_id_t)});
        raws.push_back({csr_sec_e2n_dict_indices, 8, dict->dict_indices.data(),
                        dict->dict_indices.size() * sizeof(nw::offset_t)});
      } else {
        add_svb(edges.csr().targets(), csr_sec_e2n_targets_svb);
      }
    }
    add_indices(nodes.csr(), csr_sec_n2e_indices);
    if (!compress) {
      add_targets_raw(nodes.csr(), csr_sec_n2e_targets);
    } else {
      add_svb(nodes.csr().targets(), csr_sec_n2e_targets_svb);
    }
  }
  const std::uint32_t flags = canonical ? csr_flag_canonical : 0;
  if (!wopt.relabel_inv.empty()) {
    raws.push_back({csr_sec_relabel_inv, 4, wopt.relabel_inv.data(),
                    wopt.relabel_inv.size() * sizeof(nw::vertex_id_t)});
  }

  // Lay out payloads at 64-byte-aligned offsets past header + table.
  const std::uint32_t count     = static_cast<std::uint32_t>(raws.size());
  const std::uint64_t table_end = d::header_bytes + std::uint64_t{count} * d::table_entry_bytes;
  std::vector<d::section_entry> entries(count);
  std::uint64_t                 off = d::align_up(table_end, d::section_alignment);
  for (std::uint32_t i = 0; i < count; ++i) {
    entries[i].kind      = raws[i].kind;
    entries[i].elem_size = raws[i].elem_size;
    entries[i].offset    = off;
    entries[i].length    = raws[i].length;
    entries[i].checksum  = d::fnv1a64(raws[i].data, raws[i].length);
    off                  = d::align_up(off + raws[i].length, d::section_alignment);
  }
  const std::uint64_t file_size =
      count == 0 ? table_end : entries[count - 1].offset + entries[count - 1].length;

  // Serialize header + table, checksum them together, and emit.
  std::vector<unsigned char> prefix(table_end, 0);
  std::memcpy(prefix.data(), csr_snapshot_magic, sizeof(csr_snapshot_magic));
  d::put_u32(prefix.data() + 8, csr_snapshot_version);
  d::put_u32(prefix.data() + 12, flags);
  d::put_u64(prefix.data() + 16, n0);
  d::put_u64(prefix.data() + 24, n1);
  d::put_u64(prefix.data() + 32, m);
  d::put_u32(prefix.data() + 40, count);
  d::put_u32(prefix.data() + 44, 0);  // reserved
  d::put_u64(prefix.data() + 48, file_size);
  for (std::uint32_t i = 0; i < count; ++i) {
    unsigned char* e = prefix.data() + d::header_bytes + std::size_t{i} * d::table_entry_bytes;
    d::put_u32(e + 0, entries[i].kind);
    d::put_u32(e + 4, entries[i].elem_size);
    d::put_u64(e + 8, entries[i].offset);
    d::put_u64(e + 16, entries[i].length);
    d::put_u64(e + 24, entries[i].checksum);
  }
  std::uint64_t hsum = d::fnv1a64(prefix.data(), d::checksummed_header);
  hsum = d::fnv1a64(prefix.data() + d::header_bytes, table_end - d::header_bytes, hsum);
  d::put_u64(prefix.data() + 56, hsum);

  auto checked_write = [&](const char* data, std::streamsize n) {
    out.write(data, n);
    if (!out.good()) {
      throw io_error("write failure while emitting NWHYCSR2 snapshot", origin);
    }
  };
  checked_write(reinterpret_cast<const char*>(prefix.data()),
                static_cast<std::streamsize>(prefix.size()));
  std::uint64_t                    pos = table_end;
  static constexpr char            zeros[d::section_alignment] = {};
  for (std::uint32_t i = 0; i < count; ++i) {
    NW_ASSERT(entries[i].offset >= pos, "snapshot sections must be laid out in order");
    std::uint64_t pad = entries[i].offset - pos;
    while (pad > 0) {
      std::uint64_t chunk = std::min<std::uint64_t>(pad, sizeof(zeros));
      checked_write(zeros, static_cast<std::streamsize>(chunk));
      pad -= chunk;
    }
    checked_write(static_cast<const char*>(raws[i].data),
                  static_cast<std::streamsize>(raws[i].length));
    pos = entries[i].offset + entries[i].length;
  }
  NWOBS_COUNT("io.snapshot_bytes_written", file_size);
}

/// Full-options ostream overload (defaults: a raw canonical snapshot).
inline void write_csr_snapshot(std::ostream& out, const biadjacency<0>& edges,
                               const biadjacency<1>& nodes, const csr_write_options& wopt = {},
                               const std::string& origin = {}) {
  write_csr_snapshot_impl(out, edges, nodes, origin, wopt);
}

/// Compressing overload: emit the bi-adjacency target sections in the
/// StreamVByte block format (and, when duplicate hyperedges exist and
/// `opt.dedup_rows` is set, the E2N duplicate-row dictionary).
inline void write_csr_snapshot(std::ostream& out, const biadjacency<0>& edges,
                               const biadjacency<1>& nodes, const csr_compress_options& opt,
                               const std::string& origin = {}) {
  csr_write_options wopt;
  wopt.compress = &opt;
  write_csr_snapshot_impl(out, edges, nodes, origin, wopt);
}

/// Full-options path overload: on any write or flush failure, the partial
/// output file is removed (regular files only) and io_error propagates, so
/// a failed `nwhy_tool convert` never leaves a truncated .nwcsr on disk.
inline void write_csr_snapshot(const std::string& path, const biadjacency<0>& edges,
                               const biadjacency<1>& nodes, const csr_write_options& wopt = {}) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) throw io_error("cannot open snapshot output file", path);
  try {
    write_csr_snapshot_impl(out, edges, nodes, path, wopt);
    out.flush();
    if (!out.good()) throw io_error("flush failure while emitting NWHYCSR2 snapshot", path);
  } catch (...) {
    out.close();
    io_detail::remove_partial_output(path);
    throw;
  }
}

/// Compressing path overload (see the ostream overload above).
inline void write_csr_snapshot(const std::string& path, const biadjacency<0>& edges,
                               const biadjacency<1>& nodes, const csr_compress_options& opt) {
  csr_write_options wopt;
  wopt.compress = &opt;
  write_csr_snapshot(path, edges, nodes, wopt);
}

// --------------------------------------------------------------------------
// Readers
// --------------------------------------------------------------------------

namespace csr_detail {

/// Hash every listed section's payload — unknown kinds and sections the
/// loader will not adopt included — so a verified load audits the whole
/// file, not just what it keeps.
inline void verify_section_checksums(const parsed_header& h, const unsigned char* base,
                                     const std::string& origin) {
  NWOBS_SCOPE_TIMER("io.checksum");
  for (const auto& s : h.sections) {
    if (fnv1a64(base + s.offset, s.length) != s.checksum) {
      throw io_error("NWHYCSR2 section checksum mismatch (kind " + std::to_string(s.kind) + ")",
                     origin, 0, s.offset);
    }
  }
}

/// Assemble a csr_snapshot from a validated header plus a base pointer to
/// the full file image (mmap'd, or staged by the streamed reader) — the one
/// NWHYCSR2 parser.  Raw sections are adopted as spans into the image;
/// compressed target sections are either decoded now (`materialize`) or
/// wrapped in block-decoding views (`stream`); shard slices are reassembled
/// into owned vectors.  `storage` owns the image and is kept in
/// `snap.storage` only while some adopted span still points into it, so a
/// fully decoded or reassembled load frees the image on return.
inline csr_snapshot snapshot_from_image(const parsed_header& h, const unsigned char* base,
                                        bool verify_checksums, const std::string& origin,
                                        std::shared_ptr<const void> storage,
                                        snapshot_decode mode = snapshot_decode::materialize) {
  if (verify_checksums) verify_section_checksums(h, base, origin);
  bool uses_image = false;  // does any adopted span point into the image?
  auto section_span = [&](const section_entry& s, auto tag) {
    using elem_t = decltype(tag);
    return std::span<const elem_t>(reinterpret_cast<const elem_t*>(base + s.offset),
                                   s.length / sizeof(elem_t));
  };
  auto load_csr = [&](std::uint32_t idx_kind, std::uint32_t tgt_kind, std::uint64_t n,
                      std::uint64_t target_bound, const char* what) {
    const auto& si = require_section(h, idx_kind, (n + 1) * sizeof(nw::offset_t), origin);
    const auto* st = h.find(tgt_kind);
    if (st == nullptr) {
      throw io_error("NWHYCSR2 snapshot is missing required section kind " +
                         std::to_string(tgt_kind),
                     origin, 0, header_bytes);
    }
    if (st->length != h.m * sizeof(nw::vertex_id_t)) {
      throw io_error("NWHYCSR2 section kind " + std::to_string(tgt_kind) + " has " +
                         std::to_string(st->length) + " bytes, expected " +
                         std::to_string(h.m * sizeof(nw::vertex_id_t)),
                     origin, 0, header_bytes);
    }
    auto idx = section_span(si, nw::offset_t{});
    auto tgt = section_span(*st, nw::vertex_id_t{});
    check_csr_structure(idx, tgt, target_bound, what, origin);
    uses_image = true;
    return nw::graph::adjacency<>::from_csr_spans(idx, tgt, n);
  };
  // Assemble a block-decoding view over a compressed targets section (plus
  // the E2N dictionary pair when present).
  auto load_compressed = [&](std::uint32_t idx_kind, std::uint32_t svb_kind, bool allow_dict,
                             std::uint64_t n, std::uint64_t target_bound, const char* what) {
    const auto& si = require_section(h, idx_kind, (n + 1) * sizeof(nw::offset_t), origin);
    const auto* sc = h.find(svb_kind);
    NW_ASSERT(sc != nullptr, "load_compressed called without the compressed section");
    auto idx     = section_span(si, nw::offset_t{});
    auto payload = section_span(*sc, (unsigned char){});
    std::span<const nw::vertex_id_t> refs;
    std::span<const nw::offset_t>    dict_idx;
    const auto* sr = h.find(csr_sec_e2n_dict_refs);
    const auto* sd = h.find(csr_sec_e2n_dict_indices);
    if (allow_dict && (sr != nullptr || sd != nullptr)) {
      if (sr == nullptr || sd == nullptr) {
        throw io_error(
            "NWHYCSR2 dictionary sections must come as a refs + indices pair (one is missing)",
            origin, 0, header_bytes);
      }
      refs = section_span(
          require_section(h, csr_sec_e2n_dict_refs, n * sizeof(nw::vertex_id_t), origin),
          nw::vertex_id_t{});
      dict_idx = section_span(*sd, nw::offset_t{});
    }
    return make_compressed_view(idx, payload, sc->offset, refs, dict_idx, n, h.m, target_bound,
                                what, origin, storage);
  };

  csr_snapshot snap;
  snap.version = h.version;
  snap.flags   = h.flags;
  snap.n0      = h.n0;
  snap.n1      = h.n1;
  snap.m       = h.m;
  const auto* sdir = h.find(csr_sec_shard_dir);
  const auto* spay = h.find(csr_sec_shard_payload);
  if ((sdir == nullptr) != (spay == nullptr)) {
    throw io_error(
        "NWHYCSR2 shard sections must come as a directory + payload pair (one is missing)",
        origin, 0, header_bytes);
  }
  const bool e2n_svb = h.find(csr_sec_e2n_targets_svb) != nullptr;
  const bool n2e_svb = h.find(csr_sec_n2e_targets_svb) != nullptr;
  // Per-side resolution order: raw targets win over compressed, both win
  // over shard slices (mirrors the raw-over-compressed precedent); a side
  // with no copy at all still fails with "missing required section kind".
  const bool e2n_raw = h.find(csr_sec_e2n_targets) != nullptr || (!e2n_svb && sdir == nullptr);
  const bool n2e_raw = h.find(csr_sec_n2e_targets) != nullptr || (!n2e_svb && sdir == nullptr);
  if (e2n_raw &&
      (h.find(csr_sec_e2n_dict_refs) != nullptr || h.find(csr_sec_e2n_dict_indices) != nullptr)) {
    throw io_error("NWHYCSR2 dictionary sections are only valid with compressed E2N targets",
                   origin, 0, header_bytes);
  }
  std::vector<nw::vertex_id_t> shard_e2n, shard_n2e;
  if (sdir != nullptr && ((!e2n_raw && !e2n_svb) || (!n2e_raw && !n2e_svb))) {
    auto dwords = section_span(*sdir, nw::offset_t{});
    auto ppay   = section_span(*spay, (unsigned char){});
    auto dir    = parse_shard_directory(dwords, h.n0, h.n1, h.m, spay->length, origin);
    const auto& si0 =
        require_section(h, csr_sec_e2n_indices, (h.n0 + 1) * sizeof(nw::offset_t), origin);
    const auto& si1 =
        require_section(h, csr_sec_n2e_indices, (h.n1 + 1) * sizeof(nw::offset_t), origin);
    reassemble_from_shards(dir, ppay, spay->offset, section_span(si0, nw::offset_t{}),
                           section_span(si1, nw::offset_t{}), h.n0, h.n1, h.m, shard_e2n,
                           shard_n2e, origin);
  }
  auto adopt_shard_side = [&](std::uint32_t idx_kind, std::vector<nw::vertex_id_t>&& tgt,
                              std::uint64_t n) {
    const auto& si = require_section(h, idx_kind, (n + 1) * sizeof(nw::offset_t), origin);
    auto        sp = section_span(si, nw::offset_t{});
    std::vector<nw::offset_t> idx(sp.begin(), sp.end());
    return nw::graph::adjacency<>::from_csr_vectors(std::move(idx), std::move(tgt), n);
  };
  if (e2n_raw) {
    snap.edges = biadjacency<0>::from_csr(
        load_csr(csr_sec_e2n_indices, csr_sec_e2n_targets, h.n0, h.n1, "E2N"), h.n0,
        h.n1);
  } else if (e2n_svb) {
    auto view =
        load_compressed(csr_sec_e2n_indices, csr_sec_e2n_targets_svb, true, h.n0, h.n1, "E2N");
    if (mode == snapshot_decode::materialize) {
      snap.edges = biadjacency<0>::from_csr(view.materialize(), h.n0, h.n1);
    } else {
      snap.edges_view = std::move(view);
      uses_image      = true;
    }
  } else {
    snap.edges = biadjacency<0>::from_csr(
        adopt_shard_side(csr_sec_e2n_indices, std::move(shard_e2n), h.n0), h.n0, h.n1);
  }
  if (n2e_raw) {
    snap.nodes = biadjacency<1>::from_csr(
        load_csr(csr_sec_n2e_indices, csr_sec_n2e_targets, h.n1, h.n0, "N2E"), h.n1,
        h.n0);
  } else if (n2e_svb) {
    auto view =
        load_compressed(csr_sec_n2e_indices, csr_sec_n2e_targets_svb, false, h.n1, h.n0, "N2E");
    if (mode == snapshot_decode::materialize) {
      snap.nodes = biadjacency<1>::from_csr(view.materialize(), h.n1, h.n0);
    } else {
      snap.nodes_view = std::move(view);
      uses_image      = true;
    }
  } else {
    snap.nodes = biadjacency<1>::from_csr(
        adopt_shard_side(csr_sec_n2e_indices, std::move(shard_n2e), h.n1), h.n1, h.n0);
  }
  if (h.find(csr_sec_relabel_inv) != nullptr) {
    const auto& sre =
        require_section(h, csr_sec_relabel_inv, h.n0 * sizeof(nw::vertex_id_t), origin);
    auto inv = section_span(sre, nw::vertex_id_t{});
    validate_relabel_inv(inv, h.n0, origin);
    snap.relabel_inv.assign(inv.begin(), inv.end());
  }
  if (uses_image) snap.storage = std::move(storage);
  return snap;
}

}  // namespace csr_detail

#if NWHY_HAS_MMAP
/// Zero-copy loader: mmap the file read-only and point the CSR spans
/// straight at the mapping.  Load cost is header/table validation plus one
/// streaming structural pass over the CSR sections (monotonic offsets,
/// in-range targets — see check_csr_structure); no bytes are copied or
/// hashed.  `verify_checksums` opts into additionally hashing every listed
/// section (use for integrity audits, not hot loads).  When any returned
/// span points into the mapping, the snapshot's `storage` member owns it;
/// keep it alive as long as any span is in use.
inline csr_snapshot map_csr_snapshot(const std::string& path, bool verify_checksums = false,
                                     snapshot_decode mode = snapshot_decode::materialize) {
  namespace d = csr_detail;
  NWOBS_SCOPE_TIMER("io.mmap");
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw io_error("cannot open snapshot", path);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw io_error("cannot stat snapshot", path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw io_error("truncated NWHYCSR2 snapshot (empty file)", path, 0, 0);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) throw io_error("mmap failed on snapshot", path);
  std::shared_ptr<const void> storage(base, [size](const void* p) {
    ::munmap(const_cast<void*>(p), size);
  });
  NWOBS_COUNT("io.mapped_bytes", size);

  const auto* bytes = static_cast<const unsigned char*>(base);
  auto        h     = d::parse_header(bytes, size, path);
  return d::snapshot_from_image(h, bytes, verify_checksums, path, std::move(storage), mode);
}
#endif  // NWHY_HAS_MMAP

/// Streamed reader (pipes, sockets, non-mmap platforms): stages the whole
/// snapshot into one owned, 8-byte-aligned image and hands it to the same
/// parse_header + snapshot_from_image code as the mmap loader, always
/// verifying every section checksum — a stream has no later chance to
/// re-read its bytes.
///
/// The header's `file_size` is a claim, so staging is bounded by what the
/// stream really holds.  On a seekable stream a claim longer than the
/// remaining bytes is rejected as truncation before anything is allocated;
/// otherwise the image is allocated once.  A non-seekable stream grows the
/// image as bytes arrive, reading 4 MiB at a time, so a lying `file_size`
/// dies on honest truncation after at most one chunk past the real end.
/// An allocation failure surfaces as io_error, never std::bad_alloc.
inline csr_snapshot read_csr_snapshot(std::istream& in, const std::string& origin = {},
                                      snapshot_decode mode = snapshot_decode::materialize) {
  namespace d = csr_detail;
  NWOBS_SCOPE_TIMER("io.snapshot_read");
  // Header + table (at most 64 + 16 x 32 bytes): parse_header judges
  // whatever the stream delivered, so a short or foreign stream gets the
  // same error as a short or foreign file.
  std::vector<unsigned char> head(d::header_bytes + d::max_section_count * d::table_entry_bytes);
  auto read_head = [&](std::size_t from, std::size_t n) {
    in.read(reinterpret_cast<char*>(head.data() + from), static_cast<std::streamsize>(n));
    return from + static_cast<std::size_t>(in.gcount());
  };
  std::size_t         got_head  = read_head(0, d::header_bytes);
  const std::size_t   count     = std::min<std::size_t>(d::get_u32(head.data() + 40),
                                                        d::max_section_count);
  const std::uint64_t table_end = d::header_bytes + count * d::table_entry_bytes;
  if (got_head == d::header_bytes) got_head = read_head(got_head, table_end - d::header_bytes);
  const auto h = d::parse_header(
      head.data(), got_head < table_end ? got_head : d::get_u64(head.data() + 48), origin);
  const std::uint64_t file_size = h.file_size;

  // The image lives in malloc'd memory: its alignment (at least 16 bytes)
  // covers the u64 index sections, and realloc grows a pipe's image in
  // place where it can.  Allocation failure returns null, reported as
  // io_error.
  struct free_deleter {
    void operator()(void* p) const { std::free(p); }
  };
  std::unique_ptr<unsigned char, free_deleter> image;
  auto reserve = [&](std::uint64_t bytes) {
    auto* p =
        static_cast<unsigned char*>(std::realloc(image.get(), static_cast<std::size_t>(bytes)));
    if (p == nullptr) {
      throw io_error("NWHYCSR2 snapshot declares " + std::to_string(file_size) +
                         " bytes, too large to stage in memory",
                     origin, 0, 48);
    }
    (void)image.release();  // realloc already freed or reused it
    image.reset(p);
  };
  constexpr std::uint64_t chunk = std::uint64_t{4} << 20;
  std::uint64_t           cap   = std::min(file_size, chunk);  // grown as a pipe delivers
  if (const auto here = in.tellg(); here != std::istream::pos_type(-1)) {
    const auto end = in.seekg(0, std::ios::end).tellg();
    if (!in.seekg(here) || end == std::istream::pos_type(-1)) {
      throw io_error("cannot seek in snapshot stream", origin, 0, table_end);
    }
    const std::uint64_t have = table_end + static_cast<std::uint64_t>(end - here);
    if (file_size > have) {
      throw io_error("truncated NWHYCSR2 snapshot (header declares " +
                         std::to_string(file_size) + " bytes, stream has " +
                         std::to_string(have) + ")",
                     origin, 0, 48);
    }
    cap = file_size;
  }
  reserve(cap);
  std::memcpy(image.get(), head.data(), static_cast<std::size_t>(table_end));
  for (std::uint64_t got = table_end; got < file_size;) {
    if (got == cap) {  // non-seekable: grow geometrically, never past the claim
      cap = std::min(file_size, std::max(cap + chunk, 2 * cap));
      reserve(cap);
    }
    const std::uint64_t n = std::min(chunk, cap - got);
    in.read(reinterpret_cast<char*>(image.get() + got), static_cast<std::streamsize>(n));
    if (!in.good()) {
      throw io_error("truncated NWHYCSR2 snapshot (stream ended after " +
                         std::to_string(got + static_cast<std::uint64_t>(in.gcount())) + " of " +
                         std::to_string(file_size) + " declared bytes)",
                     origin, 0, static_cast<std::size_t>(got));
    }
    got += n;
  }
  NWOBS_COUNT("io.snapshot_bytes_read", file_size);
  const unsigned char* base = image.get();
  return d::snapshot_from_image(h, base, /*verify_checksums=*/true, origin,
                                std::shared_ptr<const void>(std::move(image)), mode);
}

/// Path-based load: mmap zero-copy where the platform supports it,
/// streamed otherwise.
inline csr_snapshot load_csr_snapshot(const std::string& path, bool verify_checksums = false,
                                      snapshot_decode mode = snapshot_decode::materialize) {
#if NWHY_HAS_MMAP
  return map_csr_snapshot(path, verify_checksums, mode);
#else
  (void)verify_checksums;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw io_error("cannot open snapshot", path);
  return read_csr_snapshot(in, path, mode);
#endif
}

}  // namespace nw::hypergraph
