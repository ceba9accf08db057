// nwhy/io/shard.hpp
//
// Out-of-core access to sharded NWHYCSR2 snapshots (ROADMAP item 2).
// `sharded_snapshot` opens a snapshot whose target streams live in
// hyperedge-range shards (section kinds 11/12, docs/IO_FORMATS.md §4.7) and
// serves ONE shard at a time: the whole file is mapped (virtual address
// space only — nothing is faulted until touched), the directory and the two
// global index sections stay resident, and `load_shard` materializes just
// that shard's three segments.  On the mmap path a loaded shard's payload
// window gets `madvise(MADV_SEQUENTIAL)` and `release_shard` returns the
// pages with `MADV_DONTNEED`, so peak RSS tracks the largest shard plus the
// resident indices instead of the dataset — the property bench_io's >RAM
// gate measures.  The non-mmap fallback seeks and reads each window through
// the file stream into owned buffers, which bounds memory the same way.
//
// Validation split: directory geometry is proven at open
// (`parse_shard_directory`); slice contents (SVB payload geometry,
// sub-index structure, target ranges) are proven per shard at load time —
// a crafted shard throws io_error from `load_shard`, never UB, and never
// costs a full-file scan at open.
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"

namespace nw::hypergraph {

/// One mapped/loaded shard: hyperedge rows [e_begin, e_end) of the E2N CSR
/// plus the shard-local transpose.  Spans stay valid until the shard is
/// released, another shard is loaded, or the owning snapshot is destroyed.
struct shard_view {
  nw::vertex_id_t e_begin = 0;
  nw::vertex_id_t e_end   = 0;
  /// Global E2N index rows [e_begin, e_end] (e_end - e_begin + 1 entries);
  /// subtract `base` (= index[0]) to address `e2n_targets`.
  std::span<const nw::offset_t>    e2n_index;
  std::span<const nw::vertex_id_t> e2n_targets;
  /// Per-shard N2E sub-index: (n1 + 1) offsets delimiting, per hypernode,
  /// its incident edges *within the range* in `n2e_targets`.
  std::span<const nw::offset_t>    sub_index;
  std::span<const nw::vertex_id_t> n2e_targets;

  /// Members of hyperedge `e` (global id, must be in [e_begin, e_end)).
  [[nodiscard]] std::span<const nw::vertex_id_t> edge_row(nw::vertex_id_t e) const {
    const nw::offset_t base = e2n_index[0];
    const std::size_t  i    = e - e_begin;
    return e2n_targets.subspan(static_cast<std::size_t>(e2n_index[i] - base),
                               static_cast<std::size_t>(e2n_index[i + 1] - e2n_index[i]));
  }
  /// Hypernode `v`'s incident edges that fall inside this shard's range.
  [[nodiscard]] std::span<const nw::vertex_id_t> node_row(nw::vertex_id_t v) const {
    return n2e_targets.subspan(static_cast<std::size_t>(sub_index[v]),
                               static_cast<std::size_t>(sub_index[v + 1] - sub_index[v]));
  }
};

/// Shard-granular snapshot reader.  Open cost: header + table + directory
/// validation and one structural pass over the two resident index sections;
/// per-shard cost is paid by load_shard.
class sharded_snapshot {
public:
  explicit sharded_snapshot(const std::string& path) : origin_(path) {
    namespace d = csr_detail;
    NWOBS_SCOPE_TIMER("io.shard_open");
    open_storage(path);
    const auto* base = image();
    auto        h    = d::parse_header(base, file_size_, path);
    n0_ = h.n0;
    n1_ = h.n1;
    m_  = h.m;
    const auto* sdir = h.find(csr_sec_shard_dir);
    const auto* spay = h.find(csr_sec_shard_payload);
    if (sdir == nullptr || spay == nullptr) {
      throw io_error("NWHYCSR2 snapshot has no shard directory (write it with --shards)", path,
                     0, d::header_bytes);
    }
    auto dwords = load_section(*sdir, dir_store_);
    dir_ = d::parse_shard_directory(span_cast<nw::offset_t>(dwords), n0_, n1_, m_, spay->length,
                                    path);
    payload_offset_ = spay->offset;
    payload_length_ = spay->length;
    const auto& si0 = d::require_section(h, csr_sec_e2n_indices,
                                         (n0_ + 1) * sizeof(nw::offset_t), path);
    const auto& si1 = d::require_section(h, csr_sec_n2e_indices,
                                         (n1_ + 1) * sizeof(nw::offset_t), path);
    e2n_idx_ = span_cast<nw::offset_t>(load_section(si0, e2n_idx_store_));
    n2e_idx_ = span_cast<nw::offset_t>(load_section(si1, n2e_idx_store_));
    d::check_index_structure(e2n_idx_, m_, "E2N", path);
    d::check_index_structure(n2e_idx_, m_, "N2E", path);
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (dir_[i].count != e2n_idx_[dir_[i].e_end] - e2n_idx_[dir_[i].e_begin]) {
        throw io_error("NWHYCSR2 shard directory: shard " + std::to_string(i) +
                           " incidence count disagrees with the E2N index",
                       path, 0, d::header_bytes);
      }
    }
    if (h.find(csr_sec_relabel_inv) != nullptr) {
      auto inv = span_cast<nw::vertex_id_t>(load_section(
          d::require_section(h, csr_sec_relabel_inv, n0_ * sizeof(nw::vertex_id_t), path),
          relabel_store_));
      d::validate_relabel_inv(inv, n0_, path);
      relabel_inv_ = inv;
    }
    madvise_enabled_ = nw::util::env_u64_strict("NWHY_MADVISE", 1, 0, 1) != 0;
  }

  sharded_snapshot(const sharded_snapshot&)            = delete;
  sharded_snapshot& operator=(const sharded_snapshot&) = delete;

  [[nodiscard]] std::uint64_t num_hyperedges() const { return n0_; }
  [[nodiscard]] std::uint64_t num_hypernodes() const { return n1_; }
  [[nodiscard]] std::uint64_t num_incidences() const { return m_; }
  [[nodiscard]] std::size_t   num_shards() const { return dir_.size(); }
  [[nodiscard]] const csr_detail::shard_entry& shard(std::size_t k) const { return dir_[k]; }
  [[nodiscard]] std::span<const nw::offset_t>  e2n_index() const { return e2n_idx_; }
  [[nodiscard]] std::span<const nw::offset_t>  n2e_index() const { return n2e_idx_; }
  /// kind-13 inverse permutation when the file was written relabeled
  /// (empty otherwise); callers translate traversal answers through it.
  [[nodiscard]] std::span<const nw::vertex_id_t> relabel_inv() const { return relabel_inv_; }

  /// Shard index owning hyperedge `e` (precondition: e < num_hyperedges()).
  [[nodiscard]] std::size_t shard_of(nw::vertex_id_t e) const {
    auto it = std::upper_bound(dir_.begin(), dir_.end(), std::uint64_t{e},
                               [](std::uint64_t v, const csr_detail::shard_entry& s) {
                                 return v < s.e_end;
                               });
    return static_cast<std::size_t>(it - dir_.begin());
  }

  /// Materialize shard `k`, releasing any previously loaded shard first.
  /// Content validation (SVB geometry, sub-index structure, target ranges)
  /// happens here; throws io_error on crafted input.
  [[nodiscard]] shard_view load_shard(std::size_t k) {
    namespace d = csr_detail;
    NW_ASSERT(k < dir_.size(), "shard index out of range");
    release_shard();
    const auto& s   = dir_[k];
    const bool  svb = (s.flags & d::shard_flag_svb) != 0;
    advise_window(s, /*loading=*/true);
    NWOBS_COUNT("shard.bytes_loaded", s.e2n_len + s.sub_len + s.n2e_len);

    shard_view v;
    v.e_begin   = static_cast<nw::vertex_id_t>(s.e_begin);
    v.e_end     = static_cast<nw::vertex_id_t>(s.e_end);
    v.e2n_index = e2n_idx_.subspan(static_cast<std::size_t>(s.e_begin),
                                   static_cast<std::size_t>(s.e_end - s.e_begin) + 1);

    auto sub_bytes = load_payload(s.sub_off, s.sub_len, sub_store_);
    v.sub_index    = span_cast<nw::offset_t>(sub_bytes);
    if (v.sub_index[0] != 0 || v.sub_index[n1_] != s.count) {
      throw payload_error("shard " + std::to_string(k) +
                          " sub-index extents disagree with its incidence count");
    }
    for (std::uint64_t i = 0; i < n1_; ++i) {
      if (v.sub_index[i] > v.sub_index[i + 1]) {
        throw payload_error("shard " + std::to_string(k) +
                            " sub-index is not monotonically non-decreasing");
      }
    }

    if (svb) {
      e2n_scratch_.resize(static_cast<std::size_t>(s.count));
      n2e_scratch_.resize(static_cast<std::size_t>(s.count));
      auto e2n_bytes = load_payload(s.e2n_off, s.e2n_len, e2n_byte_store_);
      auto n2e_bytes = load_payload(s.n2e_off, s.n2e_len, n2e_byte_store_);
      d::decode_shard_slice(e2n_bytes, payload_offset_ + s.e2n_off, true, s.count,
                            e2n_scratch_.data(), origin_);
      d::decode_shard_slice(n2e_bytes, payload_offset_ + s.n2e_off, true, s.count,
                            n2e_scratch_.data(), origin_);
      v.e2n_targets = e2n_scratch_;
      v.n2e_targets = n2e_scratch_;
    } else {
      v.e2n_targets = span_cast<nw::vertex_id_t>(load_payload(s.e2n_off, s.e2n_len,
                                                              e2n_byte_store_));
      v.n2e_targets = span_cast<nw::vertex_id_t>(load_payload(s.n2e_off, s.n2e_len,
                                                              n2e_byte_store_));
    }
    for (auto t : v.e2n_targets) {
      if (t >= n1_) {
        throw payload_error("shard " + std::to_string(k) +
                            " E2N slice holds out-of-range hypernode ids");
      }
    }
    for (auto t : v.n2e_targets) {
      if (t < s.e_begin || t >= s.e_end) {
        throw payload_error("shard " + std::to_string(k) +
                            " N2E slice holds edge ids outside its range");
      }
    }
    loaded_ = static_cast<std::ptrdiff_t>(k);
    return v;
  }

  /// Return the loaded shard's pages to the OS (MADV_DONTNEED on the mmap
  /// path) and drop the fallback buffers.  Idempotent.
  void release_shard() {
    if (loaded_ < 0) return;
    advise_window(dir_[static_cast<std::size_t>(loaded_)], /*loading=*/false);
    e2n_byte_store_.clear();
    n2e_byte_store_.clear();
    sub_store_.clear();
    e2n_scratch_.clear();
    n2e_scratch_.clear();
    loaded_ = -1;
  }

private:
  [[nodiscard]] io_error payload_error(const std::string& msg) const {
    return io_error("NWHYCSR2 shard payload: " + msg, origin_, 0,
                    static_cast<std::size_t>(payload_offset_));
  }

  template <class T>
  static std::span<const T> span_cast(std::span<const unsigned char> bytes) {
    return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

  [[nodiscard]] const unsigned char* image() const {
    return static_cast<const unsigned char*>(storage_.get());
  }

  void open_storage(const std::string& path) {
#if NWHY_HAS_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw io_error("cannot open snapshot", path);
    struct ::stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw io_error("cannot stat snapshot", path);
    }
    file_size_ = static_cast<std::uint64_t>(st.st_size);
    if (file_size_ == 0) {
      ::close(fd);
      throw io_error("truncated NWHYCSR2 snapshot (empty file)", path, 0, 0);
    }
    void* base = ::mmap(nullptr, static_cast<std::size_t>(file_size_), PROT_READ, MAP_PRIVATE,
                        fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) throw io_error("mmap failed on snapshot", path);
    const std::size_t size = static_cast<std::size_t>(file_size_);
    storage_ = std::shared_ptr<const void>(base, [size](const void* p) {
      ::munmap(const_cast<void*>(p), size);
    });
    // Random access by default: load_shard advises its own windows.
    ::madvise(const_cast<void*>(storage_.get()), size, MADV_RANDOM);
#else
    stream_.open(path, std::ios::binary);
    if (!stream_) throw io_error("cannot open snapshot", path);
    stream_.seekg(0, std::ios::end);
    file_size_ = static_cast<std::uint64_t>(stream_.tellg());
    stream_.seekg(0);
    // Only the header + table prefix is slurped; sections read on demand.
    const std::uint64_t prefix = std::min<std::uint64_t>(
        file_size_, csr_detail::header_bytes +
                        csr_detail::max_section_count * csr_detail::table_entry_bytes);
    auto buf = std::make_shared<std::vector<unsigned char>>(static_cast<std::size_t>(prefix));
    stream_.read(reinterpret_cast<char*>(buf->data()), static_cast<std::streamsize>(prefix));
    if (!stream_.good()) throw io_error("truncated NWHYCSR2 snapshot", path, 0, 0);
    prefix_ = buf;
    storage_ = std::shared_ptr<const void>(prefix_, prefix_->data());
#endif
  }

  /// Bytes of a table section: a zero-copy span on the mmap path, an owned
  /// read on the stream path.
  std::span<const unsigned char> load_section(const csr_detail::section_entry& s,
                                              std::vector<unsigned char>& store) {
#if NWHY_HAS_MMAP
    (void)store;
    return {image() + s.offset, static_cast<std::size_t>(s.length)};
#else
    return read_range(s.offset, s.length, store);
#endif
  }

  /// Bytes of one shard segment (offset relative to the payload section).
  std::span<const unsigned char> load_payload(std::uint64_t off, std::uint64_t len,
                                              std::vector<unsigned char>& store) {
#if NWHY_HAS_MMAP
    (void)store;
    return {image() + payload_offset_ + off, static_cast<std::size_t>(len)};
#else
    return read_range(payload_offset_ + off, len, store);
#endif
  }

#if !NWHY_HAS_MMAP
  std::span<const unsigned char> read_range(std::uint64_t off, std::uint64_t len,
                                            std::vector<unsigned char>& store) {
    store.resize(static_cast<std::size_t>(len));
    stream_.clear();
    stream_.seekg(static_cast<std::streamoff>(off));
    stream_.read(reinterpret_cast<char*>(store.data()), static_cast<std::streamsize>(len));
    if (!stream_.good()) {
      throw io_error("truncated NWHYCSR2 snapshot (section cut short)", origin_, 0,
                     static_cast<std::size_t>(off));
    }
    return store;
  }
#endif

  /// madvise the shard's contiguous payload window: SEQUENTIAL + WILLNEED
  /// ahead of the pass, DONTNEED after it.  The release range is rounded
  /// out to 2 MiB boundaries (clamped to the payload section): sequential
  /// faults map large page-cache folios that spill past the page-rounded
  /// window, and a folio only partially covered by the zap survives it —
  /// left unrounded, every released shard leaks up to 2 MiB and the >RAM
  /// RSS bound erodes shard by shard.  No-op when disabled via
  /// NWHY_MADVISE=0 or on the stream path.
  void advise_window(const csr_detail::shard_entry& s, bool loading) {
#if NWHY_HAS_MMAP
    if (!madvise_enabled_) return;
    const std::uint64_t begin = payload_offset_ + std::min({s.e2n_off, s.sub_off, s.n2e_off});
    const std::uint64_t end   = payload_offset_ + std::max({s.e2n_off + s.e2n_len,
                                                            s.sub_off + s.sub_len,
                                                            s.n2e_off + s.n2e_len});
    const std::uint64_t page  = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    std::uint64_t       lo    = begin / page * page;
    std::uint64_t       hi    = std::min(file_size_, (end + page - 1) / page * page);
    if (!loading) {
      constexpr std::uint64_t folio = std::uint64_t{2} << 20;
      lo = std::max(begin / folio * folio, payload_offset_ / page * page);
      hi = std::min(file_size_, (end + folio - 1) / folio * folio);
    }
    if (hi <= lo) return;
    auto* p = const_cast<unsigned char*>(image() + lo);
    ::madvise(p, static_cast<std::size_t>(hi - lo), loading ? MADV_SEQUENTIAL : MADV_DONTNEED);
    if (loading) ::madvise(p, static_cast<std::size_t>(hi - lo), MADV_WILLNEED);
    NWOBS_COUNT("shard.madvise_windows", 1);
#else
    (void)s;
    (void)loading;
#endif
  }

  std::string                     origin_;
  std::uint64_t                   file_size_ = 0;
  std::uint64_t                   n0_ = 0, n1_ = 0, m_ = 0;
  std::uint64_t                   payload_offset_ = 0, payload_length_ = 0;
  std::shared_ptr<const void>     storage_;
#if !NWHY_HAS_MMAP
  std::ifstream                              stream_;
  std::shared_ptr<std::vector<unsigned char>> prefix_;
#endif
  std::vector<csr_detail::shard_entry> dir_;
  std::span<const nw::offset_t>        e2n_idx_;
  std::span<const nw::offset_t>        n2e_idx_;
  std::span<const nw::vertex_id_t>     relabel_inv_;
  std::vector<unsigned char> dir_store_, e2n_idx_store_, n2e_idx_store_, relabel_store_;
  std::vector<unsigned char> e2n_byte_store_, n2e_byte_store_, sub_store_;
  std::vector<nw::vertex_id_t> e2n_scratch_, n2e_scratch_;
  std::ptrdiff_t               loaded_          = -1;
  bool                         madvise_enabled_ = true;
};

}  // namespace nw::hypergraph
