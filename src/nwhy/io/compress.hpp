// nwhy/io/compress.hpp
//
// Compressed NWHYCSR2 target sections: a StreamVByte-style block codec for
// sorted CSR target rows, an optional duplicate-row dictionary, and the
// `compressed_adjacency` view that lets the traversal engines run directly
// on a compressed snapshot with bounded memory.
//
// Codec (one payload per compressed targets section):
//
//   * Values are delta-encoded against the previous value in *wrapping*
//     u32 arithmetic, then zigzag-mapped (`zz = (d << 1) ^ (s32(d) >> 31)`).
//     The wrapping delta is invertible mod 2^32, so any u32 sequence —
//     sorted or not — round-trips exactly in at most 4 bytes per value,
//     and sorted rows (the canonical invariant) produce small deltas.
//   * Values are grouped 4 per control byte: lane i's 2-bit code at bits
//     [2i, 2i+1] is its encoded byte count minus one (StreamVByte layout).
//     Control bytes and data bytes live in two separate streams so the
//     decoder can load 16 data bytes and shuffle them into 4 lanes with a
//     single table-driven pshufb/tbl — no per-byte branches.
//   * The value stream is cut into independent fixed-size blocks
//     (`block_size` values, default 4096): the delta predecessor resets to
//     0 at every block start, so any block decodes without its
//     predecessors.  Per block the payload stores {u64 data_offset,
//     u32 min, u32 max}: the offset gives random access, min/max let point
//     queries skip blocks that cannot contain the probe.
//
// Payload byte layout (offsets relative to the section payload start):
//
//   offset size            field
//   ------ ----            ---------------------------------------------
//        0    4            u32 block_size   (> 0, multiple of 4, <= 2^20)
//        4    4            u32 reserved (0)
//        8    8            u64 num_values
//       16    8            u64 data_bytes
//       24    8            u64 reserved (0)
//       32    16*nb        block metadata: {u64 data_offset, u32 min, u32 max}
//        +    ceil(nv/4)   control stream (block b's controls start at byte
//                          b * block_size / 4)
//        +    data_bytes   data stream
//        +    16           zero padding (SIMD decoders load 16 bytes at a
//                          time; the tail load of the last group must stay
//                          inside the payload)
//
// where nb = ceil(num_values / block_size).  The encoder is deterministic:
// the payload is a pure function of (values, block_size) — single-threaded,
// no iteration-order dependence — so identical inputs produce bit-identical
// sections (and section checksums).
//
// Every geometric property above is validated when a payload is adopted
// (`compressed_targets` constructor), including one control-stream scan
// proving each block's summed lane widths equal its data slice — after
// that, no decode can read outside the payload.  Decoded values are
// additionally bound-checked against the target partition at decode time.
// The per-block min/max steer `contains()` block skipping and must be
// exact: every block a point query decodes has its metadata verified
// against the decoded values (a widened forgery throws io_error), while
// a pair narrowed around a block that is then skipped is only caught by
// the section checksum (mandatory on the streamed reader, opt-in on the
// mmap path) — on a checksum-skipping load it can suppress a match, i.e.
// change a query result, but never memory safety.  A crafted payload
// therefore surfaces as io_error at load or decode (or, at worst, a
// suppressed `contains` match on an unverified mmap load), never as UB.
//
// SIMD: the 4-lane shuffle decoder compiles under SSSE3 (x86) or NEON
// (aarch64) when available; `-DNWHY_SIMD=0` (CMake option NWHY_SIMD=OFF)
// forces it out at compile time and the env knob `NWHY_SIMD=0` disables it
// at run time.  The scalar fallback is bit-identical by construction and
// both entry points stay callable so tests can compare them directly.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"

// Compile-time SIMD selection: NWHY_SIMD may be forced to 0 (or 1) from the
// build system; otherwise it follows the target ISA.  NWHY_SIMD_SSSE3 /
// NWHY_SIMD_NEON are the internal "an actual kernel exists" macros — asking
// for NWHY_SIMD=1 on an ISA without a kernel quietly degrades to scalar.
#if !defined(NWHY_SIMD)
#define NWHY_SIMD 1
#endif
#if NWHY_SIMD && defined(__SSSE3__)
#define NWHY_SIMD_SSSE3 1
#include <tmmintrin.h>
#elif NWHY_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
#define NWHY_SIMD_NEON 1
#include <arm_neon.h>
#endif
#if defined(NWHY_SIMD_SSSE3) || defined(NWHY_SIMD_NEON)
#define NWHY_SIMD_DECODE 1
#else
#define NWHY_SIMD_DECODE 0
#endif

namespace nw::hypergraph {

/// Options for the compressing `write_csr_snapshot` overload.
struct csr_compress_options {
  /// Emit the two bi-adjacency target sections in the StreamVByte block
  /// format (kinds 7/8) instead of raw u32 arrays (kinds 2/4).
  bool compress_targets = true;
  /// Store each distinct E2N row once: duplicate hyperedges (identical
  /// sorted rows) become dictionary references (kinds 9/10).  Only emitted
  /// when the input actually contains duplicates.
  bool dedup_rows = true;
  /// Values per codec block.  Must be a positive multiple of 4; bounded at
  /// 2^20 so per-block scratch stays cache-sized.
  std::uint32_t block_size = 4096;
};

namespace svb {

inline constexpr std::uint32_t default_block_size = 4096;
inline constexpr std::uint32_t max_block_size     = 1u << 20;
inline constexpr std::size_t   payload_header_bytes = 32;
inline constexpr std::size_t   block_meta_bytes     = 16;
inline constexpr std::size_t   payload_pad_bytes    = 16;

/// Runtime kill switch for the SIMD decoder (`NWHY_SIMD=0`), read once.
inline bool simd_runtime_enabled() {
  static const bool on = nw::util::env_u64_strict("NWHY_SIMD", 1, 0, 1) != 0;
  return on;
}

/// True when block decodes will actually use the SIMD kernel.
inline bool simd_active() {
#if NWHY_SIMD_DECODE
  return simd_runtime_enabled();
#else
  return false;
#endif
}

/// The path block decodes take, as profiles record it.
inline const char* simd_decode_path() {
  if (!simd_active()) return NWHY_SIMD_DECODE ? "scalar (NWHY_SIMD=0)" : "scalar (no SIMD kernel)";
#if defined(NWHY_SIMD_NEON)
  return "neon";
#else
  return "ssse3";
#endif
}

/// Every profile names the decode path (nwobs does not include nwhy/).
inline const bool simd_decode_path_in_profiles =
    (nw::obs::registry::get().set_context("simd_decode", &simd_decode_path), true);

/// Wrapping-u32 zigzag of a delta: invertible mod 2^32, so even a
/// "backwards" delta (unsorted row, crafted input) fits 4 encoded bytes.
inline constexpr std::uint32_t zigzag(std::uint32_t delta) {
  return (delta << 1) ^ static_cast<std::uint32_t>(static_cast<std::int32_t>(delta) >> 31);
}
inline constexpr std::uint32_t unzigzag(std::uint32_t zz) {
  return (zz >> 1) ^ (0u - (zz & 1u));
}

/// Per-control-byte decode tables: total data bytes consumed by the 4
/// lanes, and the 16-entry byte shuffle that expands the packed lanes to
/// 4 u32 slots (index -1 = emit zero; both pshufb and tbl treat an
/// out-of-range index as zero).
struct decode_tables {
  std::array<std::uint8_t, 256>                    len{};
  alignas(64) std::array<std::array<std::int8_t, 16>, 256> shuffle{};
};

inline constexpr decode_tables make_decode_tables() {
  decode_tables t{};
  for (unsigned c = 0; c < 256; ++c) {
    unsigned pos = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      const unsigned n = ((c >> (2 * lane)) & 3u) + 1;
      for (unsigned b = 0; b < 4; ++b) {
        t.shuffle[c][lane * 4 + b] =
            b < n ? static_cast<std::int8_t>(pos + b) : static_cast<std::int8_t>(-1);
      }
      pos += n;
    }
    t.len[c] = static_cast<std::uint8_t>(pos);
  }
  return t;
}

inline constexpr decode_tables tables = make_decode_tables();

/// Encoded byte count of one zigzagged value (the 2-bit control code is
/// this minus one).
inline constexpr unsigned encoded_width(std::uint32_t zz) {
  return zz < 0x100u ? 1u : zz < 0x10000u ? 2u : zz < 0x1000000u ? 3u : 4u;
}

/// Decode up to 4 lanes of one group with the portable scalar kernel.
/// Returns the advanced data pointer.  `nvals` in [1, 4].
inline const unsigned char* decode_group_scalar(const unsigned char* data, unsigned ctrl,
                                                unsigned nvals, std::uint32_t& prev,
                                                nw::vertex_id_t* out) {
  for (unsigned lane = 0; lane < nvals; ++lane) {
    const unsigned n  = ((ctrl >> (2 * lane)) & 3u) + 1;
    std::uint32_t  zz = 0;
    for (unsigned b = 0; b < n; ++b) zz |= static_cast<std::uint32_t>(data[b]) << (8 * b);
    data += n;
    prev += unzigzag(zz);  // wrapping add — the inverse of the wrapping delta
    out[lane] = prev;
  }
  return data;
}

/// Encode `values` into the block payload format.  Deterministic; the
/// result is the exact section payload (including the trailing pad).
inline std::vector<unsigned char> encode(std::span<const nw::vertex_id_t> values,
                                         std::uint32_t block_size = default_block_size) {
  NW_ASSERT(block_size > 0 && block_size % 4 == 0 && block_size <= max_block_size,
            "svb::encode: block_size must be a positive multiple of 4, <= 2^20");
  const std::uint64_t nv = values.size();
  const std::uint64_t nb = (nv + block_size - 1) / block_size;
  const std::uint64_t ctrl_bytes = (nv + 3) / 4;

  // Pass 1: exact data-stream size.
  std::uint64_t data_bytes = 0;
  {
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < nv; ++i) {
      if (i % block_size == 0) prev = 0;
      data_bytes += encoded_width(zigzag(values[i] - prev));
      prev = values[i];
    }
  }

  const std::uint64_t meta_off = payload_header_bytes;
  const std::uint64_t ctrl_off = meta_off + nb * block_meta_bytes;
  const std::uint64_t data_off = ctrl_off + ctrl_bytes;
  std::vector<unsigned char> payload(data_off + data_bytes + payload_pad_bytes, 0);

  auto put_u32 = [&](std::uint64_t at, std::uint32_t v) { std::memcpy(&payload[at], &v, 4); };
  auto put_u64 = [&](std::uint64_t at, std::uint64_t v) { std::memcpy(&payload[at], &v, 8); };
  put_u32(0, block_size);
  put_u64(8, nv);
  put_u64(16, data_bytes);

  // Pass 2: emit per block.
  std::uint64_t dpos = 0;  // cursor into the data stream
  for (std::uint64_t b = 0; b < nb; ++b) {
    const std::uint64_t lo = b * block_size;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + block_size, nv);
    std::uint32_t       mn = values[lo], mx = values[lo];
    put_u64(meta_off + b * block_meta_bytes, dpos);
    std::uint32_t prev = 0;
    std::uint64_t cpos = ctrl_off + b * (block_size / 4);  // block's control slice
    for (std::uint64_t i = lo; i < hi; i += 4) {
      unsigned      ctrl  = 0;
      const unsigned lanes = static_cast<unsigned>(std::min<std::uint64_t>(4, hi - i));
      for (unsigned lane = 0; lane < lanes; ++lane) {
        const std::uint32_t v  = values[i + lane];
        const std::uint32_t zz = zigzag(v - prev);
        const unsigned      n  = encoded_width(zz);
        ctrl |= (n - 1) << (2 * lane);
        for (unsigned byte = 0; byte < n; ++byte) {
          payload[data_off + dpos++] = static_cast<unsigned char>(zz >> (8 * byte));
        }
        prev = v;
        mn   = std::min(mn, v);
        mx   = std::max(mx, v);
      }
      payload[cpos++] = static_cast<unsigned char>(ctrl);
    }
    put_u32(meta_off + b * block_meta_bytes + 8, mn);
    put_u32(meta_off + b * block_meta_bytes + 12, mx);
  }
  NW_ASSERT(dpos == data_bytes, "svb::encode: width passes disagree");
  return payload;
}

}  // namespace svb

/// Read-only view over one validated compressed targets payload.  The
/// constructor proves every geometric invariant (including the
/// control-sum pass), after which block decodes cannot read outside the
/// payload span.  The view does not own the bytes — the snapshot's
/// keepalive does.
class compressed_targets {
public:
  compressed_targets() = default;

  /// Validate and adopt a payload.  `origin` / `base_offset` label
  /// io_errors with the section's position in the snapshot file.
  compressed_targets(std::span<const unsigned char> payload, const std::string& origin,
                     std::uint64_t base_offset) {
    namespace s = svb;
    auto fail = [&](const std::string& msg, std::uint64_t at) {
      throw io_error("NWHYCSR2 compressed section: " + msg, origin, 0,
                     static_cast<std::size_t>(base_offset + at));
    };
    if (payload.size() < s::payload_header_bytes + s::payload_pad_bytes) {
      fail("payload too small for the 32-byte sub-header", 0);
    }
    auto get_u32 = [&](std::uint64_t at) {
      std::uint32_t v;
      std::memcpy(&v, payload.data() + at, 4);
      return v;
    };
    auto get_u64 = [&](std::uint64_t at) {
      std::uint64_t v;
      std::memcpy(&v, payload.data() + at, 8);
      return v;
    };
    block_size_ = get_u32(0);
    num_values_ = get_u64(8);
    data_bytes_ = get_u64(16);
    if (block_size_ == 0 || block_size_ % 4 != 0 || block_size_ > s::max_block_size) {
      fail("block_size " + std::to_string(block_size_) +
               " out of range (positive multiple of 4, <= 2^20)",
           0);
    }
    // Each value costs at least 1 data byte and at most 4 — this bounds
    // num_values by the (already file-size-bounded) payload length before
    // any arithmetic that could overflow.
    if (num_values_ > data_bytes_ || data_bytes_ > payload.size()) {
      fail("num_values / data_bytes inconsistent with the payload size", 8);
    }
    num_blocks_ = num_values_ == 0 ? 0 : (num_values_ - 1) / block_size_ + 1;
    const std::uint64_t ctrl_bytes = (num_values_ + 3) / 4;
    const std::uint64_t expect = s::payload_header_bytes + num_blocks_ * s::block_meta_bytes +
                                 ctrl_bytes + data_bytes_ + s::payload_pad_bytes;
    if (payload.size() != expect) {
      fail("payload has " + std::to_string(payload.size()) + " bytes, geometry requires " +
               std::to_string(expect),
           0);
    }
    meta_ = payload.data() + s::payload_header_bytes;
    ctrl_ = meta_ + num_blocks_ * s::block_meta_bytes;
    data_ = ctrl_ + ctrl_bytes;

    // Block metadata: offsets must tile [0, data_bytes) in order, and every
    // block's control bytes must demand exactly its data slice — the pass
    // that makes "a varint overruns its block" a load error, not a decode
    // overrun.  Unused lanes of a final partial control byte must be 0
    // (determinism + no hidden bytes).
    std::uint64_t prev_off = 0;
    for (std::uint64_t b = 0; b < num_blocks_; ++b) {
      const std::uint64_t off = block_data_offset(b);
      if (b == 0 ? off != 0 : off < prev_off) {
        fail("block " + std::to_string(b) + " data offset out of order", 0);
      }
      if (off > data_bytes_) {
        fail("block " + std::to_string(b) + " data offset past the data stream", 0);
      }
      const std::uint64_t end  = b + 1 < num_blocks_ ? block_data_offset(b + 1) : data_bytes_;
      if (end < off || end > data_bytes_) {
        fail("block " + std::to_string(b) + " data slice out of bounds", 0);
      }
      const std::uint32_t vals = block_values(b);
      const unsigned char* c   = block_ctrl(b);
      std::uint64_t        need = 0;
      std::uint32_t        i    = 0;
      for (; i + 4 <= vals; i += 4) need += svb::tables.len[*c++];
      if (i < vals) {
        const unsigned ctrl = *c;
        const unsigned tail = vals - i;
        if ((ctrl >> (2 * tail)) != 0) {
          fail("block " + std::to_string(b) + " control byte sets unused lanes", 0);
        }
        for (unsigned lane = 0; lane < tail; ++lane) need += ((ctrl >> (2 * lane)) & 3u) + 1;
      }
      if (need != end - off) {
        fail("block " + std::to_string(b) + " control stream demands " + std::to_string(need) +
                 " data bytes, slice has " + std::to_string(end - off),
             0);
      }
      prev_off = off;
    }
  }

  [[nodiscard]] std::uint64_t num_values() const { return num_values_; }
  [[nodiscard]] std::uint32_t block_size() const { return block_size_; }
  [[nodiscard]] std::uint64_t num_blocks() const { return num_blocks_; }
  [[nodiscard]] std::uint64_t data_bytes() const { return data_bytes_; }

  /// Values held by block `b` (only the last block may be partial).
  [[nodiscard]] std::uint32_t block_values(std::uint64_t b) const {
    return b + 1 < num_blocks_ || num_values_ % block_size_ == 0
               ? block_size_
               : static_cast<std::uint32_t>(num_values_ % block_size_);
  }

  /// Per-block skip metadata.  Not proven at load time (that would mean
  /// decoding everything); consumers that skip on it must verify it
  /// against the decoded values of every block they do decode (see
  /// compressed_adjacency::contains) — a forged pair can misdirect a
  /// skip, never an access.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> block_min_max(std::uint64_t b) const {
    std::uint32_t mn, mx;
    std::memcpy(&mn, meta_ + b * svb::block_meta_bytes + 8, 4);
    std::memcpy(&mx, meta_ + b * svb::block_meta_bytes + 12, 4);
    return {mn, mx};
  }

  /// Decode block `b` into `out` (must hold block_values(b) slots), with
  /// the active kernel (SIMD when compiled in and not disabled via env).
  void decode_block(std::uint64_t b, nw::vertex_id_t* out) const {
#if NWHY_SIMD_DECODE
    if (svb::simd_runtime_enabled()) {
      decode_block_simd(b, out);
      return;
    }
#endif
    decode_block_scalar(b, out);
  }

  /// Portable kernel; kept public so tests can pin scalar/SIMD identity.
  void decode_block_scalar(std::uint64_t b, nw::vertex_id_t* out) const {
    const std::uint32_t  vals = block_values(b);
    const unsigned char* c    = block_ctrl(b);
    const unsigned char* d    = data_ + block_data_offset(b);
    std::uint32_t        prev = 0;
    std::uint32_t        i    = 0;
    for (; i + 4 <= vals; i += 4) d = svb::decode_group_scalar(d, *c++, 4, prev, out + i);
    if (i < vals) svb::decode_group_scalar(d, *c, vals - i, prev, out + i);
  }

#if NWHY_SIMD_DECODE
  /// 4-lane shuffle kernel (SSSE3 pshufb / NEON tbl).  Full groups load 16
  /// data bytes each; the trailing pad bytes keep the last load inside the
  /// payload.  Bit-identical to the scalar kernel: both compute the same
  /// wrapping prefix sum of unzigzagged deltas.
  void decode_block_simd(std::uint64_t b, nw::vertex_id_t* out) const {
    const std::uint32_t  vals = block_values(b);
    const unsigned char* c    = block_ctrl(b);
    const unsigned char* d    = data_ + block_data_offset(b);
    std::uint32_t        i    = 0;
#if defined(NWHY_SIMD_SSSE3)
    __m128i prev = _mm_setzero_si128();  // lane 3 carries the running value
    const __m128i one = _mm_set1_epi32(1);
    for (; i + 4 <= vals; i += 4) {
      const unsigned ctrl = *c++;
      const __m128i  raw  = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d));
      const __m128i  shuf =
          _mm_load_si128(reinterpret_cast<const __m128i*>(svb::tables.shuffle[ctrl].data()));
      const __m128i zz = _mm_shuffle_epi8(raw, shuf);
      // unzigzag: (zz >> 1) ^ (0 - (zz & 1))
      __m128i delta = _mm_xor_si128(
          _mm_srli_epi32(zz, 1), _mm_sub_epi32(_mm_setzero_si128(), _mm_and_si128(zz, one)));
      // In-register inclusive prefix sum across the 4 lanes.
      delta = _mm_add_epi32(delta, _mm_slli_si128(delta, 4));
      delta = _mm_add_epi32(delta, _mm_slli_si128(delta, 8));
      const __m128i vout = _mm_add_epi32(delta, _mm_shuffle_epi32(prev, _MM_SHUFFLE(3, 3, 3, 3)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), vout);
      prev = vout;
      d += svb::tables.len[ctrl];
    }
    std::uint32_t carry =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_shuffle_epi32(prev, _MM_SHUFFLE(3, 3, 3, 3))));
#elif defined(NWHY_SIMD_NEON)
    std::uint32_t carry = 0;
    for (; i + 4 <= vals; i += 4) {
      const unsigned ctrl = *c++;
      const uint8x16_t raw = vld1q_u8(d);
      const uint8x16_t shuf =
          vld1q_u8(reinterpret_cast<const std::uint8_t*>(svb::tables.shuffle[ctrl].data()));
      const uint32x4_t zz = vreinterpretq_u32_u8(vqtbl1q_u8(raw, shuf));
      uint32x4_t delta = veorq_u32(
          vshrq_n_u32(zz, 1),
          vreinterpretq_u32_s32(vnegq_s32(vreinterpretq_s32_u32(vandq_u32(zz, vdupq_n_u32(1))))));
      const uint32x4_t zero = vdupq_n_u32(0);
      delta = vaddq_u32(delta, vextq_u32(zero, delta, 3));
      delta = vaddq_u32(delta, vextq_u32(zero, delta, 2));
      const uint32x4_t vout = vaddq_u32(delta, vdupq_n_u32(carry));
      vst1q_u32(out + i, vout);
      carry = vgetq_lane_u32(vout, 3);
      d += svb::tables.len[ctrl];
    }
#endif
    if (i < vals) svb::decode_group_scalar(d, *c, vals - i, carry, out + i);
  }
#endif  // NWHY_SIMD_DECODE

private:
  [[nodiscard]] std::uint64_t block_data_offset(std::uint64_t b) const {
    std::uint64_t v;
    std::memcpy(&v, meta_ + b * svb::block_meta_bytes, 8);
    return v;
  }
  [[nodiscard]] const unsigned char* block_ctrl(std::uint64_t b) const {
    return ctrl_ + b * (block_size_ / 4);
  }

  std::uint32_t        block_size_ = 0;
  std::uint64_t        num_values_ = 0;
  std::uint64_t        num_blocks_ = 0;
  std::uint64_t        data_bytes_ = 0;
  const unsigned char* meta_       = nullptr;
  const unsigned char* ctrl_       = nullptr;
  const unsigned char* data_       = nullptr;
};

/// Duplicate-row dictionary built by the compressing writer: identical E2N
/// rows are stored once in `stored` (concatenated, delimited by
/// `dict_indices`), and each of the n rows becomes a reference into the
/// unique-row space.
struct row_dictionary {
  std::vector<nw::vertex_id_t> refs;          ///< n entries, refs[u] < num_unique
  std::vector<nw::offset_t>    dict_indices;  ///< num_unique + 1 offsets into `stored`
  std::vector<nw::vertex_id_t> stored;        ///< unique rows, first-occurrence order
  [[nodiscard]] std::size_t num_unique() const { return dict_indices.size() - 1; }
};

/// Detect duplicate rows of a CSR.  Returns nullopt when every row is
/// distinct (a dictionary would only add overhead).  Deterministic: unique
/// rows are numbered in first-occurrence order.
inline std::optional<row_dictionary> build_row_dictionary(std::span<const nw::offset_t> idx,
                                                          std::span<const nw::vertex_id_t> tgt) {
  const std::size_t n = idx.empty() ? 0 : idx.size() - 1;
  if (n == 0) return std::nullopt;
  row_dictionary d;
  d.refs.resize(n);
  d.dict_indices.push_back(0);
  std::unordered_map<std::string_view, nw::vertex_id_t> seen;
  seen.reserve(n);
  bool any_dup = false;
  for (std::size_t u = 0; u < n; ++u) {
    const auto lo = idx[u], hi = idx[u + 1];
    std::string_view key(reinterpret_cast<const char*>(tgt.data() + lo),
                         (hi - lo) * sizeof(nw::vertex_id_t));
    auto [it, inserted] = seen.emplace(key, static_cast<nw::vertex_id_t>(seen.size()));
    if (inserted) {
      d.stored.insert(d.stored.end(), tgt.begin() + lo, tgt.begin() + hi);
      d.dict_indices.push_back(d.stored.size());
    } else {
      any_dup = true;
    }
    d.refs[u] = it->second;
  }
  if (!any_dup) return std::nullopt;
  return d;
}

/// CSR view over compressed target sections: raw (uncompressed) row
/// offsets plus a block-compressed target stream, optionally indirected
/// through a duplicate-row dictionary.  Presents the same read interface
/// the traversal engines consume from `biadjacency` — `size()`,
/// `num_edges()`, `degree(u)`, `operator[](u)` (a span of u32 ids),
/// `contains(u, t)` — decoding block-wise into per-thread keep-capacity
/// scratch, so algorithms run on a compressed snapshot with bounded
/// memory.
///
/// Row lifetime contract: `operator[]` spans live in a small per-thread,
/// per-instance LRU cache (`row_cache_ways` slots).  A returned span stays
/// valid until the same thread either fetches `row_cache_ways` *other*
/// rows of the same instance, or touches more than `max_cached_instances`
/// (8) distinct compressed_adjacency instances — whole-instance LRU
/// eviction then destroys the least-recently-used instance's slot
/// storage, invalidating any spans still pointing into it.  Within that
/// instance budget, fetches on a different compressed_adjacency never
/// invalidate a span.  Every engine this repo runs on compressed views
/// keeps at most 2 rows of one structure live and touches at most 2
/// instances per thread (pairwise intersection is the worst case);
/// kernels that hold one row while streaming many rows of the same
/// structure (the intersection s-line family), or that interleave more
/// than 8 views on one thread, must materialize first.
///
/// Decoded ids are bound-checked against `target_bound` at decode time —
/// a crafted payload throws io_error from the access, never indexes an
/// algorithm array out of bounds.
class compressed_adjacency {
public:
  static constexpr std::size_t row_cache_ways = 4;

  compressed_adjacency() = default;

  compressed_adjacency(std::span<const nw::offset_t> idx, compressed_targets targets,
                       std::uint64_t target_bound, std::string origin,
                       std::shared_ptr<const void> keepalive)
      : idx_(idx),
        targets_(targets),
        target_bound_(target_bound),
        origin_(std::move(origin)),
        keepalive_(std::move(keepalive)),
        instance_(next_instance_id()) {}

  compressed_adjacency(std::span<const nw::offset_t> idx, std::span<const nw::vertex_id_t> refs,
                       std::span<const nw::offset_t> dict_idx, compressed_targets targets,
                       std::uint64_t target_bound, std::string origin,
                       std::shared_ptr<const void> keepalive)
      : idx_(idx),
        refs_(refs),
        dict_idx_(dict_idx),
        targets_(targets),
        target_bound_(target_bound),
        origin_(std::move(origin)),
        keepalive_(std::move(keepalive)),
        instance_(next_instance_id()) {}

  [[nodiscard]] std::size_t size() const { return idx_.empty() ? 0 : idx_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return idx_.empty() ? 0 : idx_.back(); }
  [[nodiscard]] std::size_t degree(std::size_t u) const {
    return static_cast<std::size_t>(idx_[u + 1] - idx_[u]);
  }
  [[nodiscard]] bool has_dictionary() const { return !refs_.empty(); }
  [[nodiscard]] const compressed_targets& targets() const { return targets_; }

  /// Row `u`, decoded into the calling thread's cache.  See the lifetime
  /// contract above.
  [[nodiscard]] std::span<const nw::vertex_id_t> operator[](std::size_t u) const {
    auto& slot = cache_slot(u);
    return {slot.values.data(), slot.values.size()};
  }

  /// Sorted-row point query with block skipping: only blocks whose
  /// min/max admit `t` are decoded, so a `contains` probe on a long row
  /// touches one block, not the whole row.  Every decoded block's min/max
  /// is verified exact (io_error on mismatch); a forged pair on a block
  /// this probe *skips* can suppress a match on a checksum-unverified
  /// mmap load — the streamed reader's mandatory checksums close that —
  /// but can never cause an out-of-bounds access.
  [[nodiscard]] bool contains(std::size_t u, nw::vertex_id_t t) const {
    const auto [lo, hi] = stored_range(u);
    if (lo == hi) return false;
    const std::uint32_t bs = targets_.block_size();
    auto& scratch          = block_scratch();
    for (std::uint64_t b = lo / bs, b_end = (hi - 1) / bs; b <= b_end; ++b) {
      const auto [mn, mx] = targets_.block_min_max(b);
      if (t < mn || t > mx) continue;
      decode_block_checked(b, scratch);
      // Overlap of the row's stored range with this block, in block-local
      // coordinates.  Canonical rows are sorted, so binary search applies.
      const std::uint64_t s = std::max<std::uint64_t>(lo, b * bs) - b * bs;
      const std::uint64_t e = std::min<std::uint64_t>(hi, b * bs + targets_.block_values(b)) -
                              b * bs;
      if (std::binary_search(scratch.begin() + s, scratch.begin() + e, t)) return true;
    }
    return false;
  }

  /// Decode the whole structure into an owned adjacency (parallel over
  /// blocks; the GB/s path bench_io measures).  Dictionary-backed rows are
  /// expanded by a parallel scatter of the decoded unique stream.
  [[nodiscard]] nw::graph::adjacency<> materialize(
      par::thread_pool& pool = par::thread_pool::default_pool()) const {
    NWOBS_SCOPE_TIMER("io.decode");
    const std::uint64_t          nv = targets_.num_values();
    std::vector<nw::vertex_id_t> stored(nv);
    par::parallel_for(
        0, targets_.num_blocks(),
        [&](std::size_t b) {
          targets_.decode_block(b, stored.data() + b * std::uint64_t{targets_.block_size()});
          NWOBS_COUNT("csr.decode_blocks", 1);
        },
        par::blocked{}, pool);
    check_bound(stored);
    std::vector<nw::offset_t> idx(idx_.begin(), idx_.end());
    if (!has_dictionary()) {
      return nw::graph::adjacency<>::from_csr_vectors(std::move(idx), std::move(stored), size());
    }
    std::vector<nw::vertex_id_t> tgt(num_edges());
    par::parallel_for(
        0, size(),
        [&](std::size_t u) {
          const auto r = refs_[u];
          std::memcpy(tgt.data() + idx_[u], stored.data() + dict_idx_[r],
                      (dict_idx_[r + 1] - dict_idx_[r]) * sizeof(nw::vertex_id_t));
        },
        par::blocked{}, pool);
    return nw::graph::adjacency<>::from_csr_vectors(std::move(idx), std::move(tgt), size());
  }

private:
  /// Stored (possibly dictionary-shared) value range backing row `u`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> stored_range(std::size_t u) const {
    if (!has_dictionary()) return {idx_[u], idx_[u + 1]};
    const auto r = refs_[u];
    return {dict_idx_[r], dict_idx_[r + 1]};
  }

  void check_bound(std::span<const nw::vertex_id_t> vals) const {
    for (auto v : vals) {
      if (v >= target_bound_) {
        throw io_error(
            "NWHYCSR2 compressed targets decode to ids outside the opposite partition", origin_,
            0, 0);
      }
    }
  }

  void decode_block_checked(std::uint64_t b, std::vector<nw::vertex_id_t>& out) const {
    out.resize(targets_.block_values(b));
    targets_.decode_block(b, out.data());
    NWOBS_COUNT("csr.decode_blocks", 1);
    check_bound(out);
    // contains() steers on the per-block min/max, so any block it decodes
    // must have *exact* metadata: a forged pair that widened the range
    // (and so failed to divert the probe) dies here with io_error instead
    // of letting stream-mode queries silently diverge from a materialized
    // load.  (A pair narrowed around a skipped block is caught by the
    // section checksum — mandatory on the streamed reader, opt-in on
    // mmap — and can at worst suppress a match, never break safety.)
    if (!out.empty()) {
      const auto [mn, mx]       = targets_.block_min_max(b);
      const auto [lo_it, hi_it] = std::minmax_element(out.begin(), out.end());
      if (*lo_it != mn || *hi_it != mx) {
        throw io_error("NWHYCSR2 compressed targets block " + std::to_string(b) +
                           " min/max metadata disagrees with its decoded values",
                       origin_, 0, 0);
      }
    }
  }

  // ---- per-thread row cache ----------------------------------------------
  //
  // Keyed (instance, stored-row-range): threads never share decode scratch
  // (TSan-clean by construction), eviction on one structure cannot
  // invalidate rows of another, and dictionary-duplicate rows hit the same
  // cache entry.  The per-thread footprint is bounded: at most
  // `max_cached_instances` instances x `row_cache_ways` rows, all
  // keep-capacity.  That bound is part of the public lifetime contract
  // (see the class comment): touching a 9th instance on one thread evicts
  // an entire instance_cache, destroying the vectors any of its published
  // spans point into.
  struct row_slot {
    std::uint64_t                lo = 0, hi = 0;
    bool                         valid = false;
    std::uint64_t                stamp = 0;
    std::vector<nw::vertex_id_t> values;
    std::vector<nw::vertex_id_t> block_buf;
  };
  struct instance_cache {
    std::uint64_t                          instance = 0;
    std::uint64_t                          stamp    = 0;
    std::array<row_slot, row_cache_ways>   slots;
    std::vector<nw::vertex_id_t>           block_scratch;  // for contains()
  };
  static constexpr std::size_t max_cached_instances = 8;

  static std::uint64_t next_instance_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] instance_cache& my_cache() const {
    thread_local std::vector<instance_cache> caches;
    thread_local std::uint64_t               clock = 0;
    ++clock;
    for (auto& c : caches) {
      if (c.instance == instance_) {
        c.stamp = clock;
        return c;
      }
    }
    if (caches.size() < max_cached_instances) {
      caches.emplace_back();
    } else {
      // Evict the least-recently-used instance wholesale (stale instances
      // of destroyed views age out here too).
      std::size_t victim = 0;
      for (std::size_t i = 1; i < caches.size(); ++i) {
        if (caches[i].stamp < caches[victim].stamp) victim = i;
      }
      caches[victim] = instance_cache{};
      return init_cache(caches[victim], clock);
    }
    return init_cache(caches.back(), clock);
  }

  instance_cache& init_cache(instance_cache& c, std::uint64_t clock) const {
    c.instance = instance_;
    c.stamp    = clock;
    return c;
  }

  [[nodiscard]] std::vector<nw::vertex_id_t>& block_scratch() const {
    return my_cache().block_scratch;
  }

  [[nodiscard]] row_slot& cache_slot(std::size_t u) const {
    auto& cache          = my_cache();
    const auto [lo, hi]  = stored_range(u);
    row_slot* lru        = &cache.slots[0];
    for (auto& s : cache.slots) {
      if (s.valid && s.lo == lo && s.hi == hi) {
        s.stamp = ++cache.stamp;
        return s;
      }
      if (s.stamp < lru->stamp) lru = &s;
    }
    decode_range(lo, hi, *lru);
    lru->stamp = ++cache.stamp;
    return *lru;
  }

  /// Decode stored range [lo, hi) block-wise into the slot's keep-capacity
  /// buffers and bound-check the result.
  void decode_range(std::uint64_t lo, std::uint64_t hi, row_slot& slot) const {
    slot.valid = false;
    slot.values.resize(hi - lo);
    if (lo != hi) {
      const std::uint32_t bs  = targets_.block_size();
      std::uint64_t       out = 0;
      for (std::uint64_t b = lo / bs, b_end = (hi - 1) / bs; b <= b_end; ++b) {
        const std::uint64_t b_lo = b * bs;
        const std::uint64_t take_lo = std::max(lo, b_lo);
        const std::uint64_t take_hi = std::min<std::uint64_t>(hi, b_lo + targets_.block_values(b));
        if (take_lo == b_lo && take_hi == b_lo + targets_.block_values(b)) {
          // Row covers the whole block: decode straight into the row buffer.
          targets_.decode_block(b, slot.values.data() + out);
          NWOBS_COUNT("csr.decode_blocks", 1);
        } else {
          slot.block_buf.resize(targets_.block_values(b));
          targets_.decode_block(b, slot.block_buf.data());
          NWOBS_COUNT("csr.decode_blocks", 1);
          std::memcpy(slot.values.data() + out, slot.block_buf.data() + (take_lo - b_lo),
                      (take_hi - take_lo) * sizeof(nw::vertex_id_t));
        }
        out += take_hi - take_lo;
      }
      check_bound(slot.values);
    }
    slot.lo    = lo;
    slot.hi    = hi;
    slot.valid = true;
  }

  std::span<const nw::offset_t>    idx_;
  std::span<const nw::vertex_id_t> refs_;      ///< empty unless dictionary-backed
  std::span<const nw::offset_t>    dict_idx_;  ///< empty unless dictionary-backed
  compressed_targets               targets_;
  std::uint64_t                    target_bound_ = 0;
  std::string                      origin_;
  std::shared_ptr<const void>      keepalive_;
  std::uint64_t                    instance_ = 0;
};

}  // namespace nw::hypergraph
