// nwpar/frontier.hpp
//
// par::frontier — the unified sparse-list / dense-bitmap frontier engine
// behind every BFS-style traversal in the framework (graph BFS on the
// adjoin form, HyperBFS on the bipartite form, the Hygra comparator's
// vertex subsets, and the implicit s-BFS/s-CC loops).
//
// A frontier is a subset of a fixed universe [0, n) held in one of two
// representations:
//
//   sparse — a vector of member ids (top-down expansion iterates it)
//   dense  — a bitmap (bottom-up expansion probes it)
//
// with *parallel* conversions between them:
//
//   sparse -> dense   parallel word-clear + parallel atomic bit scatter
//   dense  -> sparse  per-word popcount -> parallel exclusive scan ->
//                     per-word bit scatter (ids come out sorted)
//
// and a *fused scout count*: traversal steps emit the next frontier through
// per-thread buffers and accumulate its out-degree sum per thread at the
// same time (GAPBS/Beamer style), so the direction-optimizing alpha test
// never needs a separate O(|frontier|) degree pass.
//
// Everything is keep-capacity: the id vector, the bitmap words, the
// per-thread emission buffers, and the per-word scratch all retain their
// allocations across levels (and across BFS runs when the frontier object
// is reused), so a traversal allocates only while growing to its high-water
// mark.  push_step / pull_step, at the end, advance a traversal one level.
#pragma once

#include <atomic>
#include <bit>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/cancel.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/bitmap.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"

namespace nw::par {

namespace detail {

/// Positive-integer environment knob with a fallback.  Strict parse: junk,
/// trailing characters, zero, negatives and overflow warn once and keep the
/// fallback (std::atol used to truncate "20x" to 20 and overflow into UB).
inline std::size_t env_knob(const char* name, std::size_t fallback) {
  return static_cast<std::size_t>(nw::util::env_u64_strict(name, fallback, 1));
}

}  // namespace detail

/// Direction-optimizing BFS switch parameters (Beamer et al.): go bottom-up
/// when scout_count * alpha > edges_remaining, back to top-down when the
/// frontier shrinks below |V| / beta.  Overridable per process via the
/// NWHY_BFS_ALPHA / NWHY_BFS_BETA environment variables (read once).
inline std::size_t bfs_alpha() {
  static const std::size_t a = detail::env_knob("NWHY_BFS_ALPHA", 15);
  return a;
}

inline std::size_t bfs_beta() {
  static const std::size_t b = detail::env_knob("NWHY_BFS_BETA", 18);
  return b;
}

// --- parallel bitmap primitives --------------------------------------------
//
// Word-granular, pool-parallel versions of bitmap::clear / count plus the
// two conversions.  These are free functions (not bitmap members) so
// nwutil stays dependency-free below nwpar.

/// Parallel zero of every word.
inline void bitmap_clear(nw::bitmap& bm, thread_pool& pool = thread_pool::default_pool()) {
  parallel_for(
      0, bm.num_words(), [&](std::size_t w) { bm.set_word(w, 0); }, static_blocked{}, pool);
}

/// Parallel population count (word popcounts folded by parallel_reduce).
inline std::size_t bitmap_count(const nw::bitmap& bm,
                                thread_pool&      pool = thread_pool::default_pool()) {
  return parallel_reduce(
      0, bm.num_words(), std::size_t{0},
      [&](std::size_t acc, std::size_t w) {
        return acc + static_cast<std::size_t>(std::popcount(bm.word(w)));
      },
      [](std::size_t a, std::size_t b) { return a + b; }, pool);
}

/// sparse -> dense: parallel clear + parallel atomic scatter of `ids`.
/// The bitmap must already be sized to the universe.
inline void bitmap_fill_from(nw::bitmap& bm, const std::vector<vertex_id_t>& ids,
                             thread_pool& pool = thread_pool::default_pool()) {
  bitmap_clear(bm, pool);
  parallel_for(
      0, ids.size(), [&](std::size_t i) { bm.set_atomic(ids[i]); }, blocked{}, pool);
}

/// dense -> sparse: per-word popcount, parallel exclusive scan of the word
/// counts, then a parallel per-word scatter of set-bit indices.  `out` is
/// resized to the member count (ids come out in increasing order);
/// `word_scratch` is caller-owned keep-capacity scratch.  Returns the count.
inline std::size_t bitmap_to_sparse(const nw::bitmap& bm, std::vector<vertex_id_t>& out,
                                    std::vector<std::size_t>& word_scratch,
                                    thread_pool&              pool = thread_pool::default_pool()) {
  const std::size_t nwords = bm.num_words();
  word_scratch.resize(nwords);
  parallel_for(
      0, nwords,
      [&](std::size_t w) {
        word_scratch[w] = static_cast<std::size_t>(std::popcount(bm.word(w)));
      },
      static_blocked{}, pool);
  const std::size_t total = parallel_exclusive_scan(word_scratch, pool);
  out.resize(total);
  parallel_for(
      0, nwords,
      [&](std::size_t w) {
        std::uint64_t bits = bm.word(w);
        std::size_t   pos  = word_scratch[w];
        while (bits != 0) {
          unsigned b = static_cast<unsigned>(std::countr_zero(bits));
          out[pos++] = static_cast<vertex_id_t>(w * nw::bitmap::word_bits + b);
          bits &= bits - 1;
        }
      },
      static_blocked{}, pool);
  return total;
}

/// Convenience overload with internal scratch (tests, one-shot callers).
inline std::size_t bitmap_to_sparse(const nw::bitmap& bm, std::vector<vertex_id_t>& out,
                                    thread_pool& pool = thread_pool::default_pool()) {
  std::vector<std::size_t> scratch;
  return bitmap_to_sparse(bm, out, scratch, pool);
}

// --- the hybrid frontier ----------------------------------------------------

class frontier {
public:
  explicit frontier(std::size_t universe = 0, thread_pool& pool = thread_pool::default_pool())
      : pool_(&pool), emit_(pool), scout_(pool), added_(pool) {
    init(universe);
  }

  /// Keep-capacity reset to an empty sparse frontier over [0, universe).
  void init(std::size_t universe) {
    universe_   = universe;
    size_       = 0;
    ids_.clear();
    ids_valid_  = true;
    bits_valid_ = false;
  }

  // --- queries ---------------------------------------------------------------

  [[nodiscard]] std::size_t universe_size() const { return universe_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool        empty() const { return size_ == 0; }
  [[nodiscard]] bool        has_sparse() const { return ids_valid_; }
  [[nodiscard]] bool        has_dense() const { return bits_valid_; }

  /// Frontier density in parts-per-thousand (observability gauge fodder).
  [[nodiscard]] std::size_t density_permille() const {
    return universe_ == 0 ? 0 : size_ * 1000 / universe_;
  }

  // --- building --------------------------------------------------------------

  /// Reset to the single-member frontier {v} (keep-capacity).
  void assign_single(vertex_id_t v) {
    ids_.clear();
    ids_.push_back(v);
    size_       = 1;
    ids_valid_  = true;
    bits_valid_ = false;
  }

  /// Take ownership of a sparse id list.
  void assign(std::vector<vertex_id_t> ids) {
    ids_        = std::move(ids);
    size_       = ids_.size();
    ids_valid_  = true;
    bits_valid_ = false;
  }

  // --- representations (parallel conversion on demand) -----------------------

  /// Sparse view; converts dense -> sparse in parallel when needed.
  const std::vector<vertex_id_t>& ids() {
    if (!ids_valid_) sparsify();
    return ids_;
  }

  /// Dense view; converts sparse -> dense in parallel when needed.
  const nw::bitmap& bits() {
    if (!bits_valid_) densify();
    return bits_;
  }

  /// Force the dense representation (parallel clear + atomic scatter).
  void densify() {
    if (bits_valid_) return;
    NWOBS_SCOPE_TIMER("frontier.densify");
    ensure_bits();
    parallel_for(
        0, ids_.size(), [&](std::size_t i) { bits_.set_atomic(ids_[i]); }, blocked{}, *pool_);
    bits_valid_ = true;
  }

  /// Force the sparse representation (popcount + scan + scatter).
  void sparsify() {
    if (ids_valid_) return;
    NWOBS_SCOPE_TIMER("frontier.sparsify");
    size_      = bitmap_to_sparse(bits_, ids_, word_scratch_, *pool_);
    ids_valid_ = true;
  }

  // --- per-thread sparse emission (top-down steps) ---------------------------

  /// Emit `v` into this frontier from worker `tid` and fuse its out-degree
  /// into the scout accumulator — the GAPBS trick that replaces the
  /// separate per-level degree pass.
  void emit(unsigned tid, vertex_id_t v, std::size_t degree) {
    emit_.local(tid).push_back(v);
    scout_.local(tid) += degree;
  }

  /// Gather all per-thread emissions into the sparse representation
  /// (parallel block-copy merge; emission buffers keep capacity).
  /// Returns the new frontier size.
  std::size_t commit_sparse() {
    size_       = merge_thread_vectors_into(ids_, emit_, merge_capacity::keep, *pool_);
    ids_valid_  = true;
    bits_valid_ = false;
    return size_;
  }

  // --- per-thread dense emission (bottom-up steps) ---------------------------

  /// Prepare for dense emission: bitmap sized to the universe and zeroed in
  /// parallel, per-thread added counters reset.
  void begin_dense() {
    ensure_bits();
    added_.for_each([](std::size_t& a) { a = 0; });
  }

  /// Set bit `v` (atomic), counting it toward this frontier's size and its
  /// degree toward the scout accumulator.  Only a 0->1 flip counts, so
  /// emitting the same vertex twice in one dense step cannot inflate the
  /// committed size or the scout count.
  void emit_dense(unsigned tid, vertex_id_t v, std::size_t degree) {
    if (bits_.set_atomic(v)) {
      ++added_.local(tid);
      scout_.local(tid) += degree;
    }
  }

  /// Finish dense emission: folds the per-thread added counters into the
  /// frontier size.  Returns the new frontier size.
  std::size_t commit_dense() {
    std::size_t total = 0;
    added_.for_each([&](std::size_t& a) {
      total += a;
      a = 0;
    });
    size_       = total;
    bits_valid_ = true;
    ids_valid_  = false;
    return size_;
  }

  /// Drain the fused scout accumulator: the out-degree sum of everything
  /// emitted (sparse or dense) since the previous take_scout().
  std::size_t take_scout() {
    std::size_t total = 0;
    scout_.for_each([&](std::size_t& s) {
      total += s;
      s = 0;
    });
    return total;
  }

  /// Swap membership state with `o` (the level-loop `frontier.swap(next)`
  /// idiom).  Per-thread emission buffers stay put — they are empty between
  /// steps and their capacities are per-object warm state.
  void swap(frontier& o) noexcept {
    std::swap(universe_, o.universe_);
    std::swap(size_, o.size_);
    std::swap(ids_valid_, o.ids_valid_);
    std::swap(bits_valid_, o.bits_valid_);
    ids_.swap(o.ids_);
    bits_.swap(o.bits_);
    word_scratch_.swap(o.word_scratch_);
  }

private:
  /// Bitmap sized to the universe and zeroed, reusing capacity.
  void ensure_bits() {
    if (bits_.size() != universe_) {
      bits_.resize(universe_);  // keep-capacity zeroing resize
    } else {
      bitmap_clear(bits_, *pool_);
    }
  }

  thread_pool* pool_;
  std::size_t  universe_ = 0;
  std::size_t  size_     = 0;
  bool         ids_valid_  = true;
  bool         bits_valid_ = false;

  std::vector<vertex_id_t> ids_;
  nw::bitmap               bits_;
  std::vector<std::size_t> word_scratch_;  // per-word counts for sparsify

  per_thread<std::vector<vertex_id_t>> emit_;   // sparse emission buffers
  per_thread<std::size_t>              scout_;  // fused degree-sum slots
  per_thread<std::size_t>              added_;  // dense emission counters
};

// --- the level step ---------------------------------------------------------
//
// One level of a level-synchronous traversal; every BFS-shaped engine is a
// loop of these steps that records its own named counters from the stats
// (nwobs caches one counter per call site).  The engine supplies:
//
//   rows(tid, u, visit)  visit(v) for each neighbour v of u, in row order,
//                        until visit returns false (push never stops a row,
//                        so a push-only generator may ignore the return);
//                        `tid` indexes per-thread scratch
//   claim(u, v)          the CAS on parent, level or label (true = v joins
//                        `next`); pull's settle(u, v) writes without a CAS
//   weight(v)            v's scout weight: its degree in the rows it
//                        expands through next

/// What one level step reports back to its engine.
struct step_stats {
  std::size_t added   = 0;      ///< vertices claimed into the next frontier
  std::size_t scanned = 0;      ///< row entries examined
  std::size_t scout   = 0;      ///< weight sum of the next frontier
  bool        hit     = false;  ///< push: the target was claimed
};

/// Scout weight of an engine without a direction switch.
struct no_weight {
  constexpr std::size_t operator()(vertex_id_t) const noexcept { return 0; }
};

/// Push (top-down) step: the members of the sparse `front` expand their
/// rows in parallel and emit what they claim into `next` (sparse).  When
/// `target` (null_vertex = none) is claimed, the frontier vertices not yet
/// started are skipped and the step reports `hit`.  `stop` is polled once
/// per frontier vertex; a fired poll skips the rest of the frontier and
/// throws par::cancelled here, on the calling thread.
template <class Rows, class Claim, class Weight, class Stop>
step_stats push_step(frontier& front, frontier& next, const Rows& rows, const Claim& claim,
                     const Weight& weight, vertex_id_t target, Stop&& stop, thread_pool& pool) {
  const auto&                               ids = front.ids();
  per_thread<std::size_t>                   scanned(pool);
  std::atomic<bool>                         hit{false};
  stop_latch<std::remove_reference_t<Stop>> halt(stop);
  parallel_for(
      0, ids.size(),
      [&](unsigned tid, std::size_t i) {
        if (hit.load(std::memory_order_relaxed) || halt.poll()) return;
        const vertex_id_t u     = ids[i];
        std::size_t       local = 0;
        rows(tid, u, [&](vertex_id_t v) {
          ++local;
          if (claim(u, v)) {
            if (v == target) hit.store(true, std::memory_order_relaxed);
            next.emit(tid, v, weight(v));
          }
          return true;
        });
        scanned.local(tid) += local;
      },
      blocked{}, pool);
  halt.throw_if_fired();
  std::size_t total = 0;
  scanned.for_each([&](std::size_t& s) { total += s; });
  return {next.commit_sparse(), total, next.take_scout(), hit.load()};
}

/// Pull (bottom-up) step: every vertex v of `next`'s universe for which
/// `unvisited(v)` holds scans its row for a member u of `front`'s bitmap;
/// the first one it meets settles v (settle(u, v): a plain write, since v
/// has no other writer) into `next`'s bitmap.  `stop` is polled once, on
/// the calling thread, before the sweep.
template <class Rows, class Unvisited, class Settle, class Weight, class Stop>
step_stats pull_step(frontier& front, frontier& next, const Rows& rows,
                     const Unvisited& unvisited, const Settle& settle, const Weight& weight,
                     Stop&& stop, thread_pool& pool) {
  if (stop()) throw cancelled{};
  const nw::bitmap& fb = front.bits();
  next.begin_dense();
  per_thread<std::size_t> scanned(pool);
  parallel_for(
      0, next.universe_size(),
      [&](unsigned tid, std::size_t i) {
        const auto v = static_cast<vertex_id_t>(i);
        if (!unvisited(v)) return;
        std::size_t local = 0;
        rows(tid, v, [&](vertex_id_t u) {
          ++local;
          if (!fb.get(u)) return true;
          settle(u, v);
          next.emit_dense(tid, v, weight(v));
          return false;
        });
        scanned.local(tid) += local;
      },
      blocked{}, pool);
  std::size_t total = 0;
  scanned.for_each([&](std::size_t& s) { total += s; });
  return {next.commit_dense(), total, next.take_scout(), false};
}

}  // namespace nw::par
