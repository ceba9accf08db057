// nwobs/counters.hpp
//
// Lightweight, always-compiled observability counters for the algorithm
// families the paper benchmarks (HyperBFS/AdjoinBFS, s-line-graph
// construction, toplexes).  Design goals, in order:
//
//   1. No atomics on the hot path.  A `counter` owns one cache-line-padded
//      slot per OS thread — the same padded-slot idiom as
//      nw::par::per_thread — and each thread bumps its own slot with a
//      plain add.  Slots are merged only on read.
//   2. Independent of who runs the code.  The slot is a `thread_local`
//      index assigned on a thread's first count, not a pool worker id: two
//      threads that each drive an engine on their own one-context pool both
//      run as worker 0, and must still never share a slot.  A counter
//      carries a fixed slot capacity; threads past it (a process that has
//      started more than slot_capacity counting threads) fall back to one
//      relaxed atomic.
//   3. Compile-time no-op.  Building with -DNWHY_OBS=0 turns every NWOBS_*
//      macro into `((void)0)`: no registry lookups, no slot traffic, no
//      static-init guards — the acceptance bar is < 2% timing delta against
//      the uninstrumented tree.
//
// Naming convention: `family.metric`, e.g. "hyper_bfs.edges_relaxed",
// "slinegraph.candidate_pairs", "toplex.dominance_checks".  The full schema
// is documented in DESIGN.md and pinned by tests/test_nwobs.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "nwutil/defs.hpp"

#ifndef NWHY_OBS
#define NWHY_OBS 1
#endif

namespace nw::obs {

/// This thread's counter slot: assigned once per OS thread, in first-use
/// order, and never reused, so no two threads ever write the same slot.
inline unsigned this_thread_slot() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned  slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Monotonic counter: per-thread padded slots, merged on read.  `add(n)` is
/// wait-free, and atomic-free on threads whose slot is below slot_capacity.
class counter {
public:
  static constexpr unsigned slot_capacity = 128;

  void add(std::uint64_t n = 1) noexcept {
    const unsigned slot = this_thread_slot();
    if (slot < slot_capacity) {
      slots_[slot].v += n;
    } else {
      overflow_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Merged value.  Intended for use outside parallel regions; concurrent
  /// reads see a possibly-stale but tear-free per-slot snapshot on the
  /// platforms we target (aligned 64-bit loads).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = overflow_.load(std::memory_order_relaxed);
    for (const auto& s : slots_) total += s.v;
    return total;
  }

  /// Zero every slot.  Only call when no parallel region is running.
  void reset() noexcept {
    for (auto& s : slots_) s.v = 0;
    overflow_.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) padded {
    std::uint64_t v = 0;
  };
  padded                     slots_[slot_capacity];
  std::atomic<std::uint64_t> overflow_{0};
};

/// Gauge: a single observable value.  `set` overwrites; `observe_max` keeps
/// the running maximum (used for peak frontier / queue occupancy).  Gauges
/// are updated from coordinating code (once per BFS level, once per
/// construction call), so one relaxed atomic is fine.
class gauge {
public:
  void set(std::uint64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void observe_max(std::uint64_t v) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> v_{0};
};

/// Aggregate of one named phase timer (fed by scope_timer).
struct timer_stat {
  std::uint64_t count    = 0;
  double        total_ms = 0.0;
  double        max_ms   = 0.0;
};

/// Process-wide registry of counters, gauges and timers.  Lookup-by-name
/// takes a mutex, but hot call sites cache the returned reference in a
/// function-local static (see NWOBS_COUNT), so the lock is paid once per
/// call site, not per increment.  Counter/gauge objects are never
/// deallocated while the process lives — reset() zeroes them in place so
/// cached references stay valid.
class registry {
public:
  static registry& get() {
    static registry instance;
    return instance;
  }

  counter& get_counter(std::string_view name) {
    std::lock_guard lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), std::make_unique<counter>()).first;
    }
    return *it->second;
  }

  gauge& get_gauge(std::string_view name) {
    std::lock_guard lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_.emplace(std::string(name), std::make_unique<gauge>()).first;
    }
    return *it->second;
  }

  void record_timer(std::string_view name, double elapsed_ms) {
    std::lock_guard lock(mu_);
    auto            it = timers_.find(name);
    if (it == timers_.end()) it = timers_.emplace(std::string(name), timer_stat{}).first;
    timer_stat& t = it->second;
    ++t.count;
    t.total_ms += elapsed_ms;
    if (elapsed_ms > t.max_ms) t.max_ms = elapsed_ms;
  }

  /// Merged snapshot of every counter and gauge (gauges appear alongside
  /// counters: both are scalar metrics, and the profile schema keeps one
  /// `counters` section).  Zero-valued entries are included — a zero is
  /// information ("no direction switch happened").
  [[nodiscard]] std::map<std::string, std::uint64_t> counters_snapshot() const {
    std::lock_guard lock(mu_);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, c] : counters_) out[name] = c->value();
    for (const auto& [name, g] : gauges_) out[name] = g->value();
    return out;
  }

  [[nodiscard]] std::map<std::string, timer_stat> timers_snapshot() const {
    std::lock_guard lock(mu_);
    return {timers_.begin(), timers_.end()};
  }

  /// Register a fact about what shapes this process's measurements, read
  /// by `read()` whenever a profile is written (a higher layer names what
  /// nwobs cannot see, e.g. the SIMD decode path).  reset() keeps it.
  void set_context(std::string_view name, const char* (*read)()) {
    std::lock_guard lock(mu_);
    context_.insert_or_assign(std::string(name), read);
  }

  [[nodiscard]] std::map<std::string, std::string> context_snapshot() const {
    std::lock_guard                    lock(mu_);
    std::map<std::string, std::string> out;
    for (const auto& [name, read] : context_) out[name] = read();
    return out;
  }

  /// Zero all counters/gauges in place and drop timer aggregates.  Cached
  /// counter references remain valid.  Only call outside parallel regions.
  void reset() {
    std::lock_guard lock(mu_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    timers_.clear();
  }

private:
  registry() = default;

  mutable std::mutex                                               mu_;
  std::map<std::string, std::unique_ptr<counter>, std::less<>>     counters_;
  std::map<std::string, std::unique_ptr<gauge>, std::less<>>       gauges_;
  std::map<std::string, timer_stat, std::less<>>                   timers_;
  std::map<std::string, const char* (*)(), std::less<>>            context_;
};

}  // namespace nw::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.  All hot-path call sites go through these so that
// -DNWHY_OBS=0 removes instrumentation entirely at compile time.
// ---------------------------------------------------------------------------
#if NWHY_OBS

/// Add `n` to counter `name`.  The registry lookup happens once per call
/// site (function-local static); the increment itself is a plain add into
/// the calling thread's padded slot.
#define NWOBS_COUNT(name, n)                                                           \
  do {                                                                                 \
    static ::nw::obs::counter& nwobs_counter_ =                                        \
        ::nw::obs::registry::get().get_counter(name);                                  \
    nwobs_counter_.add(static_cast<std::uint64_t>(n));                                 \
  } while (0)

/// Overwrite gauge `name` with `v` (coordinating-thread call sites only).
#define NWOBS_GAUGE_SET(name, v)                                                       \
  do {                                                                                 \
    static ::nw::obs::gauge& nwobs_gauge_ = ::nw::obs::registry::get().get_gauge(name); \
    nwobs_gauge_.set(static_cast<std::uint64_t>(v));                                   \
  } while (0)

/// Raise gauge `name` to at least `v`.
#define NWOBS_GAUGE_MAX(name, v)                                                       \
  do {                                                                                 \
    static ::nw::obs::gauge& nwobs_gauge_ = ::nw::obs::registry::get().get_gauge(name); \
    nwobs_gauge_.observe_max(static_cast<std::uint64_t>(v));                           \
  } while (0)

#else  // NWHY_OBS == 0: every instrumentation site compiles to nothing.

#define NWOBS_COUNT(name, n) ((void)0)
#define NWOBS_GAUGE_SET(name, v) ((void)0)
#define NWOBS_GAUGE_MAX(name, v) ((void)0)

#endif  // NWHY_OBS
