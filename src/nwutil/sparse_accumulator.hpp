// nwutil/sparse_accumulator.hpp
//
// Dense accumulator for one row at a time (Gustavson's sparse accumulator,
// SPA): a value array over the whole key space plus the list of keys the
// current row touched.  The s-overlap kernel (Algorithm 1 and the IPDPS'22
// hashmap algorithm) and the SpGEMM row loop use it the same way: clear,
// a burst of increments keyed by id, then one visit of the touched keys.
// An increment is one indexed add; clear() resets only the touched slots
// and for_each() walks only the touched list, so a row costs what it
// touches, never the size of the key space.
//
// Count mode has no data-dependent branch: about half of an overlap
// count's increments are first touches, and which ones is unpredictable.
// So an increment always writes its key into the touched slot past the
// end and advances the end by (old value == 0), and for_each_at_least
// compacts the keys that pass its threshold the same way before it visits
// them.  The touched and kept arrays are uninitialised, so a thread's
// accumulator commits memory only for the slots its rows actually use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "nwutil/defs.hpp"

namespace nw {

/// Map from key in [0, num_keys()) to a `Value`, holding one row at a time.
/// With the default `Structural = false` (unsigned counts, every delta
/// >= 1) a key is touched once its value is nonzero.  `Structural = true`
/// keeps one flag byte per key instead, so an explicit zero or a sum that
/// cancels still yields its entry (SpGEMM's structural nonzeros).
/// Not thread-safe: each thread owns a private instance.
template <class Value = std::uint32_t, bool Structural = !std::is_unsigned_v<Value>>
class sparse_accumulator {
public:
  sparse_accumulator() = default;
  explicit sparse_accumulator(std::size_t num_keys) { ensure_keys(num_keys); }

  /// Make keys [0, n) valid.  Grows only, so one instance serves rows of
  /// several structures; new slots start empty and the current row stays.
  void ensure_keys(std::size_t n) {
    if (values_.size() >= n) return;
    values_.resize(n, Value{});
    if constexpr (Structural) seen_.resize(n, 0);
    // One spare slot: a count-mode increment stores its key before it
    // knows whether the key is new.
    auto touched = std::make_unique_for_overwrite<vertex_id_t[]>(n + 1);
    std::copy_n(touched_.get(), size_, touched.get());
    touched_ = std::move(touched);
    if constexpr (!Structural) kept_ = std::make_unique_for_overwrite<vertex_id_t[]>(n);
  }

  /// Forget the current row: resets only the slots it touched.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      values_[touched_[i]] = Value{};
      if constexpr (Structural) seen_[touched_[i]] = 0;
    }
    size_ = 0;
  }

  /// Add `delta` to `key`'s value, entering the key on first touch.
  void increment(vertex_id_t key, Value delta = Value{1}) {
    NW_DEBUG_ASSERT(key < values_.size(), "sparse_accumulator: key outside ensure_keys range");
    if constexpr (Structural) {
      if (!seen_[key]) {  // the first delta is stored, not added to 0 (keeps -0.0)
        seen_[key]        = 1;
        touched_[size_++] = key;
        values_[key]      = delta;
        return;
      }
      values_[key] += delta;
    } else {
      NW_DEBUG_ASSERT(delta != Value{}, "sparse_accumulator: a count delta must be nonzero");
      const Value old = values_[key];
      touched_[size_] = key;  // kept only when the key is new
      size_ += static_cast<std::size_t>(old == Value{});
      values_[key] = old + delta;
    }
  }

  /// Value stored for `key` in the current row, Value{} if untouched.
  [[nodiscard]] Value get(vertex_id_t key) const { return values_[key]; }

  /// Number of distinct keys the current row touched.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Visit every touched (key, value) pair in first-touch order; `fn(key, value)`.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(touched_[i], values_[touched_[i]]);
  }

  /// Visit the touched pairs with value >= `t`, in first-touch order;
  /// `fn(key, value)`.  Returns how many were visited.  The keys are
  /// compacted first without a branch, so the visit loop runs only over
  /// the survivors.
  template <class Fn>
  std::size_t for_each_at_least(std::size_t t, Fn&& fn) {
    static_assert(!Structural, "for_each_at_least thresholds counts");
    std::size_t n = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const vertex_id_t k = touched_[i];
      kept_[n]            = k;
      n += static_cast<std::size_t>(values_[k] >= t);
    }
    for (std::size_t i = 0; i < n; ++i) fn(kept_[i], values_[kept_[i]]);
    return n;
  }

private:
  std::vector<Value>             values_;
  std::vector<std::uint8_t>      seen_;     // Structural only
  std::unique_ptr<vertex_id_t[]> touched_;  // [0, size_) in first-touch order, + 1 spare
  std::unique_ptr<vertex_id_t[]> kept_;     // for_each_at_least's survivors (count mode)
  std::size_t                    size_ = 0;
};

}  // namespace nw
