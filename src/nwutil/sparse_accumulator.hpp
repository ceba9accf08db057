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
#pragma once

#include <cstdint>
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
  /// several structures; new slots start empty.
  void ensure_keys(std::size_t n) {
    if (values_.size() >= n) return;
    values_.resize(n, Value{});
    if constexpr (Structural) seen_.resize(n, 0);
  }

  /// Forget the current row: resets only the slots it touched.
  void clear() {
    for (vertex_id_t k : touched_) {
      values_[k] = Value{};
      if constexpr (Structural) seen_[k] = 0;
    }
    touched_.clear();
  }

  /// Add `delta` to `key`'s value, entering the key on first touch.
  void increment(vertex_id_t key, Value delta = Value{1}) {
    NW_DEBUG_ASSERT(key < values_.size(), "sparse_accumulator: key outside ensure_keys range");
    if constexpr (Structural) {
      if (!seen_[key]) {  // the first delta is stored, not added to 0 (keeps -0.0)
        seen_[key] = 1;
        touched_.push_back(key);
        values_[key] = delta;
        return;
      }
    } else {
      NW_DEBUG_ASSERT(delta != Value{}, "sparse_accumulator: a count delta must be nonzero");
      if (values_[key] == Value{}) touched_.push_back(key);
    }
    values_[key] += delta;
  }

  /// Value stored for `key` in the current row, Value{} if untouched.
  [[nodiscard]] Value get(vertex_id_t key) const { return values_[key]; }

  /// Number of distinct keys the current row touched.
  [[nodiscard]] std::size_t size() const { return touched_.size(); }

  /// Visit every touched (key, value) pair in first-touch order; `fn(key, value)`.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (vertex_id_t k : touched_) fn(k, values_[k]);
  }

private:
  std::vector<Value>        values_;
  std::vector<std::uint8_t> seen_;  // Structural only
  std::vector<vertex_id_t>  touched_;
};

}  // namespace nw
