// nwutil/atomics.hpp
//
// Lock-free helper operations on plain arrays, in the style used by GAPBS
// and Ligra-family frameworks: algorithms keep results in cache-friendly
// std::vector<T> and touch elements through these helpers only at the
// (rare) contended writes.
//
// All helpers use std::atomic_ref (C++20), so the underlying storage stays
// a plain vector and sequential readers pay nothing.
#pragma once

#include <atomic>

#include "nwutil/defs.hpp"

namespace nw {

/// Atomically set `*loc = min(*loc, value)`.  Returns true if the stored
/// value was updated (i.e. `value` was strictly smaller).
template <class T>
bool write_min(T& loc, T value) {
  std::atomic_ref<T> ref(loc);
  T                  observed = ref.load(std::memory_order_relaxed);
  while (value < observed) {
    if (ref.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Atomically set `*loc = max(*loc, value)`.  Returns true on update.
template <class T>
bool write_max(T& loc, T value) {
  std::atomic_ref<T> ref(loc);
  T                  observed = ref.load(std::memory_order_relaxed);
  while (value > observed) {
    if (ref.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Single-shot CAS from `expected` to `desired`; the BFS parent-claim idiom.
template <class T>
bool compare_and_swap(T& loc, T expected, T desired) {
  std::atomic_ref<T> ref(loc);
  return ref.compare_exchange_strong(expected, desired, std::memory_order_relaxed);
}

/// Relaxed atomic fetch-add on a plain integer slot.
template <class T>
T fetch_add(T& loc, T delta) {
  std::atomic_ref<T> ref(loc);
  return ref.fetch_add(delta, std::memory_order_relaxed);
}

/// Relaxed atomic load of a plain slot (for cross-thread visibility in
/// label-propagation style loops).
template <class T>
T atomic_load(const T& loc) {
  std::atomic_ref<const T> ref(loc);
  return ref.load(std::memory_order_relaxed);
}

/// Relaxed atomic store.
template <class T>
void atomic_store(T& loc, T value) {
  std::atomic_ref<T> ref(loc);
  ref.store(value, std::memory_order_relaxed);
}

/// Claim a still-unset (null_vertex) slot by CAS to `value`; the claim of
/// every level-synchronous traversal (parent, level or label arrays).  The
/// relaxed load first skips the CAS on slots already taken.
inline bool claim_unset(vertex_id_t& loc, vertex_id_t value) {
  return atomic_load(loc) == null_vertex<> && compare_and_swap(loc, null_vertex<>, value);
}

}  // namespace nw
