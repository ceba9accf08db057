// nwpar/cancel.hpp
//
// Cooperative cancellation for the parallel engines.  An engine takes a
// stop callable (`bool()`, true = stop), polls it at a documented
// granularity, and reports a fired poll by throwing par::cancelled from the
// calling thread.  An exception never leaves a pool worker: a poll that
// fires inside a parallel region only latches a flag, and the calling
// thread throws once the region has joined.
//
// The default hook, never_stop, is a constant false, so the polls of an
// engine called without a hook compile away.
#pragma once

#include <atomic>
#include <exception>
#include <type_traits>

namespace nw::par {

/// Thrown from an engine's calling thread when its stop hook fired.
struct cancelled : std::exception {
  [[nodiscard]] const char* what() const noexcept override { return "nw::par::cancelled"; }
};

/// The default stop hook: never fires.
struct never_stop {
  constexpr bool operator()() const noexcept { return false; }
};

/// One stop hook shared by the workers of a parallel region.  The hook may
/// be called from several workers at once, so it must be thread-safe.
template <class Stop>
class stop_latch {
public:
  explicit stop_latch(Stop& stop) : stop_(stop) {}

  /// True once any worker's poll has fired; the hook is not called again
  /// after that.
  bool poll() {
    if constexpr (std::is_same_v<Stop, never_stop>) {
      return false;
    } else {
      if (fired_.load(std::memory_order_relaxed)) return true;
      if (!stop_()) return false;
      fired_.store(true, std::memory_order_relaxed);
      return true;
    }
  }

  /// Calling thread, after the region joined: throw if any poll fired.
  void throw_if_fired() const {
    if (fired_.load(std::memory_order_relaxed)) throw cancelled{};
  }

private:
  Stop&             stop_;
  std::atomic<bool> fired_{false};
};

}  // namespace nw::par
