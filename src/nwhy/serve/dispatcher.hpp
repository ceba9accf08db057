// nwhy/serve/dispatcher.hpp
//
// The server's execution engine: a fixed worker pool fed by a bounded
// admission queue, socket-agnostic (completion is a callback, so the same
// dispatcher serves TCP, Unix-socket, and in-process test traffic).
//
// Admission policy, in the order a request experiences it:
//
//   1. Bounded queue.  `submit()` refuses (returns false) when the queue is
//      at capacity — the caller replies status::busy immediately.  An
//      explicit early EBUSY beats silent unbounded queueing: under overload
//      clients see backpressure in microseconds instead of timeouts in
//      seconds, and memory stays bounded.
//   2. Deadline at dequeue.  Work whose deadline passed while queued is
//      answered deadline_exceeded without executing — a request that waited
//      too long is dead; running it anyway would only steal time from live
//      ones.  Mid-execution, kernels poll the same token at frontier
//      boundaries (see query.hpp).
//   3. Coalescing.  Identical pure queries (same opcode + payload bytes +
//      generation epoch) collapse: the first becomes the leader and
//      executes; duplicates arriving while it runs become followers that
//      wait on the leader's completion and share its reply bytes.  The
//      epoch in the key makes coalescing safe across generation swaps — a
//      query pinned to the old generation can never be answered with the
//      new one's result.  Followers are only ever joined to a *running*
//      leader, so the wait cannot deadlock: the leader occupies a different
//      worker and always completes.
//
// Metrics flow through nwobs (per-opcode request counters, busy/deadline/
// coalesce counters, peak queue depth) plus an in-dispatcher latency ring
// from which `snapshot()` derives p50/p99 and QPS.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nwhy/serve/query.hpp"
#include "nwobs/counters.hpp"
#include "nwutil/env.hpp"

namespace nw::hypergraph::serve {

/// Point-in-time dispatcher statistics (micros for latencies; QPS measured
/// over the dispatcher's lifetime).
struct dispatch_metrics {
  std::uint64_t completed         = 0;
  std::uint64_t rejected_busy     = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t coalesced         = 0;
  std::uint64_t queue_depth_peak  = 0;
  double        qps               = 0.0;
  double        p50_us            = 0.0;
  double        p99_us            = 0.0;
};

class dispatcher {
public:
  using completion_fn = std::function<void(reply_data)>;

  struct options {
    /// Worker count; 0 = NWHY_SERVE_THREADS, else hardware_concurrency.
    unsigned threads = 0;
    /// Admission-queue capacity; 0 = NWHY_SERVE_QUEUE, else 1024.
    std::size_t queue_capacity = 0;
  };

  dispatcher() : dispatcher(options{}) {}

  explicit dispatcher(options opt) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    threads_ = opt.threads != 0
                   ? opt.threads
                   : static_cast<unsigned>(nw::util::env_u64_strict("NWHY_SERVE_THREADS", hw,
                                                                    1, 4096));
    capacity_ = opt.queue_capacity != 0
                    ? opt.queue_capacity
                    : static_cast<std::size_t>(nw::util::env_u64_strict("NWHY_SERVE_QUEUE",
                                                                        1024, 1, 1u << 20));
#if NWHY_OBS
    // Resolve every per-opcode counter up front: worker threads then only
    // touch their own padded slot (no lazy-init race, no registry lock on
    // the request path).
    for (std::size_t i = 0; i < k_num_op_counters; ++i) {
      counters_[i] = &nw::obs::registry::get().get_counter(k_op_counter_names[i]);
    }
#endif
    for (unsigned t = 0; t < threads_; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  dispatcher(const dispatcher&)            = delete;
  dispatcher& operator=(const dispatcher&) = delete;
  ~dispatcher() { stop(); }

  [[nodiscard]] unsigned    num_threads() const { return threads_; }
  [[nodiscard]] std::size_t queue_capacity() const { return capacity_; }

  /// Enqueue one request.  `graph` may be null for non-graph ops
  /// (sleep_debug).  Returns false when the queue is full or the dispatcher
  /// is stopping — the caller must send the busy / shutting_down reply
  /// itself (submit never invokes `done` on refusal, keeping the
  /// completion path single-threaded per connection).
  [[nodiscard]] bool submit(std::shared_ptr<const serve_graph> graph, opcode op,
                            std::vector<std::uint8_t> payload, deadline_token dl,
                            completion_fn done) {
    work_item item;
    item.graph    = std::move(graph);
    item.op       = op;
    item.payload  = std::move(payload);
    item.deadline = dl;
    item.done     = std::move(done);
    item.enqueued = std::chrono::steady_clock::now();
    {
      std::lock_guard lock(queue_mu_);
      if (stopping_ || queue_.size() >= capacity_) {
        rejected_busy_.fetch_add(1, std::memory_order_relaxed);
        NWOBS_COUNT("serve.rejected_busy", 1);
        return false;
      }
      queue_.push_back(std::move(item));
      NWOBS_GAUGE_MAX("serve.queue_depth_peak", queue_.size());
      std::uint64_t depth = queue_.size();
      std::uint64_t peak  = queue_peak_.load(std::memory_order_relaxed);
      while (depth > peak &&
             !queue_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
      }
    }
    queue_cv_.notify_one();
    return true;
  }

  /// Stop accepting work, answer everything still queued with
  /// shutting_down, finish in-flight work, join the pool.  Idempotent.
  void stop() {
    {
      std::lock_guard lock(queue_mu_);
      if (stopping_) {
        // Second caller: workers are already draining; fall through to join.
      }
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    // Anything still queued (workers exited before draining it) gets a
    // structured refusal rather than silence.
    std::deque<work_item> leftovers;
    {
      std::lock_guard lock(queue_mu_);
      leftovers.swap(queue_);
    }
    for (auto& item : leftovers) {
      item.done(error_reply(status::shutting_down, "server stopping"));
    }
  }

  /// Current metrics; also mirrors the derived latency gauges into nwobs so
  /// profile exports carry them.
  [[nodiscard]] dispatch_metrics snapshot() const {
    dispatch_metrics m;
    m.completed         = completed_.load(std::memory_order_relaxed);
    m.rejected_busy     = rejected_busy_.load(std::memory_order_relaxed);
    m.deadline_exceeded = deadlines_.load(std::memory_order_relaxed);
    m.coalesced         = coalesced_.load(std::memory_order_relaxed);
    m.queue_depth_peak  = queue_peak_.load(std::memory_order_relaxed);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
    if (elapsed_s > 0) m.qps = static_cast<double>(m.completed) / elapsed_s;

    std::vector<std::uint32_t> lat;
    {
      std::lock_guard lock(ring_mu_);
      lat.assign(ring_.begin(), ring_.end());
    }
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      m.p50_us = lat[lat.size() / 2];
      m.p99_us = lat[std::min(lat.size() - 1, (lat.size() * 99) / 100)];
    }
    NWOBS_GAUGE_SET("serve.latency_p50_us", static_cast<std::uint64_t>(m.p50_us));
    NWOBS_GAUGE_SET("serve.latency_p99_us", static_cast<std::uint64_t>(m.p99_us));
    return m;
  }

private:
  struct work_item {
    std::shared_ptr<const serve_graph>    graph;
    opcode                                op = opcode::ping;
    std::vector<std::uint8_t>             payload;
    deadline_token                        deadline;
    completion_fn                         done;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Shared completion state for one coalesced leader + its followers.
  struct inflight {
    std::mutex              mu;
    std::condition_variable cv;
    bool                    finished = false;
    reply_data              reply;
  };

  /// Only deterministic graph reads coalesce; debug/control ops never do.
  [[nodiscard]] static bool coalescable(opcode op) {
    switch (op) {
      case opcode::stats:
      case opcode::neighbors:
      case opcode::s_distance:
      case opcode::bfs:
      case opcode::s_components:
      case opcode::centrality:
        return true;
      default:
        return false;
    }
  }

  /// Identical queries hash to the same key only within one generation —
  /// the epoch prefix is what makes a swap-concurrent duplicate miss.
  [[nodiscard]] static std::string coalesce_key(const work_item& item) {
    std::string key;
    key.reserve(2 + 8 + item.payload.size());
    key.push_back(static_cast<char>(static_cast<std::uint16_t>(item.op)));
    key.push_back(static_cast<char>(static_cast<std::uint16_t>(item.op) >> 8));
    const std::uint64_t epoch = item.graph ? item.graph->epoch : 0;
    for (int i = 0; i < 8; ++i) key.push_back(static_cast<char>(epoch >> (8 * i)));
    key.append(item.payload.begin(), item.payload.end());
    return key;
  }

  static constexpr std::size_t      k_num_op_counters = 9;
  static constexpr std::string_view k_op_counter_names[k_num_op_counters] = {
      "serve.req.ping",       "serve.req.stats",       "serve.req.neighbors",
      "serve.req.s_distance", "serve.req.bfs",         "serve.req.s_components",
      "serve.req.centrality", "serve.req.sleep_debug", "serve.req.other",
  };

  void count_request(opcode op) {
    std::size_t idx;
    switch (op) {
      case opcode::ping: idx = 0; break;
      case opcode::stats: idx = 1; break;
      case opcode::neighbors: idx = 2; break;
      case opcode::s_distance: idx = 3; break;
      case opcode::bfs: idx = 4; break;
      case opcode::s_components: idx = 5; break;
      case opcode::centrality: idx = 6; break;
      case opcode::sleep_debug: idx = 7; break;
      default: idx = 8; break;
    }
#if NWHY_OBS
    counters_[idx]->add(1);
#else
    (void)idx;
#endif
  }

  void worker_loop() {
    for (;;) {
      work_item item;
      {
        std::unique_lock lock(queue_mu_);
        queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ && drained
        item = std::move(queue_.front());
        queue_.pop_front();
        if (stopping_) {
          // Draining: refuse instead of executing, so stop() is prompt even
          // with a deep queue of slow queries.
          lock.unlock();
          item.done(error_reply(status::shutting_down, "server stopping"));
          continue;
        }
      }
      count_request(item.op);
      if (item.deadline.expired()) {
        finish(item, error_reply(status::deadline_exceeded, "deadline passed in queue"));
        continue;
      }
      run(std::move(item));
    }
  }

  void run(work_item item) {
    if (!coalescable(item.op)) {
      finish(item, execute(item));
      return;
    }
    const std::string key = coalesce_key(item);
    std::shared_ptr<inflight> state;
    bool                      leader = false;
    {
      std::lock_guard lock(inflight_mu_);
      auto            it = inflight_.find(key);
      if (it != inflight_.end()) {
        state = it->second;
      } else {
        state  = std::make_shared<inflight>();
        leader = true;
        inflight_.emplace(key, state);
      }
    }
    if (leader) {
      reply_data reply = execute(item);
      {
        std::lock_guard lock(inflight_mu_);
        inflight_.erase(key);
      }
      {
        std::lock_guard lock(state->mu);
        state->reply    = reply;  // copy: followers still need it
        state->finished = true;
      }
      state->cv.notify_all();
      finish(item, std::move(reply));
    } else {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      NWOBS_COUNT("serve.coalesced", 1);
      std::unique_lock lock(state->mu);
      if (auto when = item.deadline.when()) {
        if (!state->cv.wait_until(lock, *when, [&] { return state->finished; })) {
          lock.unlock();
          finish(item, error_reply(status::deadline_exceeded,
                                   "deadline passed awaiting coalesced leader"));
          return;
        }
      } else {
        state->cv.wait(lock, [&] { return state->finished; });
      }
      reply_data reply = state->reply;
      lock.unlock();
      finish(item, std::move(reply));
    }
  }

  [[nodiscard]] reply_data execute(const work_item& item) {
    if (item.op == opcode::sleep_debug) return run_sleep(item);
    if (!item.graph) return error_reply(status::no_graph, "no generation published");
    return execute_query(*item.graph, item.op, item.payload, item.deadline);
  }

  /// Debug-only busy worker: sleeps in short slices so a deadline still
  /// cancels promptly (the test-suite's stand-in for a pathologically slow
  /// query).
  [[nodiscard]] reply_data run_sleep(const work_item& item) {
    wire_reader   r(item.payload);
    std::uint64_t millis = 0;
    try {
      millis = r.u64();
      r.expect_end("sleep_debug");
    } catch (const protocol_error& e) {
      return error_reply(status::bad_frame, e.what());
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(millis);
    while (std::chrono::steady_clock::now() < until) {
      if (item.deadline.expired()) {
        return error_reply(status::deadline_exceeded, "deadline exceeded mid-sleep");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return {status::ok, {}};
  }

  void finish(const work_item& item, reply_data reply) {
    if (reply.st == status::deadline_exceeded) {
      deadlines_.fetch_add(1, std::memory_order_relaxed);
      NWOBS_COUNT("serve.deadline_exceeded", 1);
    }
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - item.enqueued)
                            .count();
    {
      std::lock_guard lock(ring_mu_);
      if (ring_.size() < k_ring_capacity) {
        ring_.push_back(static_cast<std::uint32_t>(std::min<long long>(micros, UINT32_MAX)));
      } else {
        ring_[ring_next_++ % k_ring_capacity] =
            static_cast<std::uint32_t>(std::min<long long>(micros, UINT32_MAX));
      }
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    item.done(std::move(reply));
  }

  static constexpr std::size_t k_ring_capacity = 4096;

  unsigned                 threads_  = 1;
  std::size_t              capacity_ = 1024;
  std::vector<std::thread> workers_;

  std::mutex              queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<work_item>   queue_;
  bool                    stopping_ = false;

  std::mutex                                                inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<inflight>> inflight_;

  mutable std::mutex         ring_mu_;
  std::vector<std::uint32_t> ring_;
  std::size_t                ring_next_ = 0;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> deadlines_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> queue_peak_{0};

#if NWHY_OBS
  nw::obs::counter* counters_[k_num_op_counters] = {};
#endif

  const std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
};

}  // namespace nw::hypergraph::serve
