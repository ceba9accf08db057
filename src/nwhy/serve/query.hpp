// nwhy/serve/query.hpp
//
// The server's read-only view of one published hypergraph, and
// execute_query, which answers one request from it.
//
//   * Immutability is the concurrency story.  A `serve_graph` pins one
//     `hypergraph_generation` (CSRs + any mmap'd snapshot bytes behind the
//     io_keepalive) and precomputed degree vectors; nothing in it mutates
//     after construction, so any number of worker threads may execute
//     queries against it with no locks.  Queries run the library engines
//     directly on the generation CSRs, not through `NWHypergraph`, whose
//     lazily built composed-generation cache makes its const calls
//     thread-unsafe.
//
//   * One engine per query.  bfs is hyper_bfs; neighbors, s_distance,
//     s_components and the centralities are the implicit s-line engines
//     (slinegraph/implicit.hpp) and the nw::graph centrality folds.  Each
//     request runs serially, on one shared one-context pool: server
//     parallelism comes from running many requests across the worker pool,
//     and the default pool must not be used here because thread_pool::run
//     is not reentrant and callers run execute_query from their own
//     threads.  A one-context pool runs every job inline on the calling
//     thread and touches no member state, so all workers can share it.
//
// Deadlines: the engines poll the request's deadline_token through their
// stop hook — per frontier vertex in the s-line engines and in hyper_bfs's
// top-down half-steps, once per bottom-up half-step — and throw
// par::cancelled, which execute_query maps to status::deadline_exceeded.
// The hook reads the clock on the first poll and then on every
// k_deadline_poll_stride-th one only, so a frontier vertex does not pay a
// steady_clock read.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "nwgraph/algorithms/closeness.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/serve/protocol.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwpar/cancel.hpp"
#include "nwpar/thread_pool.hpp"

namespace nw::hypergraph::serve {

/// A per-request cancellation point.  Default-constructed = no deadline.
class deadline_token {
public:
  using clock = std::chrono::steady_clock;

  deadline_token() = default;
  explicit deadline_token(clock::time_point when) : when_(when) {}

  [[nodiscard]] bool expired() const { return when_ && clock::now() >= *when_; }

  [[nodiscard]] std::optional<clock::time_point> when() const { return when_; }

private:
  std::optional<clock::time_point> when_;
};

/// execute_query's stop hook reads the clock once per this many polls.
inline constexpr std::uint32_t k_deadline_poll_stride = 64;

/// One published, immutable, epoch-stamped hypergraph.  Everything a query
/// needs, with no shared mutable state.
struct serve_graph {
  std::shared_ptr<const hypergraph_generation> gen;
  std::vector<std::size_t>                     edge_degrees;
  std::vector<std::size_t>                     node_degrees;
  /// Registry-assigned publication epoch (monotonic across all publishes).
  std::uint64_t epoch = 0;

  [[nodiscard]] std::size_t num_hyperedges() const { return edge_degrees.size(); }
  [[nodiscard]] std::size_t num_hypernodes() const { return node_degrees.size(); }
  [[nodiscard]] std::size_t num_incidences() const { return gen->el.size(); }
};

/// Snapshot a hypergraph into a serveable view.  The source must be
/// compacted (no pending delta) and in external-id storage order — the
/// generation CSRs are then exactly the composed structure, and every
/// query answers in external ids.  Throws std::logic_error
/// otherwise, mirroring require_compacted.
[[nodiscard]] inline serve_graph make_serve_graph(const NWHypergraph& h) {
  if (h.has_pending_delta()) {
    throw std::logic_error("make_serve_graph: compact() the hypergraph first");
  }
  if (h.is_relabeled()) {
    throw std::logic_error("make_serve_graph: derelabel() the hypergraph first");
  }
  serve_graph g;
  g.gen          = h.generation();
  g.edge_degrees = h.edge_sizes();
  g.node_degrees = h.node_degrees();
  return g;
}

/// The pool every query runs on (see the header comment).
inline par::thread_pool& query_pool() {
  static par::thread_pool pool(1);
  return pool;
}

/// Summarize a HyperBFS into the fixed-size bfs_reply: reach counts, max
/// hyperedge depth, digests of both distance arrays.
[[nodiscard]] inline bfs_reply summarize_bfs(const hyper_bfs_result& bfs) {
  bfs_reply r;
  for (vertex_id_t d : bfs.dist_edge) {
    if (d != null_vertex<>) {
      ++r.reached_edges;
      r.max_depth = std::max<std::uint64_t>(r.max_depth, d);
    }
  }
  for (vertex_id_t d : bfs.dist_node) {
    if (d != null_vertex<>) ++r.reached_nodes;
  }
  r.edge_digest = digest_u32(bfs.dist_edge);
  r.node_digest = digest_u32(bfs.dist_node);
  return r;
}

// --- request execution -------------------------------------------------------

/// A finished reply, socket-agnostic.
struct reply_data {
  status                    st = status::internal_error;
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] inline reply_data error_reply(status st, std::string_view message) {
  reply_data r;
  r.st = st;
  message = message.substr(0, k_max_error_message);
  r.payload.assign(message.begin(), message.end());
  return r;
}

/// Execute one already-framed request against one pinned graph.  All
/// payload decoding happens here, inside the try — a payload that is the
/// wrong shape for its (known) opcode answers bad_frame, never throws out.
/// Graph resolution (status::no_graph) and admission (busy/shutting_down)
/// are the caller's concern; this function assumes `g` is valid.
[[nodiscard]] inline reply_data execute_query(const serve_graph& g, opcode op,
                                              std::span<const std::uint8_t> payload,
                                              const deadline_token& dl) {
  const auto& E    = g.gen->hyperedges;
  const auto& N    = g.gen->hypernodes;
  // A relaxed atomic count keeps the hook safe to call from pool workers.
  std::atomic<std::uint32_t> polls{0};
  const auto                 stop = [&dl, &polls] {
    return polls.fetch_add(1, std::memory_order_relaxed) % k_deadline_poll_stride == 0 &&
           dl.expired();
  };
  auto& pool = query_pool();
  try {
    switch (op) {
      case opcode::stats: {
        (void)decode_stats(payload);
        stats_reply out;
        out.num_hyperedges = g.num_hyperedges();
        out.num_hypernodes = g.num_hypernodes();
        out.num_incidences = g.num_incidences();
        out.epoch          = g.epoch;
        return {status::ok, encode(out)};
      }
      case opcode::neighbors: {
        auto q = decode_neighbors(payload);
        if (q.s == 0 || q.s > k_max_s) return error_reply(status::bad_s, "invalid s");
        if (q.edge >= g.num_hyperedges()) {
          return error_reply(status::bad_entity, "hyperedge id out of range");
        }
        auto ids = s_neighbors_implicit(E, N, g.edge_degrees, q.s,
                                        static_cast<vertex_id_t>(q.edge));
        if (8 + 8 * ids.size() > k_max_reply_payload) {
          return error_reply(status::too_large, "neighbor list exceeds reply cap");
        }
        return {status::ok, encode_neighbors_reply(ids)};
      }
      case opcode::s_distance: {
        auto q = decode_s_distance(payload);
        if (q.s == 0 || q.s > k_max_s) return error_reply(status::bad_s, "invalid s");
        if (q.src >= g.num_hyperedges() || q.dst >= g.num_hyperedges()) {
          return error_reply(status::bad_entity, "hyperedge id out of range");
        }
        auto d = s_distance_implicit(E, N, g.edge_degrees, q.s, static_cast<vertex_id_t>(q.src),
                                     static_cast<vertex_id_t>(q.dst), stop, pool);
        return {status::ok, encode_u64_reply(d ? static_cast<std::uint64_t>(*d)
                                               : k_unreachable)};
      }
      case opcode::bfs: {
        auto q = decode_bfs(payload);
        if (q.source >= g.num_hyperedges()) {
          return error_reply(status::bad_entity, "source hyperedge out of range");
        }
        auto bfs = hyper_bfs(E, N, static_cast<vertex_id_t>(q.source), 0, 0, stop, pool);
        return {status::ok, encode(summarize_bfs(bfs))};
      }
      case opcode::s_components: {
        auto q = decode_s_components(payload);
        if (q.s == 0 || q.s > k_max_s) return error_reply(status::bad_s, "invalid s");
        auto labels = s_connected_components_implicit(E, N, g.edge_degrees, q.s, stop, pool);
        s_components_reply out;
        for (std::size_t i = 0; i < labels.size(); ++i) {
          if (labels[i] == static_cast<vertex_id_t>(i)) ++out.num_components;
        }
        out.labels_digest = digest_u32(labels);
        return {status::ok, encode(out)};
      }
      case opcode::centrality: {
        auto q = decode_centrality(payload);
        if (q.s == 0 || q.s > k_max_s) return error_reply(status::bad_s, "invalid s");
        if (q.edge >= g.num_hyperedges()) {
          return error_reply(status::bad_entity, "hyperedge id out of range");
        }
        if (q.kind > static_cast<std::uint32_t>(centrality_kind::eccentricity)) {
          return error_reply(status::bad_frame, "unknown centrality kind");
        }
        auto dist = s_bfs_distances_implicit(E, N, g.edge_degrees, q.s,
                                             static_cast<vertex_id_t>(q.edge), stop, pool);
        switch (static_cast<centrality_kind>(q.kind)) {
          case centrality_kind::closeness:
            return {status::ok, encode_u64_reply(double_bits(nw::graph::closeness_of(dist)))};
          case centrality_kind::harmonic:
            return {status::ok, encode_u64_reply(double_bits(nw::graph::harmonic_of(dist)))};
          case centrality_kind::eccentricity:
            break;
        }
        return {status::ok, encode_u64_reply(nw::graph::eccentricity_of(dist))};
      }
      default:
        return error_reply(status::bad_opcode, "opcode not executable against a graph");
    }
  } catch (const protocol_error& e) {
    return error_reply(status::bad_frame, e.what());
  } catch (const par::cancelled&) {
    return error_reply(status::deadline_exceeded, "deadline exceeded mid-query");
  } catch (const std::exception& e) {
    return error_reply(status::internal_error, e.what());
  }
}

}  // namespace nw::hypergraph::serve
