// nwhy/serve/query.hpp
//
// The server's read-only view of one published hypergraph, and the query
// kernels that answer requests from it.
//
// Two properties drive everything here:
//
//   * Immutability is the concurrency story.  A `serve_graph` pins one
//     `hypergraph_generation` (CSRs + any mmap'd snapshot bytes behind the
//     io_keepalive) and precomputed degree vectors; nothing in it mutates
//     after construction, so any number of worker threads may execute
//     kernels against it with no locks.  `NWHypergraph`'s own query methods
//     are deliberately NOT used at serve time — its lazily-built caches
//     (adjoin/composed) make const calls thread-unsafe.
//
//   * Replies are differentially checkable.  Every kernel reproduces the
//     library algorithm it mirrors *bit-exactly* — same traversal
//     conventions, same sentinels, and for the centralities the same
//     floating-point accumulation order — so tests/test_serve.cpp can
//     compare server reply bytes against replies synthesized from direct
//     library calls.  The kernels are serial per request; server
//     parallelism comes from running many requests across the worker pool,
//     not from intra-query threading (which would cost determinism for
//     nothing at interactive sizes).
//
// Deadlines: kernels poll a `deadline_token` at frontier/level boundaries
// and bail by throwing `deadline_error`, which `execute_query` maps to
// status::deadline_exceeded.  Boundary-granularity cancellation keeps the
// hot inner loops branch-free.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "nwhy/nwhypergraph.hpp"
#include "nwhy/serve/protocol.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwutil/flat_hashmap.hpp"

namespace nw::hypergraph::serve {

/// A per-request cancellation point.  Default-constructed = no deadline.
class deadline_token {
public:
  using clock = std::chrono::steady_clock;

  deadline_token() = default;
  explicit deadline_token(clock::time_point when) : when_(when) {}

  [[nodiscard]] bool expired() const { return when_ && clock::now() >= *when_; }

  /// Called at frontier/level boundaries inside the kernels.
  void check() const {
    if (expired()) throw deadline_error{};
  }

  [[nodiscard]] std::optional<clock::time_point> when() const { return when_; }

  struct deadline_error {};

private:
  std::optional<clock::time_point> when_;
};

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
/// kernel below answers in external ids.  Throws std::logic_error
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

// --- kernels -----------------------------------------------------------------

/// s-neighbors of `edge`, ascending — the same id set and order the
/// materialized `s_linegraph::s_neighbors` returns (its CSR rows are built
/// sorted).  Serial twin of detail::for_each_s_neighbor's expansion.
[[nodiscard]] inline std::vector<vertex_id_t> serve_s_neighbors(const serve_graph& g,
                                                                std::size_t s,
                                                                vertex_id_t edge) {
  std::vector<vertex_id_t> out;
  counting_hashmap<>       overlap;
  detail::for_each_s_neighbor(g.gen->hyperedges, g.gen->hypernodes, g.edge_degrees, s, edge,
                              overlap, [&](vertex_id_t ej) { out.push_back(ej); });
  std::sort(out.begin(), out.end());
  return out;
}

/// Serial twin of s_distance_implicit: nullopt when unreachable *or either
/// endpoint inactive* (degree < s — even when src == dst, matching the
/// implicit kernel's early-out order).
[[nodiscard]] inline std::optional<std::size_t> serve_s_distance(const serve_graph& g,
                                                                 std::size_t s, vertex_id_t src,
                                                                 vertex_id_t dst,
                                                                 const deadline_token& dl) {
  if (g.edge_degrees[src] < s || g.edge_degrees[dst] < s) return std::nullopt;
  if (src == dst) return 0;
  const std::size_t        ne = g.num_hyperedges();
  std::vector<vertex_id_t> dist(ne, null_vertex<>);
  dist[src] = 0;
  counting_hashmap<>       overlap;
  std::vector<vertex_id_t> frontier{src};
  std::vector<vertex_id_t> next;
  vertex_id_t              level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (vertex_id_t u : frontier) {
      // Deadline poll per frontier vertex, not per level: one vertex's
      // overlap expansion is already heavy, and a whole level of a large
      // graph can run for seconds — far past any useful deadline.
      dl.check();
      detail::for_each_s_neighbor(g.gen->hyperedges, g.gen->hypernodes, g.edge_degrees, s, u,
                                  overlap, [&](vertex_id_t ej) {
                                    if (dist[ej] == null_vertex<>) {
                                      dist[ej] = level;
                                      if (ej == dst) return;
                                      next.push_back(ej);
                                    }
                                  });
      if (dist[dst] != null_vertex<>) return static_cast<std::size_t>(level);
    }
    frontier.swap(next);
  }
  return std::nullopt;
}

/// Distances from `src` in the (never materialized) s-line graph — the
/// exact array `nw::graph::bfs_distances(linegraph, src)` would produce:
/// dist[src] = 0 unconditionally, null_vertex for unreached.  Shared by the
/// three centrality kernels.
[[nodiscard]] inline std::vector<vertex_id_t> serve_s_bfs_distances(const serve_graph& g,
                                                                    std::size_t s,
                                                                    vertex_id_t src,
                                                                    const deadline_token& dl) {
  const std::size_t        ne = g.num_hyperedges();
  std::vector<vertex_id_t> dist(ne, null_vertex<>);
  dist[src] = 0;
  counting_hashmap<>       overlap;
  std::vector<vertex_id_t> frontier{src};
  std::vector<vertex_id_t> next;
  vertex_id_t              level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (vertex_id_t u : frontier) {
      dl.check();  // per-vertex: see serve_s_distance
      detail::for_each_s_neighbor(g.gen->hyperedges, g.gen->hypernodes, g.edge_degrees, s, u,
                                  overlap, [&](vertex_id_t ej) {
                                    if (dist[ej] == null_vertex<>) {
                                      dist[ej] = level;
                                      next.push_back(ej);
                                    }
                                  });
    }
    frontier.swap(next);
  }
  return dist;
}

/// Single-source s-closeness, aggregated in vertex-index order exactly as
/// s_linegraph::s_closeness_centrality(v) does — identical doubles, not
/// just approximately equal ones.
[[nodiscard]] inline double serve_s_closeness(const serve_graph& g, std::size_t s,
                                              vertex_id_t v, const deadline_token& dl) {
  auto        dist      = serve_s_bfs_distances(g, s, v, dl);
  double      total     = 0.0;
  std::size_t reachable = 0;
  for (auto d : dist) {
    if (d != null_vertex<> && d != 0) {
      total += static_cast<double>(d);
      ++reachable;
    }
  }
  return total > 0 ? static_cast<double>(reachable) / total : 0.0;
}

/// Single-source s-harmonic-closeness, same accumulation order as the
/// library overload.
[[nodiscard]] inline double serve_s_harmonic(const serve_graph& g, std::size_t s, vertex_id_t v,
                                             const deadline_token& dl) {
  auto   dist  = serve_s_bfs_distances(g, s, v, dl);
  double total = 0.0;
  for (auto d : dist) {
    if (d != null_vertex<> && d != 0) total += 1.0 / static_cast<double>(d);
  }
  return total;
}

/// Single-source s-eccentricity (max finite distance; 0 for isolated).
[[nodiscard]] inline vertex_id_t serve_s_eccentricity(const serve_graph& g, std::size_t s,
                                                      vertex_id_t v, const deadline_token& dl) {
  auto        dist = serve_s_bfs_distances(g, s, v, dl);
  vertex_id_t ecc  = 0;
  for (auto d : dist) {
    if (d != null_vertex<>) ecc = std::max(ecc, d);
  }
  return ecc;
}

/// Serial twin of s_connected_components_implicit: ascending-seed floods,
/// label = seed (the minimum active id in the component, by scan order),
/// inactive hyperedges labeled null_vertex.
[[nodiscard]] inline std::vector<vertex_id_t> serve_s_components(const serve_graph& g,
                                                                 std::size_t s,
                                                                 const deadline_token& dl) {
  const std::size_t        ne = g.num_hyperedges();
  std::vector<vertex_id_t> comp(ne, null_vertex<>);
  counting_hashmap<>       overlap;
  std::vector<vertex_id_t> frontier;
  std::vector<vertex_id_t> next;
  for (std::size_t seed = 0; seed < ne; ++seed) {
    if (g.edge_degrees[seed] < s || comp[seed] != null_vertex<>) continue;
    dl.check();
    comp[seed] = static_cast<vertex_id_t>(seed);
    frontier.assign(1, static_cast<vertex_id_t>(seed));
    while (!frontier.empty()) {
      next.clear();
      for (vertex_id_t u : frontier) {
        dl.check();  // per-vertex: see serve_s_distance
        detail::for_each_s_neighbor(g.gen->hyperedges, g.gen->hypernodes, g.edge_degrees, s, u,
                                    overlap, [&](vertex_id_t ej) {
                                      if (comp[ej] == null_vertex<>) {
                                        comp[ej] = static_cast<vertex_id_t>(seed);
                                        next.push_back(ej);
                                      }
                                    });
      }
      frontier.swap(next);
    }
  }
  return comp;
}

/// Serial twin of hyper_bfs on the generation CSRs: alternating bipartite
/// levels, dist_edge[source] = 0, level incremented per half-step.
/// Summarized into the fixed-size bfs_reply (counts, max hyperedge depth,
/// digests of both distance arrays).
[[nodiscard]] inline bfs_reply serve_bfs(const serve_graph& g, vertex_id_t source,
                                         const deadline_token& dl) {
  const std::size_t        ne = g.num_hyperedges();
  const std::size_t        nn = g.num_hypernodes();
  std::vector<vertex_id_t> dist_edge(ne, null_vertex<>);
  std::vector<vertex_id_t> dist_node(nn, null_vertex<>);
  dist_edge[source] = 0;
  std::vector<vertex_id_t> frontier{source};
  std::vector<vertex_id_t> next;
  bool                     edge_side = true;
  vertex_id_t              level     = 0;
  while (!frontier.empty()) {
    dl.check();
    ++level;
    next.clear();
    for (vertex_id_t u : frontier) {
      auto& dist = edge_side ? dist_node : dist_edge;
      if (edge_side) {
        for (auto&& ev : g.gen->hyperedges[u]) {
          vertex_id_t v = target(ev);
          if (dist[v] == null_vertex<>) {
            dist[v] = level;
            next.push_back(v);
          }
        }
      } else {
        for (auto&& ve : g.gen->hypernodes[u]) {
          vertex_id_t v = target(ve);
          if (dist[v] == null_vertex<>) {
            dist[v] = level;
            next.push_back(v);
          }
        }
      }
    }
    frontier.swap(next);
    edge_side = !edge_side;
  }

  bfs_reply r;
  for (vertex_id_t d : dist_edge) {
    if (d != null_vertex<>) {
      ++r.reached_edges;
      r.max_depth = std::max<std::uint64_t>(r.max_depth, d);
    }
  }
  for (vertex_id_t d : dist_node) {
    if (d != null_vertex<>) ++r.reached_nodes;
  }
  r.edge_digest = digest_u32(dist_edge);
  r.node_digest = digest_u32(dist_node);
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
        auto ids = serve_s_neighbors(g, q.s, static_cast<vertex_id_t>(q.edge));
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
        auto d = serve_s_distance(g, q.s, static_cast<vertex_id_t>(q.src),
                                  static_cast<vertex_id_t>(q.dst), dl);
        return {status::ok, encode_u64_reply(d ? static_cast<std::uint64_t>(*d)
                                               : k_unreachable)};
      }
      case opcode::bfs: {
        auto q = decode_bfs(payload);
        if (q.source >= g.num_hyperedges()) {
          return error_reply(status::bad_entity, "source hyperedge out of range");
        }
        return {status::ok, encode(serve_bfs(g, static_cast<vertex_id_t>(q.source), dl))};
      }
      case opcode::s_components: {
        auto q = decode_s_components(payload);
        if (q.s == 0 || q.s > k_max_s) return error_reply(status::bad_s, "invalid s");
        auto labels = serve_s_components(g, q.s, dl);
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
        const auto v = static_cast<vertex_id_t>(q.edge);
        switch (static_cast<centrality_kind>(q.kind)) {
          case centrality_kind::closeness:
            return {status::ok, encode_u64_reply(double_bits(serve_s_closeness(g, q.s, v, dl)))};
          case centrality_kind::harmonic:
            return {status::ok, encode_u64_reply(double_bits(serve_s_harmonic(g, q.s, v, dl)))};
          case centrality_kind::eccentricity:
            return {status::ok, encode_u64_reply(serve_s_eccentricity(g, q.s, v, dl))};
        }
        return error_reply(status::bad_frame, "unknown centrality kind");
      }
      default:
        return error_reply(status::bad_opcode, "opcode not executable against a graph");
    }
  } catch (const protocol_error& e) {
    return error_reply(status::bad_frame, e.what());
  } catch (const deadline_token::deadline_error&) {
    return error_reply(status::deadline_exceeded, "deadline exceeded mid-query");
  } catch (const std::exception& e) {
    return error_reply(status::internal_error, e.what());
  }
}

}  // namespace nw::hypergraph::serve
