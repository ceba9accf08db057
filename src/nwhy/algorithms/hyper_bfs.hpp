// nwhy/algorithms/hyper_bfs.hpp
//
// HyperBFS (paper Sec. III-C.1): breadth-first search on the *bipartite*
// representation.  A hypergraph BFS alternates between the two index
// spaces: a hyperedge frontier expands to the hypernodes it contains, a
// hypernode frontier expands to the hyperedges it joins.  Because the two
// index spaces are separate, the algorithm maintains two of every
// algorithm-specific structure (frontier, parents) — the bookkeeping
// drawback of the bi-adjacency representation the paper calls out.
//
// One direction-optimizing engine, driven by the Beamer alpha/beta
// heuristics: each half-step's fused scout count (degree sum of the next
// frontier in the side it will expand through, accumulated per thread while
// emitting) feeds the alpha switch test.  Every half-step is one
// par::push_step (top-down) or par::pull_step (bottom-up, emitting the next
// frontier's bitmap directly) over the incidence rows; the frontiers are
// par::frontier objects — hybrid sparse/dense with parallel conversions and
// keep-capacity reuse across levels.
#pragma once

#include <algorithm>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/cancel.hpp"
#include "nwpar/frontier.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Result of a hypergraph BFS: parent arrays for both entity classes.
/// parents_edge[e] is the hypernode through which hyperedge e was reached
/// (the source hyperedge holds its own id); parents_node[v] is the
/// hyperedge through which hypernode v was reached.  Unreached entries are
/// null_vertex.  Distances count bipartite hops: hyperedges sit at even
/// depths, hypernodes at odd depths.
struct hyper_bfs_result {
  std::vector<vertex_id_t> parents_edge;
  std::vector<vertex_id_t> parents_node;
  std::vector<vertex_id_t> dist_edge;
  std::vector<vertex_id_t> dist_node;
};

namespace detail {

/// One half-step from the `from` side to the `to` side.  Top-down, the
/// frontier expands its `from` rows; bottom-up, every unreached `to` entity
/// scans its own `to` row for a frontier member.  Claims land in the `to`
/// side's own arrays; the `to` degrees, the rows the claimed entities
/// expand through next, are the scout weights.
template <class From, class To, class Stop>
par::step_stats half_step(const From& from, const To& to, bool bottom_up, par::frontier& cur,
                          par::frontier& nxt, std::vector<vertex_id_t>& parents,
                          std::vector<vertex_id_t>& dist, vertex_id_t level, Stop& stop,
                          par::thread_pool& pool) {
  const auto degree = [&](vertex_id_t v) { return to.degree(v); };
  if (bottom_up) {
    return par::pull_step(
        cur, nxt, nw::graph::csr_rows(to),
        [&](vertex_id_t v) { return parents[v] == null_vertex<>; },
        [&](vertex_id_t u, vertex_id_t v) {
          parents[v] = u;
          dist[v]    = level;
        },
        degree, stop, pool);
  }
  return par::push_step(
      cur, nxt, nw::graph::csr_rows(from),
      [&](vertex_id_t u, vertex_id_t v) {
        if (!claim_unset(parents[v], u)) return false;
        dist[v] = level;
        return true;
      },
      degree, null_vertex<>, stop, pool);
}

}  // namespace detail

/// A hyperpath between two hyperedges: the alternating sequence
/// e_src, v, e, v, ..., e_dst extracted from a BFS forest (the hyperpath /
/// hypertree primitive of the Hygra/MESH algorithm suites).  Even positions
/// hold hyperedge ids, odd positions hypernode ids; empty if unreachable.
inline std::vector<vertex_id_t> extract_hyperpath(const hyper_bfs_result& bfs,
                                                  vertex_id_t source_edge,
                                                  vertex_id_t dest_edge) {
  if (bfs.parents_edge[dest_edge] == null_vertex<>) return {};
  std::vector<vertex_id_t> path;
  vertex_id_t              e = dest_edge;
  path.push_back(e);
  while (e != source_edge) {
    vertex_id_t v = bfs.parents_edge[e];  // the hypernode that discovered e
    path.push_back(v);
    e = bfs.parents_node[v];  // the hyperedge that discovered v
    path.push_back(e);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Direction-optimizing HyperBFS from hyperedge `source`: per half-step,
/// choose bottom-up when the frontier's fused scout count (degree sum in the
/// incidence it is about to expand through) exceeds 1/alpha of the
/// unexplored incidences, and switch back to top-down once the frontier
/// shrinks below |target side| / beta — the same Beamer heuristics as the
/// graph engine.  alpha/beta of 0 take the process defaults (NWHY_BFS_ALPHA
/// / NWHY_BFS_BETA env overrides, else 15/18).  Forcing one direction:
/// alpha = 1 stays top-down throughout; alpha = 2^20 with beta = SIZE_MAX
/// goes bottom-up from the first half-step and never returns (inputs under
/// 2^20 incidences).  Generic over the CSR-like structures:
/// `biadjacency<0>`/`biadjacency<1>` or block-decoding
/// `compressed_adjacency` views (size/num_edges/degree/operator[] is all
/// the engine consumes).  `stop` is polled once per frontier vertex of a
/// top-down half-step and once before each bottom-up half-step; when it
/// fires, the search throws par::cancelled from the calling thread.
template <class EGraph, class NGraph, class Stop = par::never_stop>
hyper_bfs_result hyper_bfs(const EGraph& hyperedges, const NGraph& hypernodes,
                           vertex_id_t source, std::size_t alpha = 0, std::size_t beta = 0,
                           Stop stop = {},
                           par::thread_pool& pool = par::thread_pool::default_pool()) {
  if (alpha == 0) alpha = par::bfs_alpha();
  if (beta == 0) beta = par::bfs_beta();
  hyper_bfs_result r;
  r.parents_edge.assign(hyperedges.size(), null_vertex<>);
  r.parents_node.assign(hypernodes.size(), null_vertex<>);
  r.dist_edge.assign(hyperedges.size(), null_vertex<>);
  r.dist_node.assign(hypernodes.size(), null_vertex<>);
  if (source >= hyperedges.size()) return r;

  NWOBS_SCOPE_TIMER("hyper_bfs");
  r.parents_edge[source] = source;
  r.dist_edge[source]    = 0;
  par::frontier f_edge(hyperedges.size(), pool), f_node(hypernodes.size(), pool);
  f_edge.assign_single(source);
  par::frontier* cur = &f_edge;
  par::frontier* nxt = &f_node;

  // Unexplored incidences across both traversal directions; every
  // half-step (top-down *and* bottom-up) decrements by what it scanned.
  std::size_t edges_remaining = hyperedges.num_edges() + hypernodes.num_edges();
  std::size_t scout           = hyperedges.degree(source);
  bool        edge_side       = true;  // class of ids currently in `cur`
  bool        bottom_up       = false;
  vertex_id_t level           = 0;

  while (!cur->empty()) {
    NWOBS_COUNT("hyper_bfs.levels", 1);
    NWOBS_COUNT("hyper_bfs.frontier_total", cur->size());
    NWOBS_GAUGE_MAX("hyper_bfs.frontier_peak", cur->size());
    NWOBS_COUNT("hyper_bfs.scout_count", scout);
    NWOBS_GAUGE_MAX("hyper_bfs.frontier_density_permille", cur->density_permille());
    const std::size_t target_side = edge_side ? hypernodes.size() : hyperedges.size();
    if (!bottom_up && scout * alpha > edges_remaining) {
      bottom_up = true;
      NWOBS_COUNT("hyper_bfs.direction_switches", 1);
    } else if (bottom_up && cur->size() < target_side / beta) {
      bottom_up = false;
      NWOBS_COUNT("hyper_bfs.direction_switches", 1);
    }
    // Two call sites on purpose: NWOBS_COUNT caches its counter per site.
    if (bottom_up) {
      NWOBS_COUNT("hyper_bfs.steps_bottom_up", 1);
    } else {
      NWOBS_COUNT("hyper_bfs.steps_top_down", 1);
    }
    ++level;
    const auto st = edge_side ? detail::half_step(hyperedges, hypernodes, bottom_up, *cur, *nxt,
                                                  r.parents_node, r.dist_node, level, stop, pool)
                              : detail::half_step(hypernodes, hyperedges, bottom_up, *cur, *nxt,
                                                  r.parents_edge, r.dist_edge, level, stop, pool);
    NWOBS_COUNT("hyper_bfs.edges_relaxed", st.scanned);
    edges_remaining -= std::min(edges_remaining, st.scanned);
    scout = st.scout;
    std::swap(cur, nxt);
    edge_side = !edge_side;
  }
  return r;
}

}  // namespace nw::hypergraph
