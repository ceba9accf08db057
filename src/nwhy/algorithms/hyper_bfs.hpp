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
// Both a top-down and a bottom-up engine are provided, plus a
// direction-optimizing combination driven by the proper Beamer alpha/beta
// heuristics: each half-step's fused scout count (degree sum of the next
// frontier in the side it will expand through, accumulated per thread
// while emitting) feeds the alpha switch test, and bottom-up half-steps
// emit the next frontier's bitmap directly (atomic word OR) instead of
// re-setting a merged vector serially.  All frontiers are par::frontier
// objects — hybrid sparse/dense with parallel conversions and
// keep-capacity reuse across levels.
#pragma once

#include <algorithm>
#include <vector>

#include "nwhy/biadjacency.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/cancel.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/bitmap.hpp"
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

/// What one half-step reports to the direction-optimizing loop.
struct expand_stats {
  std::size_t added   = 0;  ///< entities claimed into the next frontier
  std::size_t scanned = 0;  ///< incidences examined this half-step
  std::size_t scout   = 0;  ///< fused degree sum of the next frontier
};

/// Top-down expansion of the sparse `front` (ids in the source class)
/// through `graph` into the target class, emitting into `next`.
/// `next_graph` is the incidence the emitted entities will expand through
/// on the following half-step; its degrees feed the fused scout count.
template <class Graph, class NextGraph>
expand_stats expand_top_down(const Graph& graph, const NextGraph& next_graph,
                             par::frontier& front, par::frontier& next,
                             std::vector<vertex_id_t>& parents_target,
                             std::vector<vertex_id_t>& dist_target, vertex_id_t level,
                             par::thread_pool& pool) {
  const auto&                  ids = front.ids();
  par::per_thread<std::size_t> scanned(pool);
  par::parallel_for(
      0, ids.size(),
      [&](unsigned tid, std::size_t i) {
        vertex_id_t u     = ids[i];
        std::size_t local = 0;
        for (auto&& e : graph[u]) {
          vertex_id_t v = target(e);
          ++local;
          if (atomic_load(parents_target[v]) == null_vertex<> &&
              compare_and_swap(parents_target[v], null_vertex<>, u)) {
            dist_target[v] = level;
            next.emit(tid, v, next_graph.degree(v));
          }
        }
        scanned.local(tid) += local;
        NWOBS_COUNT("hyper_bfs.edges_relaxed", local);
      },
      par::blocked{}, pool);
  expand_stats st;
  st.added = next.commit_sparse();
  st.scout = next.take_scout();
  scanned.for_each([&](std::size_t& s) { st.scanned += s; });
  return st;
}

/// Bottom-up expansion: every unvisited entity of the target class scans
/// its own incidence list (`graph_target_side`) for a member of the dense
/// `front` bitmap.  Claimed entities are emitted straight into `next`'s
/// bitmap — no merged vector, no serial re-set.  `graph_target_side` is
/// also the incidence the claimed entities expand through next, so its
/// degrees feed the fused scout count.
template <class Graph>
expand_stats expand_bottom_up(const Graph& graph_target_side, par::frontier& front,
                              par::frontier& next, std::vector<vertex_id_t>& parents_target,
                              std::vector<vertex_id_t>& dist_target, vertex_id_t level,
                              par::thread_pool& pool) {
  const nw::bitmap& fb = front.bits();
  next.begin_dense();
  par::per_thread<std::size_t> scanned(pool);
  par::parallel_for(
      0, graph_target_side.size(),
      [&](unsigned tid, std::size_t v) {
        if (parents_target[v] != null_vertex<>) return;
        std::size_t local = 0;
        for (auto&& e : graph_target_side[v]) {
          vertex_id_t u = target(e);
          ++local;
          if (fb.get(u)) {
            parents_target[v] = u;
            dist_target[v]    = level;
            next.emit_dense(tid, static_cast<vertex_id_t>(v), graph_target_side.degree(v));
            break;
          }
        }
        scanned.local(tid) += local;
        NWOBS_COUNT("hyper_bfs.edges_relaxed", local);
      },
      par::blocked{}, pool);
  expand_stats st;
  st.added = next.commit_dense();
  st.scout = next.take_scout();
  scanned.for_each([&](std::size_t& s) { st.scanned += s; });
  return st;
}

/// Record one BFS half-step (level) and its frontier size into the
/// observability registry.  No-op under -DNWHY_OBS=0.
inline void record_level(std::size_t frontier_size) {
  (void)frontier_size;
  NWOBS_COUNT("hyper_bfs.levels", 1);
  NWOBS_COUNT("hyper_bfs.frontier_total", frontier_size);
  NWOBS_GAUGE_MAX("hyper_bfs.frontier_peak", frontier_size);
}

}  // namespace detail

/// Top-down HyperBFS from hyperedge `source`.  Generic over the CSR-like
/// structures: `biadjacency<0>`/`biadjacency<1>` or block-decoding
/// `compressed_adjacency` views (size/num_edges/degree/operator[] is all
/// the engines consume).
template <class EGraph, class NGraph>
hyper_bfs_result hyper_bfs_top_down(const EGraph& hyperedges, const NGraph& hypernodes,
                                    vertex_id_t source) {
  hyper_bfs_result r;
  r.parents_edge.assign(hyperedges.size(), null_vertex<>);
  r.parents_node.assign(hypernodes.size(), null_vertex<>);
  r.dist_edge.assign(hyperedges.size(), null_vertex<>);
  r.dist_node.assign(hypernodes.size(), null_vertex<>);
  if (source >= hyperedges.size()) return r;

  NWOBS_SCOPE_TIMER("hyper_bfs_top_down");
  r.parents_edge[source] = source;
  r.dist_edge[source]    = 0;
  par::frontier f_edge(hyperedges.size()), f_node(hypernodes.size());
  f_edge.assign_single(source);
  vertex_id_t level = 0;
  while (!f_edge.empty()) {
    detail::record_level(f_edge.size());
    auto to_nodes =
        detail::expand_top_down(hyperedges, hypernodes, f_edge, f_node, r.parents_node,
                                r.dist_node, ++level, par::thread_pool::default_pool());
    if (to_nodes.added == 0) break;
    detail::record_level(f_node.size());
    detail::expand_top_down(hypernodes, hyperedges, f_node, f_edge, r.parents_edge, r.dist_edge,
                            ++level, par::thread_pool::default_pool());
  }
  return r;
}

/// Bottom-up HyperBFS: each half-step sweeps the whole unvisited side.
template <class EGraph, class NGraph>
hyper_bfs_result hyper_bfs_bottom_up(const EGraph& hyperedges, const NGraph& hypernodes,
                                     vertex_id_t source) {
  hyper_bfs_result r;
  r.parents_edge.assign(hyperedges.size(), null_vertex<>);
  r.parents_node.assign(hypernodes.size(), null_vertex<>);
  r.dist_edge.assign(hyperedges.size(), null_vertex<>);
  r.dist_node.assign(hypernodes.size(), null_vertex<>);
  if (source >= hyperedges.size()) return r;

  NWOBS_SCOPE_TIMER("hyper_bfs_bottom_up");
  r.parents_edge[source] = source;
  r.dist_edge[source]    = 0;
  par::frontier f_edge(hyperedges.size()), f_node(hypernodes.size());
  f_edge.assign_single(source);
  vertex_id_t level = 0;
  while (!f_edge.empty()) {
    detail::record_level(f_edge.size());
    // Hypernode side scans its incident hyperedges for frontier members;
    // the next bitmap is emitted directly, one atomic OR per claim.
    auto to_nodes = detail::expand_bottom_up(hypernodes, f_edge, f_node, r.parents_node,
                                             r.dist_node, ++level,
                                             par::thread_pool::default_pool());
    if (to_nodes.added == 0) break;
    detail::record_level(to_nodes.added);
    auto to_edges = detail::expand_bottom_up(hyperedges, f_node, f_edge, r.parents_edge,
                                             r.dist_edge, ++level,
                                             par::thread_pool::default_pool());
    if (to_edges.added == 0) break;
  }
  return r;
}

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

/// Direction-optimizing HyperBFS: per half-step, choose bottom-up when the
/// frontier's fused scout count (degree sum in the incidence it is about to
/// expand through) exceeds 1/alpha of the unexplored incidences, and switch
/// back to top-down once the frontier shrinks below |target side| / beta —
/// the same Beamer heuristics as the graph engine, replacing the old crude
/// |frontier| > |side|/20 rule.  alpha/beta of 0 take the process defaults
/// (NWHY_BFS_ALPHA / NWHY_BFS_BETA env overrides, else 15/18).  `stop` is
/// polled once per half-step on the calling thread; when it fires, the
/// search throws par::cancelled.
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
    if (stop()) throw par::cancelled{};
    detail::record_level(cur->size());
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
    detail::expand_stats st;
    if (edge_side) {
      st = bottom_up ? detail::expand_bottom_up(hypernodes, *cur, *nxt, r.parents_node,
                                                r.dist_node, level, pool)
                     : detail::expand_top_down(hyperedges, hypernodes, *cur, *nxt,
                                               r.parents_node, r.dist_node, level, pool);
    } else {
      st = bottom_up ? detail::expand_bottom_up(hyperedges, *cur, *nxt, r.parents_edge,
                                                r.dist_edge, level, pool)
                     : detail::expand_top_down(hypernodes, hyperedges, *cur, *nxt,
                                               r.parents_edge, r.dist_edge, level, pool);
    }
    edges_remaining -= std::min(edges_remaining, st.scanned);
    scout = st.scout;
    std::swap(cur, nxt);
    edge_side = !edge_side;
  }
  return r;
}

}  // namespace nw::hypergraph
