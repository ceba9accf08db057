// nwgraph/algorithms/bfs.hpp
//
// Parallel breadth-first search on CSR graphs:
//   * top-down   — frontier expands via outgoing edges; parents claimed by CAS
//   * bottom-up  — every unvisited vertex scans its neighbors for a frontier
//                  member (Beamer et al.'s idea); wins on huge frontiers
//   * direction-optimizing — switches between the two using the standard
//                  alpha/beta heuristics (the AdjoinBFS engine of Sec. III-C.2)
//
// All engines sit on the par::frontier substrate (nwpar/frontier.hpp):
// hybrid sparse/dense frontiers with parallel conversions, keep-capacity
// buffer reuse across levels, and the fused scout count — top-down steps
// accumulate the next frontier's degree sum per thread while emitting it,
// so the alpha switch test never runs a separate serial degree pass.
//
// All variants return the parent array; parents[source] == source and
// unreached vertices hold null_vertex.
#pragma once

#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwobs/counters.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/bitmap.hpp"
#include "nwutil/defs.hpp"

namespace nw::graph {

/// What one BFS step reports back to the direction-optimizing loop.
struct bfs_step_stats {
  std::size_t added   = 0;  ///< vertices claimed into the next frontier
  std::size_t scanned = 0;  ///< edges examined (edges_remaining bookkeeping)
  std::size_t scout   = 0;  ///< fused degree sum of the next frontier
};

/// One top-down step: expand `front` (sparse) into `next` (sparse), claiming
/// parents via CAS.  When the graph enumerates degrees, the next frontier's
/// degree sum is fused into the emission (scout count).
template <adjacency_list_graph Graph>
bfs_step_stats bfs_top_down_step(const Graph& g, par::frontier& front, par::frontier& next,
                                 std::vector<vertex_id_t>& parents) {
  const auto&                  ids = front.ids();
  par::per_thread<std::size_t> scanned;
  par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
    vertex_id_t u     = ids[i];
    std::size_t local = 0;
    for (auto&& e : g[u]) {
      vertex_id_t v = target(e);
      ++local;
      if (atomic_load(parents[v]) == null_vertex<> &&
          compare_and_swap(parents[v], null_vertex<>, u)) {
        if constexpr (degree_enumerable_graph<Graph>) {
          next.emit(tid, v, g.degree(v));
        } else {
          next.emit(tid, v);
        }
      }
    }
    scanned.local(tid) += local;
  });
  bfs_step_stats st;
  st.added = next.commit_sparse();
  st.scout = next.take_scout();
  scanned.for_each([&](std::size_t& s) { st.scanned += s; });
  return st;
}

/// One bottom-up step: every unvisited vertex probes the dense `front`
/// bitmap through its own adjacency; claimed vertices are emitted straight
/// into `next`'s bitmap (atomic per-word OR), with the scout count fused.
template <adjacency_list_graph Graph>
bfs_step_stats bfs_bottom_up_step(const Graph& g, par::frontier& front, par::frontier& next,
                                  std::vector<vertex_id_t>& parents) {
  const nw::bitmap& fb = front.bits();
  next.begin_dense();
  par::per_thread<std::size_t> scanned;
  par::parallel_for(0, g.size(), [&](unsigned tid, std::size_t v) {
    if (parents[v] != null_vertex<>) return;
    std::size_t local = 0;
    for (auto&& e : g[v]) {
      vertex_id_t u = target(e);
      ++local;
      if (fb.get(u)) {
        parents[v] = u;
        if constexpr (degree_enumerable_graph<Graph>) {
          next.emit_dense(tid, static_cast<vertex_id_t>(v), g.degree(v));
        } else {
          next.emit_dense(tid, static_cast<vertex_id_t>(v));
        }
        break;
      }
    }
    scanned.local(tid) += local;
  });
  bfs_step_stats st;
  st.added = next.commit_dense();
  st.scout = next.take_scout();
  scanned.for_each([&](std::size_t& s) { st.scanned += s; });
  return st;
}

/// Pure top-down BFS (the HygraBFS-style engine).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> bfs_top_down(const Graph& g, vertex_id_t source) {
  std::vector<vertex_id_t> parents(g.size(), null_vertex<>);
  if (g.size() == 0) return parents;
  parents[source] = source;
  par::frontier front(g.size()), next(g.size());
  front.assign_single(source);
  while (!front.empty()) {
    bfs_top_down_step(g, front, next, parents);
    front.swap(next);
  }
  return parents;
}

/// Pure bottom-up BFS (every level sweeps all vertices).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> bfs_bottom_up(const Graph& g, vertex_id_t source) {
  std::vector<vertex_id_t> parents(g.size(), null_vertex<>);
  if (g.size() == 0) return parents;
  parents[source] = source;
  par::frontier front(g.size()), next(g.size());
  front.assign_single(source);
  while (bfs_bottom_up_step(g, front, next, parents).added > 0) {
    front.swap(next);
  }
  return parents;
}

/// Direction-optimizing BFS (Beamer et al.): start top-down, switch to
/// bottom-up when the frontier's fused scout count exceeds 1/alpha of the
/// remaining edges, and back when the frontier shrinks below |V|/beta.
/// alpha/beta of 0 take the process defaults (NWHY_BFS_ALPHA/NWHY_BFS_BETA
/// env overrides, else 15/18).  Both step kinds decrement edges_remaining,
/// so a later top-down re-switch never sees a stale edge estimate.
template <degree_enumerable_graph Graph>
std::vector<vertex_id_t> bfs_direction_optimizing(const Graph& g, vertex_id_t source,
                                                  std::size_t alpha = 0, std::size_t beta = 0) {
  if (alpha == 0) alpha = par::bfs_alpha();
  if (beta == 0) beta = par::bfs_beta();
  std::vector<vertex_id_t> parents(g.size(), null_vertex<>);
  if (g.size() == 0) return parents;
  parents[source] = source;

  par::frontier front(g.size()), next(g.size());
  front.assign_single(source);
  std::size_t edges_remaining = g.num_edges();
  std::size_t scout           = g.degree(source);
  bool        bottom_up       = false;

  while (!front.empty()) {
    NWOBS_COUNT("graph_bfs.levels", 1);
    NWOBS_COUNT("graph_bfs.frontier_total", front.size());
    NWOBS_COUNT("graph_bfs.scout_count", scout);
    NWOBS_GAUGE_MAX("graph_bfs.frontier_peak", front.size());
    NWOBS_GAUGE_MAX("graph_bfs.frontier_density_permille", front.density_permille());
    if (!bottom_up && scout * alpha > edges_remaining) {
      bottom_up = true;
      NWOBS_COUNT("graph_bfs.direction_switches", 1);
    } else if (bottom_up && front.size() < g.size() / beta) {
      bottom_up = false;
      NWOBS_COUNT("graph_bfs.direction_switches", 1);
    }
    bfs_step_stats st;
    if (bottom_up) {
      NWOBS_COUNT("graph_bfs.steps_bottom_up", 1);
      st = bfs_bottom_up_step(g, front, next, parents);
    } else {
      NWOBS_COUNT("graph_bfs.steps_top_down", 1);
      st = bfs_top_down_step(g, front, next, parents);
    }
    NWOBS_COUNT("graph_bfs.edges_relaxed", st.scanned);
    edges_remaining -= std::min(edges_remaining, st.scanned);
    scout = st.scout;
    front.swap(next);
  }
  return parents;
}

/// Hop distances from `source` derived by a level-synchronous sweep; used by
/// the s-distance / s-eccentricity metrics.  Unreachable = null_vertex.
/// Counts `graph_bfs.levels` and `graph_bfs.edges_relaxed` (each frontier
/// vertex adds its row length once).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> bfs_distances(const Graph& g, vertex_id_t source) {
  std::vector<vertex_id_t> dist(g.size(), null_vertex<>);
  if (g.size() == 0) return dist;
  dist[source] = 0;
  // Two frontier objects whose id vectors and per-thread emission buffers
  // all keep capacity across levels.
  par::frontier front(g.size()), next(g.size());
  front.assign_single(source);
  vertex_id_t level = 0;
  while (!front.empty()) {
    ++level;
    NWOBS_COUNT("graph_bfs.levels", 1);
    const auto& ids = front.ids();
    par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
      std::size_t scanned = 0;
      for (auto&& e : g[ids[i]]) {
        vertex_id_t v = target(e);
        ++scanned;
        if (atomic_load(dist[v]) == null_vertex<> &&
            compare_and_swap(dist[v], null_vertex<>, level)) {
          next.emit(tid, v);
        }
      }
      NWOBS_COUNT("graph_bfs.edges_relaxed", scanned);
    });
    next.commit_sparse();
    front.swap(next);
  }
  return dist;
}

}  // namespace nw::graph
