// nwgraph/algorithms/bfs.hpp
//
// Parallel breadth-first search on CSR graphs: direction-optimizing BFS
// (the AdjoinBFS engine of Sec. III-C.2), which picks top-down or
// bottom-up per level by Beamer's alpha/beta heuristics, and hop distances
// with an optional target exit.  Both are loops of the one level step
// (par::push_step / par::pull_step, nwpar/frontier.hpp) over CSR rows.
#pragma once

#include <algorithm>
#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwobs/counters.hpp"
#include "nwpar/frontier.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"

namespace nw::graph {

/// The row generator of the level step over any `g[u]` range of ranges
/// (CSR, biadjacency, compressed views, vector-of-vectors).
template <class Graph>
auto csr_rows(const Graph& g) {
  return [&g](unsigned, vertex_id_t u, auto&& visit) {
    for (auto&& e : g[u]) {
      if (!visit(target(e))) return;
    }
  };
}

/// Direction-optimizing BFS (Beamer et al.): start top-down, switch to
/// bottom-up when the frontier's fused scout count exceeds 1/alpha of the
/// remaining edges, and back when the frontier shrinks below |V|/beta.
/// Returns the parent array: parents[source] == source, unreached vertices
/// hold null_vertex.  alpha/beta of 0 take the process defaults
/// (NWHY_BFS_ALPHA/NWHY_BFS_BETA env overrides, else 15/18).  Both step
/// kinds decrement edges_remaining, so a later top-down re-switch never
/// sees a stale edge estimate.
///
/// Forcing one direction: alpha = 1 stays top-down throughout (the scout
/// count never exceeds the unscanned edges); alpha = 2^20 with beta =
/// SIZE_MAX goes bottom-up from the first level with an edge and never
/// returns (graphs under 2^20 edges).
template <degree_enumerable_graph Graph>
std::vector<vertex_id_t> bfs_direction_optimizing(const Graph& g, vertex_id_t source,
                                                  std::size_t alpha = 0, std::size_t beta = 0) {
  if (alpha == 0) alpha = par::bfs_alpha();
  if (beta == 0) beta = par::bfs_beta();
  std::vector<vertex_id_t> parents(g.size(), null_vertex<>);
  if (g.size() == 0) return parents;
  parents[source] = source;

  auto&         pool = par::thread_pool::default_pool();
  par::frontier front(g.size(), pool), next(g.size(), pool);
  front.assign_single(source);
  std::size_t edges_remaining = g.num_edges();
  std::size_t scout           = g.degree(source);
  bool        bottom_up       = false;

  const auto rows      = csr_rows(g);
  const auto claim     = [&](vertex_id_t u, vertex_id_t v) { return claim_unset(parents[v], u); };
  const auto settle    = [&](vertex_id_t u, vertex_id_t v) { parents[v] = u; };
  const auto unvisited = [&](vertex_id_t v) { return parents[v] == null_vertex<>; };
  const auto degree    = [&](vertex_id_t v) { return g.degree(v); };

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
    par::step_stats st;
    if (bottom_up) {
      NWOBS_COUNT("graph_bfs.steps_bottom_up", 1);
      st = par::pull_step(front, next, rows, unvisited, settle, degree, par::never_stop{}, pool);
    } else {
      NWOBS_COUNT("graph_bfs.steps_top_down", 1);
      st = par::push_step(front, next, rows, claim, degree, null_vertex<>, par::never_stop{},
                          pool);
    }
    NWOBS_COUNT("graph_bfs.edges_relaxed", st.scanned);
    edges_remaining -= std::min(edges_remaining, st.scanned);
    scout = st.scout;
    front.swap(next);
  }
  return parents;
}

/// Hop distances from `source` by top-down level steps; used by the
/// s-distance / s-path / s-eccentricity metrics.  Unreachable =
/// null_vertex.  With a `target`, the sweep ends at the level that claims
/// it: every vertex nearer than the target holds its distance, farther
/// ones may stay null_vertex.  Counts `graph_bfs.levels` (levels expanded)
/// and `graph_bfs.edges_relaxed` (each expanded frontier vertex adds its
/// row length once).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> bfs_distances(const Graph& g, vertex_id_t source,
                                       vertex_id_t target = null_vertex<>) {
  std::vector<vertex_id_t> dist(g.size(), null_vertex<>);
  if (g.size() == 0) return dist;
  dist[source] = 0;
  if (source == target) return dist;
  auto&         pool = par::thread_pool::default_pool();
  par::frontier front(g.size(), pool), next(g.size(), pool);
  front.assign_single(source);
  vertex_id_t level = 0;
  while (!front.empty()) {
    ++level;
    NWOBS_COUNT("graph_bfs.levels", 1);
    const auto st = par::push_step(
        front, next, csr_rows(g),
        [&](vertex_id_t, vertex_id_t v) { return claim_unset(dist[v], level); }, par::no_weight{},
        target, par::never_stop{}, pool);
    NWOBS_COUNT("graph_bfs.edges_relaxed", st.scanned);
    if (st.hit) break;
    front.swap(next);
  }
  return dist;
}

}  // namespace nw::graph
