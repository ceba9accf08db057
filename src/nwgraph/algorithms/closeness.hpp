// nwgraph/algorithms/closeness.hpp
//
// BFS-based distance aggregates on unweighted graphs, parallel over
// sources: closeness centrality, harmonic closeness centrality, and
// eccentricity.  These back the s_closeness_centrality /
// s_harmonic_closeness_centrality / s_eccentricity metrics of Listing 5.
//
// Conventions (matching HyperNetX / networkx):
//  * closeness(v)  = (r - 1) / sum of distances to the r vertices reachable
//                    from v (0 if v is isolated); the "Wasserman & Faust"
//                    component-local definition.
//  * harmonic(v)   = sum over u != v of 1 / d(v, u), unreachable terms 0.
//  * eccentricity(v) = max distance to any reachable vertex.
#pragma once

#include <algorithm>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/concepts.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::graph {

namespace detail {

/// Serial BFS distances into a caller-provided buffer (reused across sources).
template <adjacency_list_graph Graph>
void bfs_distances_into(const Graph& g, vertex_id_t s, std::vector<vertex_id_t>& dist,
                        std::vector<vertex_id_t>& queue) {
  dist.assign(g.size(), null_vertex<>);
  queue.clear();
  dist[s] = 0;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    vertex_id_t u = queue[head];
    for (auto&& e : g[u]) {
      vertex_id_t v = target(e);
      if (dist[v] == null_vertex<>) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
}

}  // namespace detail

// --- per-source folds --------------------------------------------------------
//
// One BFS distance array (null_vertex = unreached, 0 = the source) folded
// into one score, in ascending index order.  Every spelling of these
// metrics (all sources here, one source in s_linegraph, the query server's
// centrality opcode) calls these folds, so they agree bit for bit.

/// Closeness of the source of `dist`: reachable / total distance, 0 when
/// nothing is reachable.
inline double closeness_of(const std::vector<vertex_id_t>& dist) {
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

/// Harmonic closeness of the source of `dist`: sum of 1 / d.
inline double harmonic_of(const std::vector<vertex_id_t>& dist) {
  double total = 0.0;
  for (auto d : dist) {
    if (d != null_vertex<> && d != 0) total += 1.0 / static_cast<double>(d);
  }
  return total;
}

/// Eccentricity of the source of `dist`: the largest finite distance.
inline vertex_id_t eccentricity_of(const std::vector<vertex_id_t>& dist) {
  vertex_id_t ecc = 0;
  for (auto d : dist) {
    if (d != null_vertex<>) ecc = std::max(ecc, d);
  }
  return ecc;
}

namespace detail {

/// One fold per vertex, each over a serial BFS from that vertex, parallel
/// over sources with per-thread scratch.
template <adjacency_list_graph Graph, class T, class Fold>
std::vector<T> fold_all_sources(const Graph& g, Fold fold) {
  const std::size_t n = g.size();
  std::vector<T>    result(n);
  struct ws {
    std::vector<vertex_id_t> dist, queue;
  };
  par::per_thread<ws> scratch;
  par::parallel_for(0, n, [&](unsigned tid, std::size_t s) {
    auto& w = scratch.local(tid);
    bfs_distances_into(g, static_cast<vertex_id_t>(s), w.dist, w.queue);
    result[s] = fold(w.dist);
  });
  return result;
}

}  // namespace detail

/// Closeness centrality of every vertex (component-local normalization).
template <adjacency_list_graph Graph>
std::vector<double> closeness_centrality(const Graph& g) {
  return detail::fold_all_sources<Graph, double>(g, closeness_of);
}

/// Harmonic closeness centrality of every vertex.
template <adjacency_list_graph Graph>
std::vector<double> harmonic_closeness_centrality(const Graph& g) {
  return detail::fold_all_sources<Graph, double>(g, harmonic_of);
}

/// Eccentricity of every vertex (max hop distance within its component).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> eccentricity(const Graph& g) {
  return detail::fold_all_sources<Graph, vertex_id_t>(g, eccentricity_of);
}

}  // namespace nw::graph
