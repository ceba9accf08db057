// nwhy/slinegraph/implicit.hpp
//
// Implicit s-line-graph traversal: s-BFS and s-connected-components that
// never materialize L_s(H).  The s-neighborhood of a hyperedge is
// discovered on the fly by hashmap overlap counting — the same kernel the
// construction algorithms use, but the pairs are consumed immediately
// instead of stored.
//
// Why it exists: the clique-expansion/line-graph blow-up the paper
// discusses (Sec. III-B.3) applies to L_1 of dense hypergraphs too — on
// com-Orkut-sim, L_2(H) has 28M edges while the hypergraph has 300k
// incidences.  When only one traversal-shaped query is needed, the
// implicit route trades a constant-factor extra counting work (each
// adjacency is discovered from both endpoints) for zero line-graph memory.
// `bench_ablation_implicit` quantifies the crossover.
#pragma once

#include <optional>
#include <vector>

#include "nwhy/slinegraph/construction.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/flat_hashmap.hpp"

namespace nw::hypergraph {

namespace detail {

/// Visit every s-neighbor of `ei` (all ej != ei with |ei ∩ ej| >= s).
template <class EGraph, class NGraph, class Fn>
void for_each_s_neighbor(const EGraph& edges, const NGraph& nodes,
                         const std::vector<std::size_t>& edge_degrees, std::size_t s,
                         vertex_id_t ei, counting_hashmap<>& overlap, Fn&& fn) {
  overlap.clear();
  for (auto&& ev : edges[ei]) {
    for (auto&& ve : nodes[target(ev)]) {
      vertex_id_t ej = target(ve);
      if (ej != ei && edge_degrees[ej] >= s) overlap.increment(ej);
    }
  }
  overlap.for_each([&](vertex_id_t ej, std::uint32_t n) {
    if (n >= s) fn(ej);
  });
}

}  // namespace detail

/// s-connected components without materializing the line graph: BFS floods
/// from every still-unlabeled active hyperedge; each flood's frontier
/// expansion is parallel (per-thread hashmaps, CAS label claims).
/// Inactive hyperedges (fewer than s hypernodes) get null_vertex, matching
/// s_linegraph::s_connected_components.
template <class EGraph, class NGraph>
std::vector<vertex_id_t> s_connected_components_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s) {
  const std::size_t        ne = edges.size();
  std::vector<vertex_id_t> comp(ne, null_vertex<>);
  par::per_thread<counting_hashmap<>> maps;
  // One frontier pair for the whole flood: the par::frontier keeps its id
  // vector and per-thread emission buffers across levels *and* seeds, so
  // after the first flood reaches its high-water mark no level allocates.
  par::frontier frontier(ne), next(ne);

  for (std::size_t seed = 0; seed < ne; ++seed) {
    if (edge_degrees[seed] < s || comp[seed] != null_vertex<>) continue;
    comp[seed] = static_cast<vertex_id_t>(seed);
    frontier.assign_single(static_cast<vertex_id_t>(seed));
    while (!frontier.empty()) {
      const auto& ids = frontier.ids();
      par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
        detail::for_each_s_neighbor(edges, nodes, edge_degrees, s, ids[i], maps.local(tid),
                                    [&](vertex_id_t ej) {
                                      if (atomic_load(comp[ej]) == null_vertex<> &&
                                          compare_and_swap(comp[ej], null_vertex<>,
                                                           static_cast<vertex_id_t>(seed))) {
                                        next.emit(tid, ej);
                                      }
                                    });
      });
      next.commit_sparse();
      frontier.swap(next);
    }
  }
  return comp;
}

/// s-distance between two hyperedges without materializing the line graph;
/// nullopt when unreachable (or either endpoint inactive or out of range).
template <class EGraph, class NGraph>
std::optional<std::size_t> s_distance_implicit(const EGraph& edges, const NGraph& nodes,
                                               const std::vector<std::size_t>& edge_degrees,
                                               std::size_t s, vertex_id_t src,
                                               vertex_id_t dst) {
  if (src >= edge_degrees.size() || dst >= edge_degrees.size()) return std::nullopt;
  if (edge_degrees[src] < s || edge_degrees[dst] < s) return std::nullopt;
  if (src == dst) return 0;
  const std::size_t        ne = edges.size();
  std::vector<vertex_id_t> dist(ne, null_vertex<>);
  dist[src] = 0;
  par::per_thread<counting_hashmap<>> maps;
  // Hoisted out of the level loop; the frontier's id vector and per-thread
  // emission buffers keep capacity across levels.
  par::frontier frontier(ne), next(ne);
  frontier.assign_single(src);
  vertex_id_t level = 0;
  while (!frontier.empty()) {
    ++level;
    std::atomic<bool> found{false};
    const auto&       ids = frontier.ids();
    par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
      detail::for_each_s_neighbor(edges, nodes, edge_degrees, s, ids[i], maps.local(tid),
                                  [&](vertex_id_t ej) {
                                    if (atomic_load(dist[ej]) == null_vertex<> &&
                                        compare_and_swap(dist[ej], null_vertex<>, level)) {
                                      if (ej == dst) found.store(true);
                                      next.emit(tid, ej);
                                    }
                                  });
    });
    if (found.load()) return static_cast<std::size_t>(level);
    next.commit_sparse();
    frontier.swap(next);
  }
  return std::nullopt;
}

/// Degree of a hyperedge in the (never-built) s-line graph.
template <class EGraph, class NGraph>
std::size_t s_degree_implicit(const EGraph& edges, const NGraph& nodes,
                              const std::vector<std::size_t>& edge_degrees, std::size_t s,
                              vertex_id_t ei) {
  if (edge_degrees[ei] < s) return 0;
  counting_hashmap<> overlap;
  std::size_t        degree = 0;
  detail::for_each_s_neighbor(edges, nodes, edge_degrees, s, ei, overlap,
                              [&](vertex_id_t) { ++degree; });
  return degree;
}

}  // namespace nw::hypergraph
