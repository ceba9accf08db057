// nwhy/slinegraph/implicit.hpp
//
// Implicit s-line-graph traversal: s-BFS distances, s-distance,
// s-connected-components and s-neighbors that never materialize L_s(H).
// The s-neighborhood of a hyperedge is discovered on the fly by overlap
// counting into a dense per-thread accumulator — the same kernel the
// construction algorithms use, but the pairs are consumed immediately
// instead of stored.  Every traversal runs on one level loop
// (detail::s_bfs_flood), which takes the thread pool and a stop hook as
// parameters; the query server calls these same engines on a one-context
// pool with its deadline as the hook.
//
// Why it exists: the clique-expansion/line-graph blow-up the paper
// discusses (Sec. III-B.3) applies to L_1 of dense hypergraphs too — on
// com-Orkut-sim, L_2(H) has 28M edges while the hypergraph has 300k
// incidences.  When only one traversal-shaped query is needed, the
// implicit route trades a constant-factor extra counting work (each
// adjacency is discovered from both endpoints) for zero line-graph memory.
// `bench_ablation_implicit` quantifies the crossover.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "nwhy/slinegraph/construction.hpp"
#include "nwpar/cancel.hpp"
#include "nwpar/frontier.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"

namespace nw::hypergraph {

namespace detail {

/// Visit every s-neighbor of `ei` (all ej != ei with |ei ∩ ej| >= s),
/// counted by the construction kernel detail::count_overlaps.
template <class EGraph, class NGraph, class Fn>
void for_each_s_neighbor(const EGraph& edges, const NGraph& nodes,
                         const std::vector<std::size_t>& edge_degrees, std::size_t s,
                         vertex_id_t ei, sparse_accumulator<>& overlap, Fn&& fn) {
  count_overlaps(
      edges[ei], nodes,
      [ei, d = edge_degrees.data(), s](vertex_id_t ej) { return ej != ei && d[ej] >= s; },
      overlap);
  overlap.for_each([&](vertex_id_t ej, std::uint32_t c) {
    if (c >= s) fn(ej);
  });
}

/// Scratch of the implicit s-BFS: per-thread overlap accumulators over the
/// ne hyperedge ids and the frontier pair.  Kept across levels and, for
/// s-CC, across floods, so no level allocates.
struct s_bfs_scratch {
  s_bfs_scratch(std::size_t ne, par::thread_pool& p)
      : pool(p), maps(overlap_accumulators(ne, p)), frontier(ne, p), next(ne, p) {}

  par::thread_pool&                     pool;
  par::per_thread<sparse_accumulator<>> maps;
  par::frontier                         frontier, next;
};

/// The implicit s-BFS level loop, shared by every engine below: one
/// par::push_step per level whose rows are the s-neighbourhoods, counted
/// on the per-thread overlap accumulators.  Floods from `src`, which the
/// caller has already claimed in `mark`; each level claims undiscovered
/// s-neighbours by CAS, writing `value_of(level)` into `mark`: the level
/// for distances, the seed for component labels.  When `target` is
/// claimed, the remaining vertices of that frontier are skipped and the
/// flood returns true (`null_vertex` = no target).  `stop` is polled once
/// per frontier vertex; a fired poll ends the level early and throws
/// par::cancelled here, on the calling thread.
template <class EGraph, class NGraph, class ValueOf, class Stop>
bool s_bfs_flood(const EGraph& edges, const NGraph& nodes,
                 const std::vector<std::size_t>& edge_degrees, std::size_t s, vertex_id_t src,
                 std::vector<vertex_id_t>& mark, ValueOf value_of, vertex_id_t target,
                 s_bfs_scratch& ws, Stop& stop) {
  const auto rows = [&](unsigned tid, vertex_id_t u, auto&& visit) {
    for_each_s_neighbor(edges, nodes, edge_degrees, s, u, ws.maps.local(tid), visit);
  };
  ws.frontier.assign_single(src);
  vertex_id_t level = 0;
  while (!ws.frontier.empty()) {
    const vertex_id_t value = value_of(++level);
    const auto        st    = par::push_step(
        ws.frontier, ws.next, rows,
        [&](vertex_id_t, vertex_id_t v) { return claim_unset(mark[v], value); },
        par::no_weight{}, target, stop, ws.pool);
    if (st.hit) return true;
    ws.frontier.swap(ws.next);
  }
  return false;
}

}  // namespace detail

/// s-connected components without materializing the line graph: a flood
/// from every still-unlabeled active hyperedge in ascending id order, so
/// each component is labeled with its smallest id.  Inactive hyperedges
/// (fewer than s hypernodes) get null_vertex, matching
/// s_linegraph::s_connected_components.  `stop` is polled once per
/// frontier vertex (see detail::s_bfs_flood).
template <class EGraph, class NGraph, class Stop = par::never_stop>
std::vector<vertex_id_t> s_connected_components_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, Stop stop = {}, par::thread_pool& pool = par::thread_pool::default_pool()) {
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  const std::size_t        ne = edges.size();
  std::vector<vertex_id_t> comp(ne, null_vertex<>);
  detail::s_bfs_scratch    ws(ne, pool);
  for (std::size_t seed = 0; seed < ne; ++seed) {
    if (edge_degrees[seed] < s || comp[seed] != null_vertex<>) continue;
    const auto label = static_cast<vertex_id_t>(seed);
    comp[seed]       = label;
    detail::s_bfs_flood(edges, nodes, edge_degrees, s, label, comp,
                        [label](vertex_id_t) { return label; }, null_vertex<>, ws, stop);
  }
  return comp;
}

/// Distances from `src` in the (never materialized) s-line graph: the array
/// nw::graph::bfs_distances would return on L_s(H), with dist[src] = 0 and
/// null_vertex for unreached hyperedges.
template <class EGraph, class NGraph, class Stop = par::never_stop>
std::vector<vertex_id_t> s_bfs_distances_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, vertex_id_t src, Stop stop = {},
    par::thread_pool& pool = par::thread_pool::default_pool()) {
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  std::vector<vertex_id_t> dist(edges.size(), null_vertex<>);
  dist[src] = 0;
  detail::s_bfs_scratch ws(edges.size(), pool);
  detail::s_bfs_flood(edges, nodes, edge_degrees, s, src, dist,
                      [](vertex_id_t level) { return level; }, null_vertex<>, ws, stop);
  return dist;
}

/// s-distance between two hyperedges without materializing the line graph;
/// nullopt when unreachable (or either endpoint inactive or out of range).
/// The traversal ends at the level that reaches `dst`.
template <class EGraph, class NGraph, class Stop = par::never_stop>
std::optional<std::size_t> s_distance_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, vertex_id_t src, vertex_id_t dst, Stop stop = {},
    par::thread_pool& pool = par::thread_pool::default_pool()) {
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  if (src >= edge_degrees.size() || dst >= edge_degrees.size()) return std::nullopt;
  if (edge_degrees[src] < s || edge_degrees[dst] < s) return std::nullopt;
  if (src == dst) return 0;
  std::vector<vertex_id_t> dist(edges.size(), null_vertex<>);
  dist[src] = 0;
  detail::s_bfs_scratch ws(edges.size(), pool);
  if (!detail::s_bfs_flood(edges, nodes, edge_degrees, s, src, dist,
                           [](vertex_id_t level) { return level; }, dst, ws, stop)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(dist[dst]);
}

/// The s-neighbors of hyperedge `ei`, ascending: the row the materialized
/// s_linegraph::s_neighbors returns.
template <class EGraph, class NGraph>
std::vector<vertex_id_t> s_neighbors_implicit(const EGraph& edges, const NGraph& nodes,
                                              const std::vector<std::size_t>& edge_degrees,
                                              std::size_t s, vertex_id_t ei) {
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  std::vector<vertex_id_t> out;
  sparse_accumulator<>     overlap(edge_degrees.size());
  detail::for_each_s_neighbor(edges, nodes, edge_degrees, s, ei, overlap,
                              [&](vertex_id_t ej) { out.push_back(ej); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nw::hypergraph
