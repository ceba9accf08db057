// nwhy/slinegraph/weighted.hpp
//
// Weighted s-line graph construction: the hashmap algorithm's overlap pass
// (detail::overlap_pass), with each surviving line-graph edge carrying its
// exact overlap size |e_i ∩ e_j|.  The overlap is the "strength of the
// connection" the paper's Fig. 5 renders as edge width; keeping it enables
// weighted s-walk analytics (weighted s-distance via SSSP) and thresholding
// a single weighted 1-line graph into every s-line graph without
// reconstruction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/algorithms/sssp.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "nwpar/parallel_for.hpp"

namespace nw::hypergraph {

/// Edge list of {e_i, e_j, |e_i ∩ e_j|} for all pairs with overlap >= s.
/// A non-empty `id_map` (row id -> output id) renames both endpoints, each
/// pair kept as {min, max}.
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::edge_list<std::uint32_t> to_two_graph_weighted(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, Partition part = {}, std::span<const vertex_id_t> id_map = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.weighted");
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  // entry == edge_list<uint32_t>::value_type: (e_i, e_j, |e_i ∩ e_j|).
  using entry = nw::graph::edge_list<std::uint32_t>::value_type;
  par::per_thread<std::vector<entry>> out;
  detail::overlap_pass(edges, nodes, edge_degrees, s, edges.size(), detail::row_id, part,
                       [&out, id_map](unsigned tid, vertex_id_t ei, vertex_id_t ej,
                                      std::uint32_t c) {
                         const auto [a, b] = detail::renamed_pair(id_map, ei, ej);
                         out.local(tid).push_back({a, b, c});
                       });
  // Bulk SoA materialization (parallel scan + scatter; the weight column
  // rides along with the endpoints).
  {
    NWOBS_SCOPE_TIMER("slinegraph.merge");
    return nw::graph::edge_list<std::uint32_t>::from_thread_buffers(out, edges.size());
  }
}

/// Threshold a weighted 1-line edge list into the (unweighted) s-line edge
/// list for a larger s — no recomputation of overlaps.
inline nw::graph::edge_list<> threshold_weighted(
    const nw::graph::edge_list<std::uint32_t>& weighted, std::size_t s) {
  nw::graph::edge_list<> out(weighted.num_vertices());
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    auto [a, b, w] = weighted[i];
    if (w >= s) out.push_back(a, b);
  }
  return out;
}

/// Convert a weighted s-line edge list into a symmetric CSR whose edge
/// weights are *costs*: cost = 1 / overlap, so strongly-overlapping
/// hyperedges are "close".  Feeds the weighted s-distance below.
inline nw::graph::adjacency<float> weighted_linegraph_csr(
    const nw::graph::edge_list<std::uint32_t>& weighted, std::size_t num_entities) {
  nw::graph::edge_list<float> costs(num_entities);
  costs.reserve(2 * weighted.size());
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    auto [a, b, w] = weighted[i];
    float cost     = 1.0f / static_cast<float>(w);
    costs.push_back(a, b, cost);
    costs.push_back(b, a, cost);
  }
  return nw::graph::adjacency<float>(costs, num_entities);
}

/// Overlap-weighted s-distance between two hyperedges: the cheapest s-walk
/// where each step costs 1/|e_i ∩ e_j| (strong overlaps shorten the walk).
/// Computed with delta-stepping on the weighted line graph; infinity
/// (std::numeric_limits<float>::max()) when unreachable.
inline float weighted_s_distance(const nw::graph::adjacency<float>& weighted_csr,
                                 vertex_id_t src, vertex_id_t dst, float delta = 0.25f) {
  auto dist = nw::graph::sssp_delta_stepping(weighted_csr, src, delta);
  return dist[dst];
}

}  // namespace nw::hypergraph
