// nwhy/algorithms/adjoin_algorithms.hpp
//
// AdjoinBFS, AdjoinCC and HyperCC (paper Sec. III-C): hypergraph BFS /
// connected components computed by running *plain graph algorithms* on the
// adjoin representation, then splitting the resultant array back into the
// hyperedge and hypernode parts.  This is the payoff of the single shared
// index space: no hypergraph-specific algorithm required.
//
//   AdjoinBFS — direction-optimizing BFS (Beamer) on the adjoin rows
//   HyperCC   — min-label propagation (Sec. III-C.1)
//   AdjoinCC  — Afforest (Sutton et al.)
//
// All run on the adjoin row view (nwhy/adjoin.hpp), which reads the
// generation's E2N / N2E rows with the id shift applied.  HyperCC's
// two-sided bipartite sweep is label propagation on exactly these rows, so
// it is not written a second time.
#pragma once

#include <utility>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/algorithms/connected_components.hpp"
#include "nwhy/adjoin.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

struct adjoin_bfs_result {
  std::vector<vertex_id_t> parents_edge;  ///< parent ids are in the *shared* index set
  std::vector<vertex_id_t> parents_node;
};

/// BFS from hyperedge `source_edge` via direction-optimizing graph BFS.
inline adjoin_bfs_result adjoin_bfs(const adjoin_graph& g, vertex_id_t source_edge) {
  NW_ASSERT(source_edge < g.nrealedges(), "adjoin_bfs source must be a hyperedge id");
  // The per-level counters (frontier sizes, direction switches, edges
  // relaxed) are emitted by the underlying engine under "graph_bfs.*";
  // this wrapper contributes the phase timer and run count so profiles can
  // attribute those engine counters to AdjoinBFS invocations.
  NWOBS_SCOPE_TIMER("adjoin_bfs");
  NWOBS_COUNT("adjoin_bfs.runs", 1);
  auto parents = nw::graph::bfs_direction_optimizing(g, source_edge);
  auto [pe, pn] = split_results(parents, g.nrealedges());
  return {std::move(pe), std::move(pn)};
}

/// BFS hop distances in the shared index set (hypernodes at odd depths).
inline std::pair<std::vector<vertex_id_t>, std::vector<vertex_id_t>> adjoin_bfs_distances(
    const adjoin_graph& g, vertex_id_t source_edge) {
  auto dist = nw::graph::bfs_distances(g, source_edge);
  return split_results(dist, g.nrealedges());
}

/// Component labels split by index space.  Both CC engines name a
/// component by its minimum shared id: the smallest hyperedge id when the
/// component holds a hyperedge, nE + v for an isolated hypernode v.
struct hyper_cc_result {
  std::vector<vertex_id_t> labels_edge;
  std::vector<vertex_id_t> labels_node;
};

/// Split shared-id component labels into their hyperedge and hypernode parts.
inline hyper_cc_result split_components(const std::vector<vertex_id_t>& labels,
                                        std::size_t                     nrealedges) {
  auto [le, ln] = split_results(labels, nrealedges);
  return {std::move(le), std::move(ln)};
}

/// HyperCC: min-label propagation over the adjoin rows.
inline hyper_cc_result hyper_cc(const adjoin_graph& g) {
  return split_components(nw::graph::cc_label_propagation(g), g.nrealedges());
}

/// AdjoinCC: Afforest over the adjoin rows.  Same labels as hyper_cc.
inline hyper_cc_result adjoin_cc(const adjoin_graph& g) {
  NWOBS_SCOPE_TIMER("adjoin_cc");
  return split_components(nw::graph::cc_afforest(g), g.nrealedges());
}

}  // namespace nw::hypergraph
