// nwhy/algorithms/toplex.hpp
//
// Toplex computation (paper Algorithm 3): a toplex is a maximal hyperedge —
// one contained in no other hyperedge.  Our parallel formulation avoids the
// shared mutable candidate set of the paper's pseudocode by making the
// dominance test symmetric and race-free: hyperedge e is *dominated* iff
// there exists f != e with e ⊆ f and (|f| > |e|, or |f| == |e| and f has the
// smaller id).  The tie-break keeps exactly one representative of each
// family of duplicate hyperedges, matching the sequential algorithm's
// output.  Each hyperedge is tested independently (embarrassingly
// parallel) by one predicate, `dominated`, which the incremental toplex
// maintenance (nwhy/slinegraph/incremental.hpp) calls too: every superset
// of e contains e's minimum-degree member, so only that member's incidence
// list holds candidates, and each candidate that wins the tie-break is
// probed member by member with `contains`.
//
// Every entry point takes a trailing `ext_ids` span: when non-empty,
// ext_ids[i] is the id that orders edge i in the tie-breaks (a relabeled
// hypergraph passes its storage-row -> external-id map, so the duplicate
// representative kept is the one with the smallest *external* id); empty
// means the edge ids themselves.
#pragma once

#include <span>
#include <vector>

#include "nwhy/biadjacency.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Is non-empty hyperedge `i` dominated?  Scans the incidence list of i's
/// minimum-degree member (the pivot) for some j ≠ i that wins the
/// tie-break (dⱼ > dᵢ, or dⱼ = dᵢ and j orders before i) and contains
/// every member of i, probed with `edges.contains(j, v)` up to the first
/// miss.  Empty edges are the caller's business (`toplex_ids` resolves
/// them); this answers false.  Holds one live row per structure — row i
/// of `edges` and the pivot's row of `nodes` — so it runs on compressed
/// views within their row-cache contract.  Counts `toplex.dominance_checks` (subset tests run)
/// and `toplex.dominance_checks_skipped` (pivot candidates rejected by
/// degree or tie-break, or left after a dominator was found).
template <class EGraph, class NGraph>
bool dominated(const EGraph& edges, const NGraph& nodes, vertex_id_t i,
               std::span<const vertex_id_t> ext_ids = {}) {
  const std::size_t di = edges.degree(i);
  if (di == 0) return false;
  auto              order   = [&](vertex_id_t x) { return ext_ids.empty() ? x : ext_ids[x]; };
  const vertex_id_t oi      = order(i);
  auto&&            members = edges[i];
  vertex_id_t       pivot   = null_vertex<>;
  for (auto&& ev : members) {
    const vertex_id_t v = target(ev);
    if (pivot == null_vertex<> || nodes.degree(v) < nodes.degree(pivot)) pivot = v;
  }
  bool        dom    = false;
  std::size_t checks = 0;
  for (auto&& ve : nodes[pivot]) {
    const vertex_id_t j  = target(ve);
    const std::size_t dj = edges.degree(j);
    if (j == i || dj < di || (dj == di && order(j) > oi)) continue;
    ++checks;
    dom = true;
    for (auto&& ev : members) {
      const vertex_id_t v = target(ev);
      if (v != pivot && !edges.contains(j, v)) {
        dom = false;
        break;
      }
    }
    if (dom) break;
  }
  NWOBS_COUNT("toplex.dominance_checks", checks);
  NWOBS_COUNT("toplex.dominance_checks_skipped", nodes.degree(pivot) - 1 - checks);
  return dom;
}

/// Per-edge `dominated` flags (0 for empty edges), one parallel pass.
template <class EGraph, class NGraph>
std::vector<char> dominance_flags(const EGraph& edges, const NGraph& nodes,
                                  std::span<const vertex_id_t> ext_ids = {}) {
  std::vector<char> flags(edges.size(), 0);
  par::parallel_for(0, edges.size(), [&](std::size_t i) {
    flags[i] = dominated(edges, nodes, static_cast<vertex_id_t>(i), ext_ids) ? 1 : 0;
  });
  return flags;
}

/// Ascending ids of the non-empty edges whose flag is clear, plus the
/// empty-edge rule: an empty edge is contained in every non-empty one, and
/// among empty edges only the one ordering first survives — and only when
/// the hypergraph has no non-empty edge at all.
template <class EGraph>
std::vector<vertex_id_t> toplex_ids(const EGraph& edges, const std::vector<char>& flags,
                                    std::span<const vertex_id_t> ext_ids = {}) {
  const std::size_t ne           = edges.size();
  bool              any_nonempty = false;
  for (std::size_t i = 0; i < ne && !any_nonempty; ++i) any_nonempty = edges.degree(i) > 0;
  std::vector<vertex_id_t> result;
  if (!any_nonempty) {
    if (ne == 0) return result;
    vertex_id_t first = 0;
    for (std::size_t i = 1; i < ext_ids.size(); ++i) {
      if (ext_ids[i] < ext_ids[first]) first = static_cast<vertex_id_t>(i);
    }
    result.push_back(first);
    return result;
  }
  for (std::size_t i = 0; i < ne; ++i) {
    if (edges.degree(i) > 0 && !flags[i]) result.push_back(static_cast<vertex_id_t>(i));
  }
  return result;
}

/// Ids of all toplexes of the hypergraph, ascending.  Generic over the
/// CSR-like structures (`biadjacency` pairs or block-decoding
/// `compressed_adjacency` views) that answer `size`, `degree`,
/// `operator[]` and `contains`.
template <class EGraph, class NGraph>
std::vector<vertex_id_t> toplexes(const EGraph& hyperedges, const NGraph& hypernodes,
                                  std::span<const vertex_id_t> ext_ids = {}) {
  NWOBS_SCOPE_TIMER("toplex");
  return toplex_ids(hyperedges, dominance_flags(hyperedges, hypernodes, ext_ids), ext_ids);
}

}  // namespace nw::hypergraph
