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
// parallel), using hashmap overlap counting through the hypernode lists:
// e ⊆ f  ⟺  |e ∩ f| == |e|.
#pragma once

#include <vector>

#include "nwhy/biadjacency.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/flat_hashmap.hpp"

namespace nw::hypergraph {

/// Ids of all toplexes of the hypergraph, ascending.  Generic over the
/// CSR-like structures (`biadjacency` pairs or block-decoding
/// `compressed_adjacency` views — the kernel keeps at most one live row
/// per structure, within the views' row-cache lifetime contract).
template <class EGraph, class NGraph>
std::vector<vertex_id_t> toplexes(const EGraph& hyperedges, const NGraph& hypernodes) {
  NWOBS_SCOPE_TIMER("toplex");
  const std::size_t ne = hyperedges.size();
  std::vector<char> dominated(ne, 0);

  // Empty hyperedges are contained in every non-empty one; among a family of
  // empty hyperedges only the smallest id can survive, and only if the
  // hypergraph has no non-empty hyperedge at all.
  bool        any_nonempty   = false;
  vertex_id_t first_empty_id = null_vertex<>;
  for (std::size_t i = 0; i < ne; ++i) {
    if (hyperedges.degree(i) > 0) {
      any_nonempty = true;
    } else if (first_empty_id == null_vertex<>) {
      first_empty_id = static_cast<vertex_id_t>(i);
    }
  }

  par::per_thread<counting_hashmap<>> maps;
  par::parallel_for(0, ne, [&](unsigned tid, std::size_t i) {
    vertex_id_t ei  = static_cast<vertex_id_t>(i);
    std::size_t di  = hyperedges.degree(i);
    if (di == 0) {
      dominated[i] = (any_nonempty || ei != first_empty_id) ? 1 : 0;
      return;
    }
    auto& overlap = maps.local(tid);
    overlap.clear();
    for (auto&& ev : hyperedges[i]) {
      for (auto&& ve : hypernodes[target(ev)]) {
        vertex_id_t ej = target(ve);
        if (ej != ei) overlap.increment(ej);
      }
    }
    bool        dom     = false;
    std::size_t checks  = 0;  // candidates whose containment test actually ran
    std::size_t skipped = 0;  // candidates skipped (dominator already found, or
                              // pruned because |e_i ∩ e_j| < |e_i|)
    overlap.for_each([&](vertex_id_t ej, std::uint32_t n) {
      if (dom || n < di) {  // |e_i ∩ e_j| == |e_i|  ⇒  e_i ⊆ e_j
        ++skipped;
        return;
      }
      ++checks;
      std::size_t dj = hyperedges.degree(ej);
      if (dj > di || (dj == di && ej < ei)) dom = true;
    });
    NWOBS_COUNT("toplex.dominance_checks", checks);
    NWOBS_COUNT("toplex.dominance_checks_skipped", skipped);
    dominated[i] = dom ? 1 : 0;
  });

  std::vector<vertex_id_t> result;
  for (std::size_t i = 0; i < ne; ++i) {
    if (!dominated[i]) result.push_back(static_cast<vertex_id_t>(i));
  }
  return result;
}

/// Serial reference implementation following the paper's Algorithm 3
/// shape (iterate hyperedges, maintain the candidate set Ě); used by the
/// property tests as ground truth.
template <class EGraph>
std::vector<vertex_id_t> toplexes_serial(const EGraph& hyperedges) {
  const std::size_t        ne = hyperedges.size();
  std::vector<vertex_id_t> candidates;

  auto subset_of = [&](vertex_id_t a, vertex_id_t b) {
    // a ⊆ b on sorted incidence lists.
    auto ra  = hyperedges[a];
    auto rb  = hyperedges[b];
    auto ita = ra.begin();
    auto itb = rb.begin();
    while (ita != ra.end() && itb != rb.end()) {
      if (target(*ita) == target(*itb)) {
        ++ita;
        ++itb;
      } else if (target(*ita) > target(*itb)) {
        ++itb;
      } else {
        return false;
      }
    }
    return ita == ra.end();
  };

  for (std::size_t i = 0; i < ne; ++i) {
    vertex_id_t ei   = static_cast<vertex_id_t>(i);
    bool        keep = true;
    for (std::size_t k = 0; k < candidates.size();) {
      vertex_id_t ej = candidates[k];
      if (subset_of(ei, ej)) {  // e_i ⊆ e_j: e_i is not maximal
        keep = false;
        break;
      }
      if (subset_of(ej, ei)) {  // e_j ⊂ e_i: evict the stale candidate
        candidates[k] = candidates.back();
        candidates.pop_back();
        continue;
      }
      ++k;
    }
    if (keep) candidates.push_back(ei);
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace nw::hypergraph
