// nwhy/algorithms/motif.hpp
//
// Hypergraph triad/wedge counting over the bipartite form (ROADMAP item
// 3a): the first workload that consumes the bi-adjacency structure as a
// motif substrate rather than a traversal substrate.  The census follows
// the per-wedge decomposition: a *wedge* is an unordered pair of distinct
// hyperedges {e, f} seen through one shared hypernode v (the wedge
// center), so a pair overlapping in c hypernodes contributes c wedges —
// one per center.  Per wedge, a sorted-merge intersection of the two
// hyperedge member lists yields |e ∩ f|, from which the whole census
// follows:
//
//   wedges        Σ_v C(d(v), 2) — every center/pair combination
//   triads        wedges whose hyperedge pair overlaps in >= 2 hypernodes
//                 (the closed form: the pair stays adjacent without the
//                 center, i.e. the wedge participates in a 4-cycle of the
//                 bipartite graph)
//   open_wedges   wedges - triads
//   butterflies   2x2 bicliques {e, f} x {u, v}, each counted once:
//                 Σ_{e<f} C(|e ∩ f|, 2), accumulated per wedge as
//                 Σ (|e ∩ f| - 1) / 2 — each of the c centers of a pair
//                 sees the c-1 *other* shared nodes, so the per-wedge sum
//                 double-counts every butterfly exactly twice
//
// Parallel structure: parallel_for over wedge centers (hypernodes), the
// pair loop and intersections inline per center, counts in par::per_thread
// slots merged at the end.  All counters are integers, so the merge is
// order-independent and the census is deterministic at every thread count
// and schedule.
//
// Serial oracle: src/nwhy/ref/serial_motif.hpp — the same census from the
// definitional triple loop *and* an independent pair-major butterfly
// formula, differentially asserted by tests/test_motif.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// The hypergraph motif census (see header comment for definitions).
struct motif_census {
  std::uint64_t wedges      = 0;  ///< hyperedge pairs per shared hypernode
  std::uint64_t triads      = 0;  ///< closed wedges: pair shares >= 2 nodes
  std::uint64_t open_wedges = 0;  ///< wedges - triads
  std::uint64_t butterflies = 0;  ///< 2x2 bicliques, each counted once

  friend bool operator==(const motif_census&, const motif_census&) = default;
};

namespace detail {

/// |a ∩ b| of two sorted CSR rows (sorted-merge; rows of a canonical
/// bi-adjacency are sorted unique).  Returns the count plus the number of
/// comparison steps for the observability counter.
template <class RangeA, class RangeB>
std::pair<std::uint64_t, std::uint64_t> row_overlap(RangeA&& a, RangeB&& b) {
  std::uint64_t count = 0, steps = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    ++steps;
    vertex_id_t x = nw::graph::target(*i);
    vertex_id_t y = nw::graph::target(*j);
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return {count, steps};
}

}  // namespace detail

/// Count the wedge/triad/butterfly census of the bipartite form.  Generic
/// over the CSR-like incidence structures (biadjacency<0>/<1> or any view
/// with size()/operator[]): `hyperedges[e]` lists e's member hypernodes,
/// `hypernodes[v]` lists v's incident hyperedges; both rows sorted unique.
/// The census is label-invariant, so it may run on internally-relabeled
/// storage unchanged.
template <class EGraph, class NGraph>
motif_census count_motifs(const EGraph& hyperedges, const NGraph& hypernodes) {
  NWOBS_SCOPE_TIMER("motif");
  par::per_thread<std::uint64_t>           wedges, triads, shared_excess;
  par::per_thread<std::vector<vertex_id_t>> scratch;
  par::parallel_for(0, hypernodes.size(), [&](unsigned tid, std::size_t v) {
    auto& incident = scratch.local(tid);
    incident.clear();
    for (auto&& t : hypernodes[v]) incident.push_back(nw::graph::target(t));
    if (incident.size() < 2) return;
    NWOBS_COUNT("motif.centers", 1);
    std::uint64_t local_wedges = 0, local_triads = 0, local_excess = 0, local_steps = 0;
    for (std::size_t i = 0; i < incident.size(); ++i) {
      for (std::size_t j = i + 1; j < incident.size(); ++j) {
        auto [c, steps] = detail::row_overlap(hyperedges[incident[i]], hyperedges[incident[j]]);
        ++local_wedges;
        if (c >= 2) ++local_triads;
        local_excess += c - 1;  // the c-1 shared nodes besides this center
        local_steps += steps;
      }
    }
    wedges.local(tid) += local_wedges;
    triads.local(tid) += local_triads;
    shared_excess.local(tid) += local_excess;
    NWOBS_COUNT("motif.wedges_scanned", local_wedges);
    NWOBS_COUNT("motif.intersection_steps", local_steps);
  });
  motif_census out;
  wedges.for_each([&](std::uint64_t& x) { out.wedges += x; });
  triads.for_each([&](std::uint64_t& x) { out.triads += x; });
  std::uint64_t excess = 0;
  shared_excess.for_each([&](std::uint64_t& x) { excess += x; });
  out.open_wedges = out.wedges - out.triads;
  // Each butterfly {e,f} x {u,v} is seen from both of its centers: center u
  // counts v in the excess and vice versa, so the excess sum is exactly
  // twice the butterfly count.
  out.butterflies = excess / 2;
  return out;
}

}  // namespace nw::hypergraph
