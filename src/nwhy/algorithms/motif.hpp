// nwhy/algorithms/motif.hpp
//
// Hypergraph triad/wedge counting over the bipartite form (ROADMAP item
// 3a): the first workload that consumes the bi-adjacency structure as a
// motif substrate rather than a traversal substrate.  A *wedge* is an
// unordered pair of distinct hyperedges {e, f} seen through one shared
// hypernode v (the wedge center), so a pair overlapping in c = |e ∩ f|
// hypernodes contributes c wedges — one per center.  The census therefore
// follows from the pair overlaps alone, which the s-line construction
// kernel (detail::count_overlaps) counts: each hyperedge e counts its
// overlaps with every larger-id f through the transpose, and each pair
// with overlap c >= 1 adds
//
//   wedges        c — one per center; the total is Σ_v C(d(v), 2)
//   triads        c when c >= 2: every wedge of a pair sharing >= 2
//                 hypernodes is closed (the pair stays adjacent without
//                 the center, i.e. the wedge is part of a 4-cycle of the
//                 bipartite graph)
//   butterflies   C(c, 2): the 2x2 bicliques {e, f} x {u, v}, each once
//
// and open_wedges = wedges - triads.  Cost: Σ_v C(d(v), 2) accumulator
// increments, one per wedge.
//
// Parallel structure: parallel_for over hyperedges, a per-thread overlap
// accumulator, counts in par::per_thread slots merged at the end.  All counters
// are integers, so the merge is order-independent and the census is
// deterministic at every thread count and schedule.
//
// Serial oracle: src/nwhy/ref/serial_motif.hpp — the same census from the
// definitional triple loop *and* an independent pair-major butterfly
// formula, differentially asserted by tests/test_motif.cpp.
#pragma once

#include <cstdint>

#include "nwhy/slinegraph/construction.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"

namespace nw::hypergraph {

/// The hypergraph motif census (see header comment for definitions).
struct motif_census {
  std::uint64_t wedges      = 0;  ///< hyperedge pairs per shared hypernode
  std::uint64_t triads      = 0;  ///< closed wedges: pair shares >= 2 nodes
  std::uint64_t open_wedges = 0;  ///< wedges - triads
  std::uint64_t butterflies = 0;  ///< 2x2 bicliques, each counted once

  friend bool operator==(const motif_census&, const motif_census&) = default;
};

/// Count the wedge/triad/butterfly census of the bipartite form.  Generic
/// over the CSR-like incidence structures (biadjacency<0>/<1> or any view
/// with size()/operator[]): `hyperedges[e]` lists e's member hypernodes,
/// `hypernodes[v]` lists v's incident hyperedges; both rows sorted unique.
/// The census is label-invariant, so it may run on internally-relabeled
/// storage unchanged.
template <class EGraph, class NGraph>
motif_census count_motifs(const EGraph& hyperedges, const NGraph& hypernodes) {
  NWOBS_SCOPE_TIMER("motif");
  auto                          maps = detail::overlap_accumulators(hyperedges.size());
  par::per_thread<motif_census> partial;
  par::parallel_for(0, hyperedges.size(), [&](unsigned tid, std::size_t i) {
    const auto        ei      = static_cast<vertex_id_t>(i);
    auto&             overlap = maps.local(tid);
    [[maybe_unused]] const std::size_t probes = detail::count_overlaps(
        hyperedges[ei], hypernodes, [ei](vertex_id_t ej) { return ej > ei; }, overlap);
    auto& local = partial.local(tid);
    overlap.for_each([&](vertex_id_t, std::uint32_t n) {
      const std::uint64_t c = n;
      local.wedges += c;
      if (c >= 2) local.triads += c;
      local.butterflies += c * (c - 1) / 2;
    });
    NWOBS_COUNT("motif.wedges_scanned", probes);
  });
  motif_census out;
  partial.for_each([&](const motif_census& p) {
    out.wedges += p.wedges;
    out.triads += p.triads;
    out.butterflies += p.butterflies;
  });
  out.open_wedges = out.wedges - out.triads;
  return out;
}

}  // namespace nw::hypergraph
