// nwhy/ref/serial_motif.hpp
//
// Serial reference wedge/triad/butterfly census — the ground truth of the
// parallel engine (nwhy/algorithms/motif.hpp), which derives all three from
// hashmap-counted pair overlaps.  Everything here comes from the
// definitions on the plain incidence structure: wedges and triads from the
// center-major triple loop — deliberately a different decomposition than
// the engine's pair-major sums, so the two sides cross-check the
// combinatorics, not just the loop transcription — and butterflies from
// Σ_{e<f} C(|e ∩ f|, 2) over every pair, with sorted-merge overlaps.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "nwhy/ref/incidence.hpp"
#include "nwhy/ref/serial_slinegraph.hpp"  // overlap_size
#include "nwutil/defs.hpp"

namespace nw::hypergraph::ref {

/// The serial census; field meanings match nwhy/algorithms/motif.hpp.
struct motif_census {
  std::uint64_t wedges      = 0;
  std::uint64_t triads      = 0;
  std::uint64_t open_wedges = 0;
  std::uint64_t butterflies = 0;
};

/// Census by definition.  Center-major loops for wedges/triads (a wedge
/// per shared hypernode, closed when the pair shares >= 2), pair-major
/// loop for butterflies.
inline motif_census motif_counts(const incidence& h) {
  motif_census out;
  for (const auto& incident : h.nodes) {
    for (std::size_t i = 0; i < incident.size(); ++i) {
      for (std::size_t j = i + 1; j < incident.size(); ++j) {
        ++out.wedges;
        if (overlap_size(h.edges[incident[i]], h.edges[incident[j]]) >= 2) ++out.triads;
      }
    }
  }
  out.open_wedges = out.wedges - out.triads;
  const std::size_t ne = h.num_edges();
  for (std::size_t e = 0; e < ne; ++e) {
    for (std::size_t f = e + 1; f < ne; ++f) {
      std::uint64_t c = overlap_size(h.edges[e], h.edges[f]);
      out.butterflies += c * (c - 1) / 2;
    }
  }
  return out;
}

}  // namespace nw::hypergraph::ref
