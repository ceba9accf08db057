// nwhy/biadjacency.hpp
//
// The bipartite representation of a hypergraph (paper Sec. III-B.1): two
// *separate but mutually indexed* CSR structures built from one biedgelist.
//
//   biadjacency<0>  — outer range over hyperedges, inner range = the
//                     hypernodes each hyperedge is incident on
//   biadjacency<1>  — outer range over hypernodes, inner range = the
//                     hyperedges each hypernode joins
//
// The bi-adjacency matrix is generally rectangular (|E| x |V|); nothing here
// assumes the two cardinalities match.  Models the range-of-ranges contract:
// outer random_access_range, inner forward_range.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ranges>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwhy/biedgelist.hpp"
#include "nwhy/bipartite_graph_base.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

// Make the Listing-3 `target(e)` helper available throughout the hypergraph
// namespace (inner-range elements are plain ids, so ADL alone cannot find it).
using nw::graph::target;

template <int idx, class... Attributes>
class biadjacency : public bipartite_graph_base {
  static_assert(idx == 0 || idx == 1, "biadjacency is indexed by partition 0 or 1");

public:
  using inner_range = typename nw::graph::adjacency<Attributes...>::inner_range;
  using const_iterator = typename nw::graph::adjacency<Attributes...>::const_iterator;

  biadjacency() : bipartite_graph_base(0, 0) {}

  /// Build from a bipartite edge list.  For idx == 0 the outer index space
  /// is the hyperedges; for idx == 1 the roles are transposed (this is how
  /// the dual hypergraph H* is materialized: biadjacency<1> of H is
  /// biadjacency<0> of H*).
  explicit biadjacency(const biedgelist<Attributes...>& el)
      : bipartite_graph_base(el.num_vertices(0), el.num_vertices(1)) {
    nw::graph::edge_list<Attributes...> flat(num_sources());
    flat.reserve(el.size());
    const auto& e_ids = el.edge_ids();
    const auto& n_ids = el.node_ids();
    for (std::size_t i = 0; i < el.size(); ++i) {
      nw::vertex_id_t s = idx == 0 ? e_ids[i] : n_ids[i];
      nw::vertex_id_t t = idx == 0 ? n_ids[i] : e_ids[i];
      push_converted(flat, el, i, s, t, std::index_sequence_for<Attributes...>{});
    }
    csr_ = nw::graph::adjacency<Attributes...>(flat, num_sources(), num_targets());
  }

  /// Adopt a pre-built CSR (the NWHYCSR2 snapshot path, see
  /// nwhy/io/csr_snapshot.hpp): no biedgelist round-trip, no per-element
  /// loop.  `csr` must have `n_sources` rows and target ids < `n_targets`
  /// (partition `1 - idx`); it may be a zero-copy mmap-backed view, in which
  /// case the caller keeps the backing storage alive.
  static biadjacency from_csr(nw::graph::adjacency<Attributes...> csr, std::size_t n_sources,
                              std::size_t n_targets) {
    NW_ASSERT(csr.num_vertices() == n_sources,
              "from_csr: CSR row count must match the declared source cardinality");
    biadjacency g;
    g.vertex_cardinality_[idx]     = n_sources;
    g.vertex_cardinality_[1 - idx] = n_targets;
    g.csr_                         = std::move(csr);
    return g;
  }

  /// Cardinality of this structure's outer index space.
  [[nodiscard]] std::size_t num_sources() const { return vertex_cardinality_[idx]; }
  /// Cardinality of the opposite index space (the inner ids).
  [[nodiscard]] std::size_t num_targets() const { return vertex_cardinality_[1 - idx]; }

  [[nodiscard]] std::size_t size() const { return num_sources(); }
  [[nodiscard]] std::size_t num_edges() const { return csr_.num_edges(); }

  [[nodiscard]] std::size_t degree(std::size_t u) const { return csr_.degree(u); }
  [[nodiscard]] std::vector<std::size_t> degrees() const { return csr_.degrees(); }

  [[nodiscard]] inner_range operator[](std::size_t u) const { return csr_[u]; }

  /// Sorted-row point query: is `t` among the targets of source `u`?
  /// Relies on the canonical invariant (rows sorted ascending) that every
  /// construction path — sort_and_unique'd edge lists, canonical snapshots —
  /// maintains.
  [[nodiscard]] bool contains(std::size_t u, nw::vertex_id_t t) const {
    auto row = csr_[u];
    auto it  = std::lower_bound(row.begin(), row.end(), t,
                                [](auto&& entry, nw::vertex_id_t val) { return target(entry) < val; });
    return it != row.end() && target(*it) == t;
  }

  [[nodiscard]] const_iterator begin() const { return csr_.begin(); }
  [[nodiscard]] const_iterator end() const { return csr_.end(); }

  /// Underlying CSR (for kernels using raw offsets).
  [[nodiscard]] const nw::graph::adjacency<Attributes...>& csr() const { return csr_; }

private:
  template <std::size_t... Is>
  static void push_converted(nw::graph::edge_list<Attributes...>& flat,
                             [[maybe_unused]] const biedgelist<Attributes...>& el,
                             [[maybe_unused]] std::size_t i, nw::vertex_id_t s,
                             nw::vertex_id_t t, std::index_sequence<Is...>) {
    flat.push_back(s, t, el.template attribute_column<Is>()[i]...);
  }

  nw::graph::adjacency<Attributes...> csr_;
};

// Range-of-ranges conformance (Sec. III-A).
static_assert(std::ranges::random_access_range<biadjacency<0>>);
static_assert(std::ranges::forward_range<std::ranges::range_reference_t<biadjacency<0>>>);
static_assert(std::ranges::random_access_range<biadjacency<1>>);

/// Free-function facade matching the paper's Listing 3 call style:
/// `num_vertices(hyperedges, 0)`.
template <int idx, class... Attributes>
std::size_t num_vertices(const biadjacency<idx, Attributes...>& g, std::size_t partition) {
  return partition == static_cast<std::size_t>(idx) ? g.num_sources() : g.num_targets();
}

/// One immutable CSR generation of a (possibly mutating) hypergraph: the
/// canonical edge list and both bi-adjacency CSRs built from it.  Held by
/// shared_ptr: a reader that pins the generation (a mid-flight query, a
/// snapshot writer, a serving thread, an adjoin view) keeps it — including
/// any mmap'd snapshot bytes backing zero-copy CSR views — alive across a
/// concurrent compaction that swaps the owner to a newer generation.
struct hypergraph_generation {
  biedgelist<>                el;
  biadjacency<0>              hyperedges;
  biadjacency<1>              hypernodes;
  /// Owns the mmap'd snapshot bytes when the CSRs are zero-copy views.
  std::shared_ptr<const void> io_keepalive;
  /// Monotonic per-hypergraph generation counter (0 = initial build).
  std::uint64_t               id = 0;
};

/// Build both CSRs of a generation from a canonical (sort_and_unique'd)
/// edge list, which the generation then owns.
inline std::shared_ptr<hypergraph_generation> make_generation(biedgelist<> el,
                                                              std::uint64_t id = 0) {
  auto gen        = std::make_shared<hypergraph_generation>();
  gen->el         = std::move(el);
  gen->hyperedges = biadjacency<0>(gen->el);
  gen->hypernodes = biadjacency<1>(gen->el);
  gen->id         = id;
  return gen;
}

}  // namespace nw::hypergraph
