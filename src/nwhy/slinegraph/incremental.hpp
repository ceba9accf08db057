// nwhy/slinegraph/incremental.hpp
//
// Incrementally-maintained derived structures for the dynamic hypergraph
// engine (ROADMAP item 1).  Rebuilding an s-line graph or the toplex set
// after every small mutation costs the full construction; these classes
// instead maintain the derived structure under per-hyperedge updates,
// recomputing only what the dirty set touches.  Both keep their own
// `dynamic_incidence` (so they stay coherent across compactions of the
// source hypergraph), built once from the hypergraph and spliced by one
// `update_edge`:
//
//   incremental_slinegraph — starts from the library's s-line build
//     (`make_s_linegraph`).  When hyperedge e's member list changes, only
//     line-graph pairs incident on e can appear or disappear (a pair {f, g}
//     with e ∉ {f, g} has an unchanged overlap), so the update drops e's
//     pairs and recounts overlaps against e alone with the construction
//     kernel (detail::count_overlaps).  s-connectivity is kept in the
//     library's union-find forest (nw::graph::detail::link_roots, the one
//     under Afforest): insertions link eagerly; a deletion invalidates the
//     forest and the next component query rebuilds it from the maintained
//     adjacency (deletions can split components, which union-find cannot
//     express).
//
//   incremental_toplexes — a non-empty edge f's dominance status can only
//     flip through its relation to the updated edge e, and any such f
//     satisfies f ⊆ e_old or f ⊆ e_new, so recomputing e plus the edges
//     incident on the dirty nodes (old ∪ new members of e) that are no
//     larger than max(|e_old|, |e_new|) is exhaustive.  Each recomputation
//     is the batch kernel's `dominated` predicate
//     (nwhy/algorithms/toplex.hpp) on the maintained incidence.
//
// Both are differential-tested against full rebuilds and the `ref::`
// oracles in tests/test_dynamic.cpp; results are identical by
// construction, not approximately.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/algorithms/connected_components.hpp"
#include "nwhy/algorithms/toplex.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"

namespace nw::hypergraph {

/// Per-entity sorted id lists (a hyperedge's members, or a hypernode's
/// edges) with the read interface the kernels take from `biadjacency`.
struct incidence_lists {
  std::vector<std::vector<vertex_id_t>> rows;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
  [[nodiscard]] std::size_t degree(std::size_t u) const { return rows[u].size(); }
  [[nodiscard]] const std::vector<vertex_id_t>& operator[](std::size_t u) const { return rows[u]; }
  [[nodiscard]] bool contains(std::size_t u, vertex_id_t t) const {
    return std::binary_search(rows[u].begin(), rows[u].end(), t);
  }
};

/// Both sides of a hypergraph's incidence, maintained under hyperedge
/// updates: each edge's sorted members and the sorted transpose.
class dynamic_incidence {
public:
  explicit dynamic_incidence(const NWHypergraph& h) {
    edges_.rows.resize(h.num_hyperedges());
    nodes_.rows.resize(h.num_hypernodes());
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      edges_.rows[e] = h.edge_members(static_cast<vertex_id_t>(e));
      for (vertex_id_t v : edges_.rows[e]) nodes_.rows[v].push_back(static_cast<vertex_id_t>(e));
    }
  }

  [[nodiscard]] const incidence_lists& edges() const { return edges_; }
  [[nodiscard]] const incidence_lists& nodes() const { return nodes_; }

  /// Replace hyperedge `e`'s member list (insert when new — intermediate
  /// ids become empty edges; ids past the node space grow it) and return
  /// the previous one.
  std::vector<vertex_id_t> update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (std::size_t{e} >= edges_.size()) edges_.rows.resize(std::size_t{e} + 1);
    if (!members.empty() && std::size_t{members.back()} >= nodes_.size()) {
      nodes_.rows.resize(std::size_t{members.back()} + 1);
    }
    for (vertex_id_t v : edges_.rows[e]) {
      auto& edges = nodes_.rows[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it != edges.end() && *it == e) edges.erase(it);
    }
    for (vertex_id_t v : members) {
      auto& edges = nodes_.rows[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it == edges.end() || *it != e) edges.insert(it, e);
    }
    std::swap(edges_.rows[e], members);
    return members;
  }

private:
  incidence_lists edges_;  ///< per-edge sorted members
  incidence_lists nodes_;  ///< transpose, sorted
};

/// An s-line graph maintained under hyperedge updates.  Owns its own copy
/// of the composed incidence plus the line-graph adjacency and a lazily
/// repaired union-find forest over it.
class incremental_slinegraph {
public:
  incremental_slinegraph(const NWHypergraph& h, std::size_t s)
      : s_(s), inc_(h), adj_(inc_.edges().size()) {
    const auto lines = h.make_s_linegraph(s);
    for (std::size_t e = 0; e < lines.num_vertices(); ++e) {
      for (auto&& f : lines.graph()[e]) adj_[e].push_back(target(f));
    }
    rebuild_union_find();
  }

  [[nodiscard]] std::size_t s() const { return s_; }
  [[nodiscard]] std::size_t num_vertices() const { return adj_.size(); }
  [[nodiscard]] bool        active(vertex_id_t e) const {
    return e < inc_.edges().size() && inc_.edges().degree(e) >= s_;
  }

  /// Replace hyperedge `e`'s member list (see dynamic_incidence::update_edge).
  void update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    inc_.update_edge(e, std::move(members));
    if (adj_.size() < inc_.edges().size()) {
      const std::size_t old = parent_.size();
      adj_.resize(inc_.edges().size());
      parent_.resize(adj_.size());
      std::iota(parent_.begin() + static_cast<std::ptrdiff_t>(old), parent_.end(),
                static_cast<vertex_id_t>(old));
    }
    // Drop every line-graph pair incident on e.  A deletion can split an
    // s-component, which the union-find cannot undo: mark it for rebuild.
    if (!adj_[e].empty()) {
      for (vertex_id_t f : adj_[e]) {
        auto& nbrs = adj_[f];
        auto  it   = std::lower_bound(nbrs.begin(), nbrs.end(), e);
        if (it != nbrs.end() && *it == e) nbrs.erase(it);
      }
      adj_[e].clear();
      cc_valid_ = false;
    }
    // Recount overlaps against e alone — the only dirty endpoint.
    if (active(e)) {
      overlap_.ensure_keys(inc_.edges().size());
      detail::count_overlaps(
          inc_.edges()[e], inc_.nodes(),
          [this, e](vertex_id_t f) { return f != e && active(f); }, overlap_);
      std::vector<vertex_id_t> nbrs;
      overlap_.for_each([&](vertex_id_t f, std::uint32_t n) {
        if (n >= s_) nbrs.push_back(f);
      });
      std::sort(nbrs.begin(), nbrs.end());
      for (vertex_id_t f : nbrs) {
        auto& fn = adj_[f];
        fn.insert(std::lower_bound(fn.begin(), fn.end(), e), e);
        if (cc_valid_) nw::graph::detail::link_roots(parent_, e, f);
      }
      adj_[e] = std::move(nbrs);
    }
  }

  /// Remove hyperedge `e` (its member list becomes empty; the id stays).
  void remove_edge(vertex_id_t e) { update_edge(e, {}); }

  [[nodiscard]] std::size_t s_degree(vertex_id_t e) const {
    return e < adj_.size() ? adj_[e].size() : 0;
  }
  [[nodiscard]] const std::vector<vertex_id_t>& s_neighbors(vertex_id_t e) const {
    return adj_[e];
  }

  /// Sorted unique {lo, hi} line-graph pairs (differential-test surface).
  [[nodiscard]] std::vector<std::pair<vertex_id_t, vertex_id_t>> pairs() const {
    std::vector<std::pair<vertex_id_t, vertex_id_t>> out;
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      for (vertex_id_t v : adj_[u]) {
        if (v > static_cast<vertex_id_t>(u)) out.push_back({static_cast<vertex_id_t>(u), v});
      }
    }
    return out;
  }

  /// s-component labels: min active edge id per component, null_vertex<>
  /// for inactive edges — the serial s_components oracle's convention.
  /// Repairs the forest first when a deletion invalidated it.  An inactive
  /// edge has no line-graph pairs, so every root (a component's minimum
  /// id) is active and is the label itself.
  [[nodiscard]] std::vector<vertex_id_t> s_connected_components() const {
    if (!cc_valid_) rebuild_union_find();
    std::vector<vertex_id_t> out(adj_.size(), null_vertex<>);
    for (std::size_t e = 0; e < adj_.size(); ++e) {
      const auto id = static_cast<vertex_id_t>(e);
      if (active(id)) out[e] = nw::graph::detail::find_root(parent_, id);
    }
    return out;
  }

  /// Hop distance in the line graph, by nw::graph::bfs_distances up to
  /// `dst`'s level; nullopt when unreachable or either endpoint is inactive
  /// (the s_distance_implicit convention).
  [[nodiscard]] std::optional<std::size_t> s_distance(vertex_id_t src, vertex_id_t dst) const {
    if (!active(src) || !active(dst)) return std::nullopt;
    auto dist = nw::graph::bfs_distances(adj_, src, dst);
    if (dist[dst] == null_vertex<>) return std::nullopt;
    return static_cast<std::size_t>(dist[dst]);
  }

private:
  void rebuild_union_find() const {
    parent_.resize(adj_.size());
    std::iota(parent_.begin(), parent_.end(), vertex_id_t{0});
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      for (vertex_id_t v : adj_[u]) {
        nw::graph::detail::link_roots(parent_, static_cast<vertex_id_t>(u), v);
      }
    }
    cc_valid_ = true;
  }

  std::size_t                           s_;
  dynamic_incidence                     inc_;
  std::vector<std::vector<vertex_id_t>> adj_;  ///< line-graph adjacency, sorted
  mutable std::vector<vertex_id_t>      parent_;  ///< link_roots forest over adj_
  mutable bool                          cc_valid_ = false;
  sparse_accumulator<>                  overlap_;  ///< update_edge's recount scratch
};

/// The toplex set maintained under hyperedge updates.  Keeps a dominance
/// flag per edge; an update recomputes the flags of the updated edge and of
/// every edge incident on a dirty node (old ∪ new members) that could be a
/// subset of the old or new row — a superset of every edge whose status
/// can change.
class incremental_toplexes {
public:
  explicit incremental_toplexes(const NWHypergraph& h)
      : inc_(h), dominated_(dominance_flags(inc_.edges(), inc_.nodes())) {}

  [[nodiscard]] std::size_t num_hyperedges() const { return inc_.edges().size(); }

  void update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    // Dirty set: e plus every edge incident on a node the update touches
    // and small enough to sit inside the old or the new row.
    std::vector<vertex_id_t> dirty_nodes = inc_.update_edge(e, std::move(members));
    const auto&              now         = inc_.edges()[e];
    const std::size_t        max_size    = std::max(dirty_nodes.size(), now.size());
    dirty_nodes.insert(dirty_nodes.end(), now.begin(), now.end());
    std::vector<vertex_id_t> dirty_edges{e};
    for (vertex_id_t v : dirty_nodes) {
      for (vertex_id_t f : inc_.nodes()[v]) {
        if (inc_.edges().degree(f) <= max_size) dirty_edges.push_back(f);
      }
    }
    std::sort(dirty_edges.begin(), dirty_edges.end());
    dirty_edges.erase(std::unique(dirty_edges.begin(), dirty_edges.end()), dirty_edges.end());
    dominated_.resize(inc_.edges().size(), 0);
    for (vertex_id_t f : dirty_edges) {
      dominated_[f] = dominated(inc_.edges(), inc_.nodes(), f) ? 1 : 0;
    }
  }

  void remove_edge(vertex_id_t e) { update_edge(e, {}); }

  /// The current toplex ids (ascending), by the batch kernel's `toplex_ids`.
  [[nodiscard]] std::vector<vertex_id_t> toplexes() const {
    return toplex_ids(inc_.edges(), dominated_);
  }

private:
  dynamic_incidence inc_;
  std::vector<char> dominated_;
};

}  // namespace nw::hypergraph
