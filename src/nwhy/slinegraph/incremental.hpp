// nwhy/slinegraph/incremental.hpp
//
// Incrementally-maintained derived structures for the dynamic hypergraph
// engine (ROADMAP item 1).  Rebuilding an s-line graph or the toplex set
// after every small mutation costs the full construction; these classes
// instead maintain the derived structure under per-hyperedge updates,
// recomputing only what the dirty set touches:
//
//   incremental_slinegraph — when hyperedge e's member list changes, only
//     line-graph pairs incident on e can appear or disappear (a pair {f, g}
//     with e ∉ {f, g} has an unchanged overlap), so the update drops e's
//     pairs and recounts overlaps against e alone.  s-connectivity is kept
//     as a union-find: insertions union eagerly; a deletion invalidates the
//     forest and the next component query rebuilds it from the maintained
//     adjacency (deletions can split components, which union-find cannot
//     express).
//
//   incremental_toplexes — a non-empty edge f's dominance status can only
//     flip through its relation to the updated edge e, and any such f
//     satisfies f ⊆ e_old or f ⊆ e_new, so recomputing e plus the edges
//     incident on the dirty nodes (old ∪ new members of e) is exhaustive.
//
// Both are differential-tested against full rebuilds (PR-4 serial oracles)
// in tests/test_dynamic.cpp; results are identical by construction, not
// approximately.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/flat_hashmap.hpp"

namespace nw::hypergraph {

/// Per-entity sorted id lists (a hyperedge's members, a hypernode's edges).
using incidence_lists = std::vector<std::vector<vertex_id_t>>;

/// An s-line graph maintained under hyperedge updates.  Owns its own copy
/// of the composed incidence (so it stays coherent across compactions of
/// the source hypergraph) plus the line-graph adjacency and a lazily
/// repaired union-find over it.
class incremental_slinegraph {
public:
  incremental_slinegraph(const NWHypergraph& h, std::size_t s) : s_(s) {
    const std::size_t ne = h.num_hyperedges();
    const std::size_t nv = h.num_hypernodes();
    edge_members_.resize(ne);
    node_edges_.resize(nv);
    adj_.resize(ne);
    for (std::size_t e = 0; e < ne; ++e) {
      edge_members_[e] = h.edge_members(static_cast<vertex_id_t>(e));
      for (vertex_id_t v : edge_members_[e]) {
        node_edges_[v].push_back(static_cast<vertex_id_t>(e));
      }
    }
    counting_hashmap<> overlap;
    for (std::size_t i = 0; i < ne; ++i) {
      const vertex_id_t ei = static_cast<vertex_id_t>(i);
      if (!active(ei)) continue;
      overlap.clear();
      for (vertex_id_t v : edge_members_[i]) {
        for (vertex_id_t ej : node_edges_[v]) {
          if (ej > ei && active(ej)) overlap.increment(ej);
        }
      }
      overlap.for_each([&](vertex_id_t ej, std::uint32_t n) {
        if (n >= s_) {
          adj_[ei].push_back(ej);
          adj_[ej].push_back(ei);
        }
      });
    }
    for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
    rebuild_union_find();
  }

  [[nodiscard]] std::size_t s() const { return s_; }
  [[nodiscard]] std::size_t num_vertices() const { return adj_.size(); }
  [[nodiscard]] bool        active(vertex_id_t e) const {
    return e < edge_members_.size() && edge_members_[e].size() >= s_;
  }

  /// Replace hyperedge `e`'s member list (insert when new — intermediate
  /// ids become empty edges; ids past the node space grow it).
  void update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (std::size_t{e} >= edge_members_.size()) {
      edge_members_.resize(std::size_t{e} + 1);
      adj_.resize(std::size_t{e} + 1);
      parent_.reserve(std::size_t{e} + 1);
      for (std::size_t i = parent_.size(); i <= std::size_t{e}; ++i) {
        parent_.push_back(static_cast<vertex_id_t>(i));
      }
    }
    for (vertex_id_t v : members) {
      if (std::size_t{v} >= node_edges_.size()) node_edges_.resize(std::size_t{v} + 1);
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
    // Splice the incidence update into the maintained transpose.
    for (vertex_id_t v : edge_members_[e]) {
      auto& edges = node_edges_[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it != edges.end() && *it == e) edges.erase(it);
    }
    for (vertex_id_t v : members) {
      auto& edges = node_edges_[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it == edges.end() || *it != e) edges.insert(it, e);
    }
    edge_members_[e] = std::move(members);
    // Recount overlaps against e alone — the only dirty endpoint.
    if (active(e)) {
      counting_hashmap<> overlap;
      for (vertex_id_t v : edge_members_[e]) {
        for (vertex_id_t f : node_edges_[v]) {
          if (f != e && active(f)) overlap.increment(f);
        }
      }
      std::vector<vertex_id_t> nbrs;
      overlap.for_each([&](vertex_id_t f, std::uint32_t n) {
        if (n >= s_) nbrs.push_back(f);
      });
      std::sort(nbrs.begin(), nbrs.end());
      for (vertex_id_t f : nbrs) {
        auto& fn = adj_[f];
        fn.insert(std::lower_bound(fn.begin(), fn.end(), e), e);
        if (cc_valid_) unite(e, f);
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
  /// for inactive edges — the serial s_components oracle's convention.  Repairs the
  /// union-find first when a deletion invalidated it.
  [[nodiscard]] std::vector<vertex_id_t> s_connected_components() const {
    ensure_union_find();
    std::vector<vertex_id_t> label(adj_.size(), null_vertex<>);
    for (std::size_t e = 0; e < adj_.size(); ++e) {
      if (!active(static_cast<vertex_id_t>(e))) continue;
      vertex_id_t r = find(static_cast<vertex_id_t>(e));
      if (label[r] == null_vertex<>) label[r] = static_cast<vertex_id_t>(e);  // ascending: min
    }
    std::vector<vertex_id_t> out(adj_.size(), null_vertex<>);
    for (std::size_t e = 0; e < adj_.size(); ++e) {
      if (active(static_cast<vertex_id_t>(e))) out[e] = label[find(static_cast<vertex_id_t>(e))];
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
    for (std::size_t i = 0; i < parent_.size(); ++i) parent_[i] = static_cast<vertex_id_t>(i);
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      for (vertex_id_t v : adj_[u]) unite(static_cast<vertex_id_t>(u), v);
    }
    cc_valid_ = true;
  }
  void ensure_union_find() const {
    if (!cc_valid_) rebuild_union_find();
  }
  vertex_id_t find(vertex_id_t x) const {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x          = parent_[x];
    }
    return x;
  }
  void unite(vertex_id_t a, vertex_id_t b) const {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;  // min-id roots keep label extraction trivial
    } else {
      parent_[a] = b;
    }
  }

  std::size_t                           s_;
  incidence_lists                       edge_members_;  ///< per-edge sorted members
  incidence_lists                       node_edges_;    ///< transpose, sorted
  std::vector<std::vector<vertex_id_t>> adj_;           ///< line-graph adjacency, sorted
  mutable std::vector<vertex_id_t>      parent_;        ///< union-find forest over adj_
  mutable bool                          cc_valid_ = false;
};

/// The toplex set maintained under hyperedge updates.  Keeps a dominance
/// flag per edge; an update recomputes the flags of the updated edge and of
/// every edge incident on a dirty node (old ∪ new members) — a superset of
/// every edge whose status can change.
class incremental_toplexes {
public:
  explicit incremental_toplexes(const NWHypergraph& h) {
    const std::size_t ne = h.num_hyperedges();
    const std::size_t nv = h.num_hypernodes();
    edge_members_.resize(ne);
    node_edges_.resize(nv);
    dominated_.assign(ne, 0);
    for (std::size_t e = 0; e < ne; ++e) {
      edge_members_[e] = h.edge_members(static_cast<vertex_id_t>(e));
      if (!edge_members_[e].empty()) ++nonempty_count_;
      for (vertex_id_t v : edge_members_[e]) {
        node_edges_[v].push_back(static_cast<vertex_id_t>(e));
      }
    }
    for (std::size_t e = 0; e < ne; ++e) {
      dominated_[e] = compute_dominated(static_cast<vertex_id_t>(e));
    }
  }

  [[nodiscard]] std::size_t num_hyperedges() const { return edge_members_.size(); }

  void update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (std::size_t{e} >= edge_members_.size()) {
      edge_members_.resize(std::size_t{e} + 1);
      dominated_.resize(std::size_t{e} + 1, 0);
    }
    for (vertex_id_t v : members) {
      if (std::size_t{v} >= node_edges_.size()) node_edges_.resize(std::size_t{v} + 1);
    }
    // Dirty set: every node the update touches, before splicing the lists.
    std::vector<vertex_id_t> dirty_nodes = edge_members_[e];
    dirty_nodes.insert(dirty_nodes.end(), members.begin(), members.end());
    std::sort(dirty_nodes.begin(), dirty_nodes.end());
    dirty_nodes.erase(std::unique(dirty_nodes.begin(), dirty_nodes.end()), dirty_nodes.end());
    if (!edge_members_[e].empty()) --nonempty_count_;
    if (!members.empty()) ++nonempty_count_;
    for (vertex_id_t v : edge_members_[e]) {
      auto& edges = node_edges_[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it != edges.end() && *it == e) edges.erase(it);
    }
    for (vertex_id_t v : members) {
      auto& edges = node_edges_[v];
      auto  it    = std::lower_bound(edges.begin(), edges.end(), e);
      if (it == edges.end() || *it != e) edges.insert(it, e);
    }
    edge_members_[e] = std::move(members);
    // Recompute the dirty set: e plus every edge incident on a dirty node.
    std::vector<vertex_id_t> dirty_edges{e};
    for (vertex_id_t v : dirty_nodes) {
      dirty_edges.insert(dirty_edges.end(), node_edges_[v].begin(), node_edges_[v].end());
    }
    std::sort(dirty_edges.begin(), dirty_edges.end());
    dirty_edges.erase(std::unique(dirty_edges.begin(), dirty_edges.end()), dirty_edges.end());
    for (vertex_id_t f : dirty_edges) dominated_[f] = compute_dominated(f);
  }

  void remove_edge(vertex_id_t e) { update_edge(e, {}); }

  /// The current toplex ids (ascending), with the algorithms/toplex.hpp
  /// empty-edge convention: empty edges survive only when the hypergraph
  /// has no non-empty edge, and then only the smallest empty id.
  [[nodiscard]] std::vector<vertex_id_t> toplexes() const {
    std::vector<vertex_id_t> out;
    bool                     emitted_empty = false;
    for (std::size_t e = 0; e < edge_members_.size(); ++e) {
      if (edge_members_[e].empty()) {
        if (nonempty_count_ == 0 && !emitted_empty) {
          out.push_back(static_cast<vertex_id_t>(e));
          emitted_empty = true;
        }
      } else if (!dominated_[e]) {
        out.push_back(static_cast<vertex_id_t>(e));
      }
    }
    return out;
  }

private:
  /// Non-empty edge i is dominated iff some j ≠ i has i ⊆ j and
  /// (|j| > |i| ∨ (|j| == |i| ∧ j < i)) — the Algorithm 3 tie-break.
  [[nodiscard]] bool compute_dominated(vertex_id_t i) const {
    const std::size_t di = edge_members_[i].size();
    if (di == 0) return false;  // empty edges are resolved at query time
    overlap_.clear();
    for (vertex_id_t v : edge_members_[i]) {
      for (vertex_id_t j : node_edges_[v]) {
        if (j != i) overlap_.increment(j);
      }
    }
    bool dom = false;
    overlap_.for_each([&](vertex_id_t j, std::uint32_t n) {
      if (dom || n < di) return;
      const std::size_t dj = edge_members_[j].size();
      if (dj > di || (dj == di && j < i)) dom = true;
    });
    return dom;
  }

  incidence_lists            edge_members_;
  incidence_lists            node_edges_;
  std::vector<char>          dominated_;
  std::size_t                nonempty_count_ = 0;
  mutable counting_hashmap<> overlap_;
};

}  // namespace nw::hypergraph
