// nwhy/transforms.hpp
//
// Structural transforms on hypergraphs, in the spirit of HyperNetX's
// preprocessing utilities: collapsing duplicate hyperedges, degree
// filtering, and induced sub-hypergraphs.  All operate on the canonical
// biedgelist and return a new one (hypergraphs are immutable once built).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "nwhy/biadjacency.hpp"
#include "nwhy/biedgelist.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Result of collapsing duplicate hyperedges: the reduced hypergraph plus,
/// for each surviving hyperedge, the multiplicity (number of originals it
/// represents) and the representative's original id.
struct collapse_result {
  biedgelist<>             el;
  std::vector<vertex_id_t> representative;  ///< new edge id -> original edge id
  std::vector<std::size_t> multiplicity;    ///< new edge id -> duplicate count
};

/// Collapse hyperedges with identical hypernode sets (the representative is
/// the smallest original id).  Requires a sort_and_unique'd input.
inline collapse_result collapse_duplicate_edges(const biedgelist<>& el) {
  biadjacency<0> hyperedges(el);
  const std::size_t ne = hyperedges.size();

  // Group by a cheap content hash, verify exactly within buckets.
  auto content_hash = [&](std::size_t e) {
    std::uint64_t h = 1469598103934665603ull;
    for (auto&& ev : hyperedges[e]) {
      h ^= static_cast<std::uint64_t>(target(ev)) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  };
  auto same_content = [&](std::size_t a, std::size_t b) {
    auto ra = hyperedges[a];
    auto rb = hyperedges[b];
    return std::equal(ra.begin(), ra.end(), rb.begin(), rb.end());
  };

  std::unordered_map<std::uint64_t, std::vector<vertex_id_t>> buckets;
  for (std::size_t e = 0; e < ne; ++e) buckets[content_hash(e)].push_back(e);

  std::vector<vertex_id_t> owner(ne);  // original id -> representative original id
  std::vector<std::size_t> counts(ne, 0);
  for (auto& [hash, members] : buckets) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      vertex_id_t rep = members[i];
      for (std::size_t j = 0; j < i; ++j) {
        if (same_content(members[j], members[i])) {
          rep = owner[members[j]];
          break;
        }
      }
      owner[members[i]] = rep;
      ++counts[rep];
    }
  }

  collapse_result out;
  std::vector<vertex_id_t> new_id(ne, null_vertex<>);
  for (std::size_t e = 0; e < ne; ++e) {
    if (owner[e] != e) continue;
    new_id[e] = static_cast<vertex_id_t>(out.representative.size());
    out.representative.push_back(static_cast<vertex_id_t>(e));
    out.multiplicity.push_back(counts[e]);
  }
  out.el = biedgelist<>(out.representative.size(), el.num_vertices(1));
  for (std::size_t k = 0; k < out.representative.size(); ++k) {
    for (auto&& ev : hyperedges[out.representative[k]]) {
      out.el.push_back(static_cast<vertex_id_t>(k), target(ev));
    }
  }
  return out;
}

/// Keep only hyperedges with size in [min_size, max_size] (inclusive);
/// hyperedge ids are compacted, hypernode ids preserved.  Returns the kept
/// original ids through `kept`.
inline biedgelist<> filter_edges_by_size(const biedgelist<>& el, std::size_t min_size,
                                         std::size_t max_size,
                                         std::vector<vertex_id_t>* kept = nullptr) {
  biadjacency<0> hyperedges(el);
  biedgelist<>   out(0, el.num_vertices(1));
  std::vector<vertex_id_t> kept_local;
  vertex_id_t              next = 0;
  for (std::size_t e = 0; e < hyperedges.size(); ++e) {
    std::size_t d = hyperedges.degree(e);
    if (d < min_size || d > max_size) continue;
    for (auto&& ev : hyperedges[e]) out.push_back(next, target(ev));
    kept_local.push_back(static_cast<vertex_id_t>(e));
    ++next;
  }
  if (kept) *kept = std::move(kept_local);
  return out;
}

/// Restrict the hypergraph to a set of hypernodes: every hyperedge is
/// intersected with `nodes` (flag array, 1 = keep); empty intersections
/// drop the hyperedge.  Node ids are preserved, edge ids compacted.
inline biedgelist<> induced_subhypergraph(const biedgelist<>& el,
                                          const std::vector<char>& keep_node,
                                          std::vector<vertex_id_t>* kept_edges = nullptr) {
  NW_ASSERT(keep_node.size() >= el.num_vertices(1), "keep_node flag array too short");
  biadjacency<0> hyperedges(el);
  biedgelist<>   out(0, el.num_vertices(1));
  std::vector<vertex_id_t> kept_local;
  vertex_id_t              next = 0;
  for (std::size_t e = 0; e < hyperedges.size(); ++e) {
    bool any = false;
    for (auto&& ev : hyperedges[e]) {
      if (keep_node[target(ev)]) {
        out.push_back(next, target(ev));
        any = true;
      }
    }
    if (any) {
      kept_local.push_back(static_cast<vertex_id_t>(e));
      ++next;
    }
  }
  if (kept_edges) *kept_edges = std::move(kept_local);
  return out;
}

/// Degree distribution histogram: result[d] = number of entities with
/// degree d (trailing zeros trimmed).
inline std::vector<std::size_t> degree_histogram(const std::vector<std::size_t>& degrees) {
  std::size_t max_degree = 0;
  for (auto d : degrees) max_degree = std::max(max_degree, d);
  std::vector<std::size_t> hist(max_degree + 1, 0);
  for (auto d : degrees) ++hist[d];
  return hist;
}

}  // namespace nw::hypergraph
