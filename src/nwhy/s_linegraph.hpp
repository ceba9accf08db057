// nwhy/s_linegraph.hpp
//
// The s-line graph object with the full metric suite of the paper's
// Listing 5 (the Python API surface): s-connectivity, s-components,
// s-distance / s-path, s-betweenness / s-closeness / s-harmonic-closeness
// centrality, s-eccentricity, s-degree and s-neighbors.  All metrics are
// plain graph algorithms from the NWGraph substrate applied to the line
// graph — that delegation is exactly the "approximate hypergraph analytics"
// workflow of Sec. III-C.3.
//
// Vertices of the line graph are hyperedge ids of the original hypergraph
// (or hypernode ids, for an s-clique graph built on the dual).  A hyperedge
// is *active* when it has at least s incident hypernodes; inactive
// hyperedges are isolated vertices here and are excluded from
// connectivity-style queries, matching HyperNetX semantics.
#pragma once

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/algorithms/closeness.hpp"
#include "nwgraph/algorithms/connected_components.hpp"
#include "nwgraph/algorithms/kcore.hpp"
#include "nwgraph/algorithms/mis.hpp"
#include "nwgraph/algorithms/pagerank.hpp"
#include "nwgraph/algorithms/triangle_count.hpp"
#include "nwhy/algorithms/s_betweenness.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/rng.hpp"

namespace nw::hypergraph {

class s_linegraph {
public:
  /// Adopt an already-symmetric, sorted adjacency (the output of
  /// to_two_graph_*_csr / adjacency<>::from_unique_undirected_pairs).  The
  /// entity count — nE for a line graph, nV for a clique graph — is the
  /// adjacency's vertex count; `entity_sizes` are the hyperedge sizes used
  /// to determine activity.
  s_linegraph(nw::graph::adjacency<> graph, const std::vector<std::size_t>& entity_sizes,
              std::size_t s)
      : s_(s), active_(graph.size(), false), graph_(std::move(graph)) {
    for (std::size_t e = 0; e < active_.size(); ++e) {
      active_[e] = entity_sizes.size() > e && entity_sizes[e] >= s_;
    }
  }

  [[nodiscard]] std::size_t s() const { return s_; }
  [[nodiscard]] std::size_t num_vertices() const { return graph_.size(); }
  /// Number of s-line-graph edges (each counted once).
  [[nodiscard]] std::size_t num_edges() const { return graph_.num_edges() / 2; }
  [[nodiscard]] const nw::graph::adjacency<>& graph() const { return graph_; }
  [[nodiscard]] bool is_active(vertex_id_t v) const { return active_[v]; }

  /// Listing 5 `s_degree(v)`: number of s-adjacent hyperedges.
  /// Throws std::out_of_range for ids outside [0, num_vertices()).
  [[nodiscard]] std::size_t s_degree(vertex_id_t v) const {
    check_vertex(v, "s_degree");
    return graph_.degree(v);
  }

  /// Listing 5 `s_neighbors(v)`: the s-adjacent hyperedge ids.
  [[nodiscard]] std::vector<vertex_id_t> s_neighbors(vertex_id_t v) const {
    check_vertex(v, "s_neighbors");
    auto                     nbrs = graph_[v];
    std::vector<vertex_id_t> out(nbrs.begin(), nbrs.end());
    return out;
  }

  /// Listing 5 `s_connected_components()`: component label per entity.
  /// Inactive entities receive null_vertex.
  [[nodiscard]] std::vector<vertex_id_t> s_connected_components() const {
    auto labels = nw::graph::cc_afforest(graph_);
    for (std::size_t v = 0; v < labels.size(); ++v) {
      if (!active_[v]) labels[v] = null_vertex<>;
    }
    return labels;
  }

  /// Listing 5 `is_s_connected()`: true when every active entity lies in a
  /// single component (and there is at least one active entity).
  [[nodiscard]] bool is_s_connected() const {
    const auto labels = s_connected_components();
    const auto first =
        std::find_if(labels.begin(), labels.end(), [](vertex_id_t l) { return l != null_vertex<>; });
    return first != labels.end() && std::all_of(labels.begin(), labels.end(), [&](vertex_id_t l) {
             return l == null_vertex<> || l == *first;
           });
  }

  /// Listing 5 `s_distance(src, dest)`: hop distance in the s-line graph;
  /// nullopt when unreachable.  The sweep ends at the level that reaches
  /// `dest`.  Throws std::out_of_range on invalid ids (mirroring the
  /// adjoin_bfs "hyperedge id" guard — BFS arrays would otherwise be
  /// indexed out of bounds).
  [[nodiscard]] std::optional<std::size_t> s_distance(vertex_id_t src, vertex_id_t dest) const {
    check_vertex(src, "s_distance");
    check_vertex(dest, "s_distance");
    auto dist = nw::graph::bfs_distances(graph_, src, dest);
    if (dist[dest] == null_vertex<>) return std::nullopt;
    return static_cast<std::size_t>(dist[dest]);
  }

  /// Listing 5 `s_path(src, dest)`: one shortest s-walk between two
  /// hyperedges (sequence of hyperedge ids); empty when unreachable.  The
  /// distances come from a sweep that ends at `dest`; the walk back takes
  /// the smallest-id neighbour one level nearer, so the path is the same at
  /// every thread count.
  [[nodiscard]] std::vector<vertex_id_t> s_path(vertex_id_t src, vertex_id_t dest) const {
    check_vertex(src, "s_path");
    check_vertex(dest, "s_path");
    auto dist = nw::graph::bfs_distances(graph_, src, dest);
    if (dist[dest] == null_vertex<>) return {};
    std::vector<vertex_id_t> path(dist[dest] + 1);
    path.back() = dest;
    for (vertex_id_t d = dist[dest]; d > 0; --d) {
      path[d - 1] = *std::ranges::find_if(graph_[path[d]],
                                          [&](vertex_id_t u) { return dist[u] == d - 1; });
    }
    return path;
  }

  /// Listing 5 `s_betweenness_centrality(normalized)`: exact Brandes over
  /// every source, on the batched frontier engine
  /// (nwhy/algorithms/s_betweenness.hpp) — bit-deterministic at every
  /// thread count.
  [[nodiscard]] std::vector<double> s_betweenness_centrality(bool normalized = true) const {
    return betweenness_batched(graph_, normalized);
  }

  /// s_betweenness_centrality with an explicit batch size: `batch` bounds
  /// scratch memory (0 = NWHY_BETWEENNESS_BATCH) and never changes the
  /// scores.
  [[nodiscard]] std::vector<double> s_betweenness_centrality_batched(
      bool normalized = true, std::size_t batch = 0) const {
    return betweenness_batched(graph_, normalized, batch);
  }

  /// Sampled s-betweenness over `num_samples` seed-driven sources (0 =
  /// NWHY_BETWEENNESS_SAMPLES).  Same seed => bit-identical scores, at every
  /// thread count and batch size.
  [[nodiscard]] std::vector<double> s_betweenness_centrality_sampled(
      std::size_t num_samples = 0, std::uint64_t seed = 42, std::size_t batch = 0) const {
    return betweenness_sampled(graph_, num_samples, seed, batch);
  }

  /// Listing 5 `s_closeness_centrality(v)`: all entities, or one.
  [[nodiscard]] std::vector<double> s_closeness_centrality() const {
    return nw::graph::closeness_centrality(graph_);
  }
  /// Single-vertex overload: one BFS from `v` (O(n + m)), not the
  /// all-sources sweep (O(n·(n + m))) indexed at one element.  Both
  /// spellings use the same fold, nw::graph::closeness_of, so they agree.
  [[nodiscard]] double s_closeness_centrality(vertex_id_t v) const {
    check_vertex(v, "s_closeness_centrality");
    return nw::graph::closeness_of(nw::graph::bfs_distances(graph_, v));
  }

  /// Listing 5 `s_harmonic_closeness_centrality(v)`.
  [[nodiscard]] std::vector<double> s_harmonic_closeness_centrality() const {
    return nw::graph::harmonic_closeness_centrality(graph_);
  }
  /// Single-vertex overload: one BFS from `v` instead of n of them.
  [[nodiscard]] double s_harmonic_closeness_centrality(vertex_id_t v) const {
    check_vertex(v, "s_harmonic_closeness_centrality");
    return nw::graph::harmonic_of(nw::graph::bfs_distances(graph_, v));
  }

  /// Listing 5 `s_eccentricity(v)`.
  [[nodiscard]] std::vector<vertex_id_t> s_eccentricity() const {
    return nw::graph::eccentricity(graph_);
  }
  /// Single-vertex overload: one BFS from `v` instead of n of them.
  [[nodiscard]] vertex_id_t s_eccentricity(vertex_id_t v) const {
    check_vertex(v, "s_eccentricity");
    return nw::graph::eccentricity_of(nw::graph::bfs_distances(graph_, v));
  }

  /// s-diameter: the largest eccentricity among active entities (the
  /// longest shortest s-walk); 0 for an edgeless line graph.
  [[nodiscard]] std::size_t s_diameter() const {
    auto        ecc  = nw::graph::eccentricity(graph_);
    vertex_id_t best = 0;
    for (std::size_t v = 0; v < ecc.size(); ++v) {
      if (active_[v]) best = std::max(best, ecc[v]);
    }
    return best;
  }

  /// s-PageRank over the line graph (the PageRank-on-projection workflow of
  /// MESH / HyperX, here at arbitrary s).
  [[nodiscard]] std::vector<double> s_pagerank(double damping = 0.85) const {
    return nw::graph::pagerank(graph_, damping);
  }

  /// s-core numbers: k-core decomposition of the line graph.
  [[nodiscard]] std::vector<std::size_t> s_core_numbers() const {
    return nw::graph::kcore_decomposition(graph_);
  }

  /// Number of s-triangles: triples of mutually s-adjacent hyperedges.
  [[nodiscard]] std::size_t s_triangle_count() const {
    return nw::graph::triangle_count(graph_);
  }

  /// Global clustering coefficient of the line graph
  /// (3 * triangles / open-or-closed wedges).
  [[nodiscard]] double s_clustering_coefficient() const {
    std::size_t wedges = 0;
    for (std::size_t v = 0; v < graph_.size(); ++v) {
      std::size_t d = graph_.degree(v);
      wedges += d * (d - 1) / 2;
    }
    if (wedges == 0) return 0.0;
    return 3.0 * static_cast<double>(nw::graph::triangle_count(graph_)) /
           static_cast<double>(wedges);
  }

  /// A random s-walk (Aksoy et al.: "an s-walk is a random walk on the
  /// s-line graph"): starting from `start`, take up to `length` uniform
  /// steps across s-adjacencies.  The walk stops early at a vertex with no
  /// s-neighbors.  Returns the visited sequence, starting with `start`.
  [[nodiscard]] std::vector<vertex_id_t> random_s_walk(vertex_id_t start, std::size_t length,
                                                       std::uint64_t seed = 0x5A17) const {
    std::vector<vertex_id_t> walk{start};
    xoshiro256ss             rng(seed);
    vertex_id_t              cur = start;
    for (std::size_t step = 0; step < length; ++step) {
      std::size_t d = graph_.degree(cur);
      if (d == 0) break;
      auto nbrs = graph_[cur];
      auto it   = nbrs.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.bounded(d)));
      cur = nw::graph::target(*it);
      walk.push_back(cur);
    }
    return walk;
  }

  /// A maximal set of pairwise non-s-adjacent hyperedges (an s-matching of
  /// the hypergraph), via parallel MIS on the line graph.  Inactive
  /// entities are excluded from the result.
  [[nodiscard]] std::vector<vertex_id_t> s_independent_edges(std::uint64_t seed = 0x315D) const {
    auto                     mis = nw::graph::maximal_independent_set(graph_, seed);
    std::vector<vertex_id_t> out;
    for (std::size_t v = 0; v < mis.size(); ++v) {
      if (mis[v] && active_[v]) out.push_back(static_cast<vertex_id_t>(v));
    }
    return out;
  }

private:
  /// Point queries index graph_/BFS arrays directly; an out-of-range id is
  /// UB there, so every public (vertex_id_t) entry point validates first.
  void check_vertex(vertex_id_t v, const char* what) const {
    if (v >= graph_.size()) {
      throw std::out_of_range(std::string(what) + ": vertex id " + std::to_string(v) +
                              " out of range (line graph has " +
                              std::to_string(graph_.size()) + " vertices)");
    }
  }

  std::size_t            s_;
  std::vector<char>      active_;
  nw::graph::adjacency<> graph_;
};

}  // namespace nw::hypergraph
