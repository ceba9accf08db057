// capi/nwhy_capi.cpp — implementation of the C binding surface.
#include "capi/nwhy_capi.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "nwhy/nwhypergraph.hpp"
#include "nwhy/s_linegraph.hpp"

using nw::hypergraph::NWHypergraph;
using nw::hypergraph::s_linegraph;

struct nwhy_hypergraph {
  NWHypergraph impl;
};

// The line-graph handle captures the source hypergraph's version at build
// time; the token shared_ptr stays valid even after the hypergraph handle is
// destroyed.  Mutation bumps the counter, which flips every query on this
// handle to its sentinel value (stale results must not look fresh).
struct nwhy_slinegraph {
  s_linegraph                           impl;
  std::shared_ptr<const std::uint64_t>  version_token;
  std::uint64_t                         created_at = 0;

  [[nodiscard]] bool stale() const {
    return version_token != nullptr && *version_token != created_at;
  }
};

extern "C" {

nwhy_hypergraph* nwhy_hypergraph_create(const uint32_t* edge_ids, const uint32_t* node_ids,
                                        const double* weights, size_t n) {
  if ((edge_ids == nullptr || node_ids == nullptr) && n > 0) return nullptr;
  (void)weights;  // accepted for Listing-5 fidelity; structural metrics ignore them
  return new nwhy_hypergraph{
      NWHypergraph(std::span<const uint32_t>(edge_ids, n), std::span<const uint32_t>(node_ids, n))};
}

void nwhy_hypergraph_destroy(nwhy_hypergraph* hg) { delete hg; }

size_t nwhy_num_hyperedges(const nwhy_hypergraph* hg) { return hg->impl.num_hyperedges(); }
size_t nwhy_num_hypernodes(const nwhy_hypergraph* hg) { return hg->impl.num_hypernodes(); }
size_t nwhy_num_incidences(const nwhy_hypergraph* hg) { return hg->impl.num_incidences(); }

void nwhy_edge_sizes(const nwhy_hypergraph* hg, size_t* out) {
  const auto& d = hg->impl.edge_sizes();
  std::copy(d.begin(), d.end(), out);
}

void nwhy_node_degrees(const nwhy_hypergraph* hg, size_t* out) {
  const auto& d = hg->impl.node_degrees();
  std::copy(d.begin(), d.end(), out);
}

size_t nwhy_toplexes(const nwhy_hypergraph* hg, uint32_t* out) {
  auto t = hg->impl.toplexes();
  if (out != nullptr) std::copy(t.begin(), t.end(), out);
  return t.size();
}

int nwhy_motif_counts(const nwhy_hypergraph* hg, uint64_t* wedges, uint64_t* triads,
                      uint64_t* open_wedges, uint64_t* butterflies) {
  if (hg == nullptr) return -1;
  auto census = hg->impl.motifs();
  if (wedges != nullptr) *wedges = census.wedges;
  if (triads != nullptr) *triads = census.triads;
  if (open_wedges != nullptr) *open_wedges = census.open_wedges;
  if (butterflies != nullptr) *butterflies = census.butterflies;
  return 0;
}

int nwhy_insert_edge(nwhy_hypergraph* hg, uint32_t edge, const uint32_t* nodes, size_t n) {
  if (hg == nullptr || edge == NWHY_NULL_ID || (nodes == nullptr && n > 0)) return -1;
  hg->impl.update_edge(edge, std::vector<uint32_t>(nodes, nodes + n));
  return 0;
}

int nwhy_remove_edge(nwhy_hypergraph* hg, uint32_t edge) {
  if (hg == nullptr) return -1;
  hg->impl.remove_edges(std::span<const uint32_t>(&edge, 1));
  return 0;
}

int nwhy_compact(nwhy_hypergraph* hg) {
  if (hg == nullptr) return -1;
  hg->impl.compact();
  return 0;
}

int nwhy_relabel_by_degree(nwhy_hypergraph* hg) {
  if (hg == nullptr || hg->impl.has_pending_delta()) return -1;
  hg->impl.relabel_by_degree();
  return 0;
}

int nwhy_is_relabeled(const nwhy_hypergraph* hg) {
  return hg != nullptr && hg->impl.is_relabeled() ? 1 : 0;
}

size_t nwhy_delta_size(const nwhy_hypergraph* hg) { return hg->impl.delta_size(); }

uint64_t nwhy_version(const nwhy_hypergraph* hg) { return hg->impl.version(); }

size_t nwhy_edge_members(const nwhy_hypergraph* hg, uint32_t edge, uint32_t* out) {
  if (hg == nullptr || edge >= hg->impl.num_hyperedges()) return 0;
  auto members = hg->impl.edge_members(edge);
  if (out != nullptr) std::copy(members.begin(), members.end(), out);
  return members.size();
}

nwhy_slinegraph* nwhy_s_linegraph(const nwhy_hypergraph* hg, size_t s, int edges) {
  if (hg == nullptr || s == 0) return nullptr;
  return new nwhy_slinegraph{hg->impl.make_s_linegraph(s, edges != 0),
                             hg->impl.version_token(), hg->impl.version()};
}

void nwhy_slinegraph_destroy(nwhy_slinegraph* lg) { delete lg; }

int nwhy_slg_is_stale(const nwhy_slinegraph* lg) { return lg->stale() ? 1 : 0; }

size_t nwhy_slg_num_vertices(const nwhy_slinegraph* lg) {
  if (lg->stale()) return 0;
  return lg->impl.num_vertices();
}
size_t nwhy_slg_num_edges(const nwhy_slinegraph* lg) {
  if (lg->stale()) return 0;
  return lg->impl.num_edges();
}

int nwhy_slg_is_s_connected(const nwhy_slinegraph* lg) {
  if (lg->stale()) return 0;
  return lg->impl.is_s_connected() ? 1 : 0;
}

// The C++ point queries throw std::out_of_range on invalid ids; the C ABI
// maps that to its existing sentinels (0 / NWHY_NULL_ID) instead of letting
// an exception cross the language boundary.  Stale handles (source mutated
// since construction) take the same sentinel paths.
size_t nwhy_slg_s_degree(const nwhy_slinegraph* lg, uint32_t v) {
  if (lg->stale() || v >= lg->impl.num_vertices()) return 0;
  return lg->impl.s_degree(v);
}

size_t nwhy_slg_s_neighbors(const nwhy_slinegraph* lg, uint32_t v, uint32_t* out) {
  if (lg->stale() || v >= lg->impl.num_vertices()) return 0;
  auto nbrs = lg->impl.s_neighbors(v);
  if (out != nullptr) std::copy(nbrs.begin(), nbrs.end(), out);
  return nbrs.size();
}

void nwhy_slg_s_connected_components(const nwhy_slinegraph* lg, uint32_t* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), NWHY_NULL_ID);
    return;
  }
  auto labels = lg->impl.s_connected_components();
  std::copy(labels.begin(), labels.end(), out);
}

uint32_t nwhy_slg_s_distance(const nwhy_slinegraph* lg, uint32_t src, uint32_t dest) {
  if (lg->stale() || src >= lg->impl.num_vertices() || dest >= lg->impl.num_vertices()) {
    return NWHY_NULL_ID;
  }
  auto d = lg->impl.s_distance(src, dest);
  return d ? static_cast<uint32_t>(*d) : NWHY_NULL_ID;
}

size_t nwhy_slg_s_path(const nwhy_slinegraph* lg, uint32_t src, uint32_t dest, uint32_t* out) {
  if (lg->stale() || src >= lg->impl.num_vertices() || dest >= lg->impl.num_vertices()) return 0;
  auto path = lg->impl.s_path(src, dest);
  if (out != nullptr) std::copy(path.begin(), path.end(), out);
  return path.size();
}

void nwhy_slg_s_betweenness_centrality(const nwhy_slinegraph* lg, int normalized, double* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), 0.0);
    return;
  }
  auto bc = lg->impl.s_betweenness_centrality(normalized != 0);
  std::copy(bc.begin(), bc.end(), out);
}

void nwhy_slg_s_betweenness_batched(const nwhy_slinegraph* lg, int normalized, double* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), 0.0);
    return;
  }
  auto bc = lg->impl.s_betweenness_centrality_batched(normalized != 0);
  std::copy(bc.begin(), bc.end(), out);
}

void nwhy_slg_s_betweenness_sampled(const nwhy_slinegraph* lg, size_t num_samples, uint64_t seed,
                                    double* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), 0.0);
    return;
  }
  auto bc = lg->impl.s_betweenness_centrality_sampled(num_samples, seed);
  std::copy(bc.begin(), bc.end(), out);
}

void nwhy_slg_s_closeness_centrality(const nwhy_slinegraph* lg, double* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), 0.0);
    return;
  }
  auto c = lg->impl.s_closeness_centrality();
  std::copy(c.begin(), c.end(), out);
}

void nwhy_slg_s_harmonic_closeness_centrality(const nwhy_slinegraph* lg, double* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), 0.0);
    return;
  }
  auto c = lg->impl.s_harmonic_closeness_centrality();
  std::copy(c.begin(), c.end(), out);
}

void nwhy_slg_s_eccentricity(const nwhy_slinegraph* lg, uint32_t* out) {
  if (lg->stale()) {
    std::fill(out, out + lg->impl.num_vertices(), NWHY_NULL_ID);
    return;
  }
  auto e = lg->impl.s_eccentricity();
  std::copy(e.begin(), e.end(), out);
}

}  // extern "C"
