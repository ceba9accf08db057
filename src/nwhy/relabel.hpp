// nwhy/relabel.hpp
//
// Degree-ordered relabeling for one partition of the bi-adjacency: the
// locality pass behind `nwhy_tool convert --relabel=degree` and
// `NWHypergraph::relabel_by_degree`.  High-degree hyperedges get the low
// ids, so the hot rows of both CSRs (and of a sharded snapshot's first
// shards) pack into the same pages — the access-pattern half of the
// same heuristic family Liu et al. use to make the s-line-graph algorithms
// tractable on skewed inputs.
//
// `degree_relabel_maps` is a parallel stable counting sort producing
// bit-identical output to nw::graph::degree_permutation (stable_sort with
// old-id tie-break): each thread histograms a contiguous ascending block of
// old ids, a column-major (bucket, thread) prefix sum assigns each
// (bucket, thread) pair its disjoint output range, and every thread
// scatters its block in ascending old-id order — race-free and stable by
// construction.  `relabel_maps` then owns every translation between
// storage rows and external ids — point lookups, id arrays, per-row value
// arrays, component labels and BFS results (bipartite and adjoin) — so
// relabeling stays invisible
// to callers (verified by the differential ladder).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "nwgraph/relabel.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Both directions of a relabeling: `perm[old_id] = new_id` (apply) and
/// `inv[new_id] = old_id` (translate answers back / persist as kind 13).
/// "External" ids are the caller's hyperedge ids, "storage" rows the
/// relabeled order.  The members below are the only code that indexes
/// either map: every query translates in and every answer translates out
/// through them.
struct relabel_maps {
  std::vector<nw::vertex_id_t> perm;
  std::vector<nw::vertex_id_t> inv;

  /// The pair for a persisted inverse (a snapshot's kind-13 section).
  static relabel_maps from_inverse(std::vector<nw::vertex_id_t> inv) {
    relabel_maps maps;
    maps.perm = nw::graph::inverse_permutation(inv);
    maps.inv  = std::move(inv);
    return maps;
  }

  /// External id -> storage row; out-of-range ids pass through unchanged,
  /// so they keep their unrelabeled (unreached / empty) behavior.
  [[nodiscard]] nw::vertex_id_t storage_id(nw::vertex_id_t e) const {
    return e < perm.size() ? perm[e] : e;
  }
  /// Storage row -> external id (precondition: s < size()).
  [[nodiscard]] nw::vertex_id_t external_id(nw::vertex_id_t s) const { return inv[s]; }

  enum class direction { to_storage, to_external };

  /// Translate an array of edge ids in place (parallel).
  void translate_ids(std::span<nw::vertex_id_t> ids, direction to,
                     par::thread_pool& pool = par::thread_pool::default_pool()) const {
    const auto& map = to == direction::to_storage ? perm : inv;
    par::parallel_for(
        0, ids.size(), [&](std::size_t i) { ids[i] = map[ids[i]]; }, par::blocked{}, pool);
  }

  /// Reorder per-row values into external order: out[inv[s]] = by_row[s].
  template <class T>
  [[nodiscard]] std::vector<T> to_external_order(
      const std::vector<T>& by_row,
      par::thread_pool&     pool = par::thread_pool::default_pool()) const {
    NW_ASSERT(by_row.size() == inv.size(), "to_external_order size mismatch");
    std::vector<T> out(by_row.size());
    par::parallel_for(
        0, by_row.size(), [&](std::size_t s) { out[inv[s]] = by_row[s]; }, par::blocked{}, pool);
    return out;
  }

  /// Translate component labels computed over storage rows — each row's
  /// label is the storage row naming its component, null_vertex<> for an
  /// unlabeled row — into external order under the unrelabeled convention:
  /// a component is named by its minimum external id.  `node_labels` that
  /// name a row are renamed the same way in place; larger ones (isolated
  /// hypernodes) are id-stable.
  [[nodiscard]] std::vector<nw::vertex_id_t> to_external_components(
      const std::vector<nw::vertex_id_t>& row_labels,
      std::span<nw::vertex_id_t>          node_labels = {}) const {
    const std::size_t            n = inv.size();
    std::vector<nw::vertex_id_t> min_ext(n, null_vertex<>);
    for (std::size_t s = 0; s < n; ++s) {
      const nw::vertex_id_t k = row_labels[s];
      if (k != null_vertex<>) min_ext[k] = std::min(min_ext[k], inv[s]);
    }
    std::vector<nw::vertex_id_t> out(n, null_vertex<>);
    for (std::size_t s = 0; s < n; ++s) {
      const nw::vertex_id_t k = row_labels[s];
      if (k != null_vertex<>) out[inv[s]] = min_ext[k];
    }
    for (auto& l : node_labels) {
      if (l < n) l = min_ext[l];
    }
    return out;
  }

  /// Translate a HyperBFS run from storage row `storage_id(source)` into
  /// external ids: edge-indexed arrays reorder (their values, hypernode
  /// ids, never move), node parents map through `inv`, and the source
  /// parents itself under its external id.
  [[nodiscard]] hyper_bfs_result to_external(
      hyper_bfs_result r, nw::vertex_id_t source,
      par::thread_pool& pool = par::thread_pool::default_pool()) const {
    r.dist_edge = to_external_order(r.dist_edge, pool);
    parents_to_external(r.parents_edge, r.parents_node, source, pool);
    return r;
  }

  /// The parent half of to_external, which AdjoinBFS shares: its hyperedge
  /// parents are hypernodes too (shared ids >= nE, which never move) and
  /// its hypernode parents storage rows.
  void parents_to_external(std::vector<nw::vertex_id_t>& parents_edge,
                           std::vector<nw::vertex_id_t>& parents_node, nw::vertex_id_t source,
                           par::thread_pool& pool = par::thread_pool::default_pool()) const {
    parents_edge = to_external_order(parents_edge, pool);
    par::parallel_for(
        0, parents_node.size(),
        [&](std::size_t v) {
          nw::vertex_id_t& p = parents_node[v];
          if (p != null_vertex<>) p = inv[p];
        },
        par::blocked{}, pool);
    if (source < parents_edge.size() && parents_edge[source] != null_vertex<>) {
      parents_edge[source] = source;
    }
  }
};

/// Build the degree-ordered permutation pair.  Deterministic for any thread
/// count and bit-identical to `nw::graph::degree_permutation` +
/// `inverse_permutation`; the counting-sort fast path only runs when the
/// bucket table stays within a constant factor of the id space (a
/// pathological max degree falls back to the comparison sort).
inline relabel_maps degree_relabel_maps(const std::vector<std::size_t>& degrees,
                                        nw::graph::degree_order order =
                                            nw::graph::degree_order::descending,
                                        par::thread_pool& pool = par::thread_pool::default_pool()) {
  const std::size_t n = degrees.size();
  relabel_maps      maps;
  maps.perm.resize(n);
  maps.inv.resize(n);
  if (n == 0) return maps;

  std::size_t max_degree = par::parallel_reduce(
      std::size_t{0}, n, std::size_t{0},
      [&](std::size_t acc, std::size_t i) { return std::max(acc, degrees[i]); },
      [](std::size_t a, std::size_t b) { return std::max(a, b); }, pool);
  const std::size_t buckets = max_degree + 1;
  if (buckets > 4 * n + 1024) {
    // Degenerate degree range: the histogram would dwarf the input.
    maps.perm = nw::graph::degree_permutation(degrees, order);
    maps.inv  = nw::graph::inverse_permutation(maps.perm);
    return maps;
  }
  const bool descending = order == nw::graph::degree_order::descending;
  auto       bucket_of  = [&](std::size_t i) {
    return descending ? max_degree - degrees[i] : degrees[i];
  };

  // Phase 1: per-thread histograms over fixed contiguous blocks (the same
  // blocks the scatter uses, so "thread t, ascending position" is a total
  // order matching ascending old id within each bucket).
  const unsigned    nthreads = pool.concurrency();
  const std::size_t block    = (n + nthreads - 1) / nthreads;
  std::vector<std::size_t> hist(std::size_t{nthreads} * buckets, 0);
  pool.run([&](unsigned tid) {
    const std::size_t begin = std::min<std::size_t>(std::size_t{tid} * block, n);
    const std::size_t end   = std::min<std::size_t>(begin + block, n);
    std::size_t*      mine  = hist.data() + std::size_t{tid} * buckets;
    for (std::size_t i = begin; i < end; ++i) ++mine[bucket_of(i)];
  });

  // Phase 2: column-major prefix sum — bucket 0 of every thread precedes
  // bucket 1 of any thread; within a bucket, lower thread ids (= lower old
  // ids) come first.  Serial over nthreads * buckets counters.
  std::size_t running = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (unsigned t = 0; t < nthreads; ++t) {
      std::size_t& cell = hist[std::size_t{t} * buckets + b];
      std::size_t  cnt  = cell;
      cell              = running;
      running += cnt;
    }
  }

  // Phase 3: stable scatter — each thread walks its block in ascending old
  // id and claims consecutive slots of its (bucket, thread) range.
  pool.run([&](unsigned tid) {
    const std::size_t begin = std::min<std::size_t>(std::size_t{tid} * block, n);
    const std::size_t end   = std::min<std::size_t>(begin + block, n);
    std::size_t*      mine  = hist.data() + std::size_t{tid} * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t slot = mine[bucket_of(i)]++;
      maps.perm[i]           = static_cast<nw::vertex_id_t>(slot);
      maps.inv[slot]         = static_cast<nw::vertex_id_t>(i);
    }
  });
  return maps;
}

}  // namespace nw::hypergraph
