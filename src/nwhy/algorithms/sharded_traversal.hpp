// nwhy/algorithms/sharded_traversal.hpp
//
// Out-of-core HyperBFS / HyperCC over a sharded NWHYCSR2 snapshot
// (nwhy/io/shard.hpp).  Both engines keep only the per-entity result
// arrays resident and touch the incidence one shard at a time, so peak RSS
// is bounded by the largest shard plus O(n0 + n1) bookkeeping — the model
// ROADMAP item 2 calls for on >RAM hypergraphs.
//
// HyperBFS is level-synchronous with a *per-shard bucketed* edge frontier:
// every edge-expansion pass walks only the shards holding frontier edges,
// in ascending order.  Node expansion has no such locality (a hypernode's
// incident edges spread across shards), so the node frontier is replayed
// against each shard's local sub-index; replays beyond the first shard are
// counted as spilled frontier entries.  Distances are bit-identical to the
// in-memory engine (level-synchronous order is label-invariant); parents
// are deterministic for a fixed shard count (serial shard order, first
// claim wins).
//
// HyperCC loads each shard once and links every incidence (e, v) of its
// E2N rows into one union-find forest over the n0 + n1 shared ids (the
// Afforest forest of nwgraph/algorithms/connected_components.hpp).  The
// forest roots every component at its minimum id, so after compression
// the labels equal hyper_cc's exactly.
//
// nwobs counters: shard.passes (shard loads), shard.spilled (node-frontier
// replays), plus shard.bytes_loaded / shard.madvise_windows from the
// reader.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "nwgraph/algorithms/connected_components.hpp"
#include "nwhy/algorithms/adjoin_algorithms.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/io/shard.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Out-of-core HyperBFS from hyperedge `source`.  Same result conventions
/// as hyper_bfs: bipartite hop distances, cross-class parents, the source
/// parenting itself; unreached entries are null_vertex.
inline hyper_bfs_result hyper_bfs_sharded(sharded_snapshot& snap, vertex_id_t source) {
  NWOBS_SCOPE_TIMER("hyper_bfs_sharded");
  const std::size_t n0 = static_cast<std::size_t>(snap.num_hyperedges());
  const std::size_t n1 = static_cast<std::size_t>(snap.num_hypernodes());
  const std::size_t K  = snap.num_shards();

  hyper_bfs_result r;
  r.parents_edge.assign(n0, null_vertex<>);
  r.parents_node.assign(n1, null_vertex<>);
  r.dist_edge.assign(n0, null_vertex<>);
  r.dist_node.assign(n1, null_vertex<>);
  if (n0 == 0 || source >= n0) return r;

  r.parents_edge[source] = source;
  r.dist_edge[source]    = 0;

  // Edge frontier bucketed by owning shard; node frontier is global.
  std::vector<std::vector<vertex_id_t>> buckets(K);
  std::vector<vertex_id_t>              node_frontier;
  // Shards with no unvisited edges left are skipped in node expansion.
  std::vector<std::uint64_t> unseen(K);
  for (std::size_t k = 0; k < K; ++k) {
    const auto& s = snap.shard(k);
    unseen[k]     = s.e_end - s.e_begin;
  }
  const std::size_t src_shard = snap.shard_of(source);
  buckets[src_shard].push_back(source);
  --unseen[src_shard];

  vertex_id_t level     = 0;
  bool        edges_any = true;
  while (edges_any) {
    // Edge -> node half-step: only shards holding frontier edges.
    ++level;
    node_frontier.clear();
    for (std::size_t k = 0; k < K; ++k) {
      if (buckets[k].empty()) continue;
      auto view = snap.load_shard(k);
      NWOBS_COUNT("shard.passes", 1);
      for (vertex_id_t e : buckets[k]) {
        for (vertex_id_t v : view.edge_row(e)) {
          if (r.dist_node[v] == null_vertex<>) {
            r.dist_node[v]    = level;
            r.parents_node[v] = e;
            node_frontier.push_back(v);
          }
        }
      }
      buckets[k].clear();
    }
    if (node_frontier.empty()) break;

    // Node -> edge half-step: replay the node frontier per shard (claimed
    // edges land in their own shard's bucket by construction).
    ++level;
    edges_any = false;
    std::size_t touched = 0;
    for (std::size_t k = 0; k < K; ++k) {
      if (unseen[k] == 0) continue;
      auto view = snap.load_shard(k);
      NWOBS_COUNT("shard.passes", 1);
      ++touched;
      for (vertex_id_t v : node_frontier) {
        for (vertex_id_t e : view.node_row(v)) {
          if (r.dist_edge[e] == null_vertex<>) {
            r.dist_edge[e]    = level;
            r.parents_edge[e] = v;
            buckets[k].push_back(e);
            --unseen[k];
            edges_any = true;
          }
        }
      }
    }
    if (touched > 1) {
      NWOBS_COUNT("shard.spilled", node_frontier.size() * (touched - 1));
    }
  }
  snap.release_shard();
  return r;
}

/// Out-of-core HyperCC: one load per shard, each incidence linked into the
/// shared forest.  Labels match hyper_cc exactly (per-component minimum
/// hyperedge id on both sides; isolated hypernodes keep n0 + v).
inline hyper_cc_result hyper_cc_sharded(sharded_snapshot& snap) {
  NWOBS_SCOPE_TIMER("hyper_cc_sharded");
  const std::size_t n0 = static_cast<std::size_t>(snap.num_hyperedges());
  const std::size_t n1 = static_cast<std::size_t>(snap.num_hypernodes());

  std::vector<vertex_id_t> comp(n0 + n1);
  std::iota(comp.begin(), comp.end(), vertex_id_t{0});
  for (std::size_t k = 0; k < snap.num_shards(); ++k) {
    auto view = snap.load_shard(k);
    NWOBS_COUNT("shard.passes", 1);
    par::parallel_for(view.e_begin, view.e_end, [&](std::size_t e) {
      for (vertex_id_t v : view.edge_row(static_cast<vertex_id_t>(e))) {
        nw::graph::detail::link_roots(comp, static_cast<vertex_id_t>(e),
                                      static_cast<vertex_id_t>(n0 + v));
      }
    });
  }
  snap.release_shard();
  nw::graph::detail::compress_all(comp);
  return split_components(comp, n0);
}

}  // namespace nw::hypergraph
