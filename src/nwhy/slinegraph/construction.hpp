// nwhy/slinegraph/construction.hpp
//
// s-line graph construction (paper Sec. III-B.4 / III-C.3).  Given a
// hypergraph H, the s-line graph L_s(H) has one vertex per hyperedge and an
// edge {e_i, e_j} whenever |e_i ∩ e_j| >= s.  Six parallel construction
// algorithms are provided:
//
//   to_two_graph_naive             all-pairs set intersection (reference)
//   to_two_graph_intersection     indirection + per-edge dedup + early-exit
//                                  set intersection (HiPC'21 heuristic)
//   to_two_graph_hashmap          per-source overlap counting in a private
//                                  hashmap (IPDPS'22)
//   to_two_graph_ensemble         one counting pass emitting L_s for a whole
//                                  vector of s values (IPDPS'22 ensemble)
//   to_two_graph_queue_hashmap    *Algorithm 1*: the hashmap algorithm over
//                                  an explicit work queue of hyperedge ids
//   to_two_graph_queue_intersection  *Algorithm 2*: two-phase — enqueue
//                                  eligible pairs, then set-intersect each
//
// The queue-based algorithms accept any id set (original, permuted by
// degree, or adjoin single-index ids) — that versatility is their point.
// Every function is generic over two graph-like structures:
//   edges: hyperedge id -> incident hypernode ids
//   nodes: hypernode id -> incident hyperedge ids
// For the bipartite representation these are biadjacency<0>/<1>; for the
// adjoin representation, pass the same adjoin view as both (hypernode
// neighborhoods are hyperedge ids and vice versa by construction).
// Dually, swapping the roles of edges/nodes yields the s-clique graph, whose
// s = 1 case is the clique expansion.
//
// Every entry point requires s >= 1 (NW_ASSERT): an overlap of 0 is not an
// adjacency, and the algorithms would disagree about it.
// All functions return an edge list containing each line-graph edge once,
// as {min(e_i, e_j), max(e_i, e_j)} pairs in whatever id space the inputs
// use.  Neighbor lists must be sorted ascending (the intersection variants
// rely on it); biadjacency built from a sort_and_unique'd biedgelist
// satisfies this.
//
// One overlap count: every hashmap algorithm here (hashmap, its CSR and
// cyclic spellings, Algorithm 1, the ensemble, the neighbor-range variant),
// the weighted build, the implicit s-rows, the incremental recount and the
// motif census count |e_i ∩ e_j| with detail::count_overlaps into a dense
// per-thread nw::sparse_accumulator (a count array over the hyperedge ids
// plus the list of ids the row touched); the parallel ones run it through
// detail::overlap_pass, which emits each pair with overlap >= s to a
// caller-supplied functor.  The "hashmap" in the algorithm names is the
// paper's; the map is that dense accumulator.
//
// Materialization pipeline (this header's tail): every algorithm fills
// per-thread pair buffers, which are drained by one of two parallel bulk
// paths — edge_list::from_thread_buffers (size scan + parallel SoA
// scatter) for the edge-list-returning entry points, or
// adjacency<>::from_unique_undirected_pairs (per-row lower/upper counts,
// one scatter into the upper halves, then two ordered transposes that
// leave every row sorted without a sort) for the *_csr entry points that
// skip the edge_list round-trip entirely.  Both run under the
// `slinegraph.merge` / `slinegraph.csr_build` phase timers, and both
// leave the (process-wide, reused) per-thread buffers with their capacity
// intact so bench loops, the ensemble and implicit s-BFS do not re-fault
// pages every call.
#pragma once

#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/concepts.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwpar/partitioners.hpp"
#include "nwpar/range_adaptors.hpp"
#include "nwpar/work_stealing.hpp"  // the stealing partitioner is also accepted
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"

namespace nw::hypergraph {

using nw::graph::target;
using nw::vertex_id_t;

/// |a ∩ b| for two sorted ranges, stopping once `cap` common elements are
/// found (pass s: the caller only needs to know whether the overlap
/// reaches s).
template <class R1, class R2>
std::size_t intersection_size(R1&& a, R2&& b, std::size_t cap = static_cast<std::size_t>(-1)) {
  std::size_t count = 0;
  auto        it1 = a.begin();
  auto        it2 = b.begin();
  while (it1 != a.end() && it2 != b.end()) {
    vertex_id_t x = target(*it1);
    vertex_id_t y = target(*it2);
    if (x < y) {
      ++it1;
    } else if (y < x) {
      ++it2;
    } else {
      if (++count >= cap) return count;
      ++it1;
      ++it2;
    }
  }
  return count;
}

namespace detail {

/// Default work list: all hyperedge ids [0, n).
inline std::vector<vertex_id_t> iota_queue(std::size_t n) {
  std::vector<vertex_id_t> q(n);
  std::iota(q.begin(), q.end(), vertex_id_t{0});
  return q;
}

/// Fill an externally-owned queue in place (no allocation, no copy):
/// callers that already hold storage — a bench harness's scratch array, a
/// pybind-provided buffer — pass a span instead of copying into a fresh
/// vector.  Ids start at `first`.
inline void iota_queue(std::span<vertex_id_t> q, vertex_id_t first = 0) {
  std::iota(q.begin(), q.end(), first);
}

using pair_t = std::pair<vertex_id_t, vertex_id_t>;

/// Process-wide reusable per-thread pair buffers for the construction
/// algorithms.  Construction calls are serial at the top level (the thread
/// pool's fork-join dispatch is not reentrant, so two constructions never
/// run concurrently) — which makes a per-process scratch safe and lets
/// repeated calls reuse the grown thread-local allocations instead of
/// re-faulting pages every benchmark iteration.  Slot 0 is the emit
/// buffer; slot 1 is Algorithm 2's phase-1 candidate queue (alive at the
/// same time as slot 0).  Rebuilt when the default pool is resized.
inline par::per_thread<std::vector<pair_t>>& pair_buffers(unsigned slot) {
  static std::unique_ptr<par::per_thread<std::vector<pair_t>>> scratch[2];
  auto& pool = par::thread_pool::default_pool();
  auto& s    = scratch[slot];
  if (!s || s->size() != pool.concurrency()) {
    s = std::make_unique<par::per_thread<std::vector<pair_t>>>(pool);
  }
  s->for_each([](std::vector<pair_t>& v) { v.clear(); });  // stay clear even after exceptions
  return *s;
}

/// Parallel bulk materialization of per-thread pair buffers into an
/// edge_list (no serial per-element loop; buffers keep their capacity).
inline nw::graph::edge_list<> materialize_edge_list(par::per_thread<std::vector<pair_t>>& out,
                                                    std::size_t id_bound) {
  NWOBS_SCOPE_TIMER("slinegraph.merge");
  return nw::graph::edge_list<>::from_thread_buffers(out, id_bound,
                                                     par::merge_capacity::keep);
}

/// Parallel direct CSR materialization: per-thread pair buffers ->
/// symmetric sorted adjacency, skipping the edge_list round-trip.
inline nw::graph::adjacency<> materialize_csr(par::per_thread<std::vector<pair_t>>& out,
                                              std::size_t id_bound) {
  NWOBS_SCOPE_TIMER("slinegraph.csr_build");
  return nw::graph::adjacency<>::from_unique_undirected_pairs(out, id_bound,
                                                              par::merge_capacity::keep);
}

}  // namespace detail

/// Reference algorithm: test every pair of hyperedges.  O(nE² · d); used by
/// the correctness tests as ground truth and by the Fig. 9 harness on the
/// smallest input only.
template <class EGraph, class NGraph>
nw::graph::edge_list<> to_two_graph_naive(const EGraph& edges, const NGraph& nodes,
                                          const std::vector<std::size_t>& edge_degrees,
                                          std::size_t s) {
  (void)nodes;
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  NWOBS_SCOPE_TIMER("slinegraph.naive");
  const std::size_t ne  = edges.size();
  auto&             out = detail::pair_buffers(0);
  par::parallel_for(0, ne, [&](unsigned tid, std::size_t i) {
    if (edge_degrees[i] < s) return;
    std::size_t candidates = 0, emitted = 0;
    for (std::size_t j = i + 1; j < ne; ++j) {
      if (edge_degrees[j] < s) continue;
      ++candidates;
      if (intersection_size(edges[i], edges[j], s) >= s) {
        out.local(tid).push_back({static_cast<vertex_id_t>(i), static_cast<vertex_id_t>(j)});
        ++emitted;
      }
    }
    NWOBS_COUNT("slinegraph.candidate_pairs", candidates);
    NWOBS_COUNT("slinegraph.pairs_emitted", emitted);
  });
  return detail::materialize_edge_list(out, ne);
}

namespace detail {

/// Shared discovery kernel of the intersection-style algorithms: fill the
/// per-thread buffers with every candidate/verified pair of `ei` seen
/// through a shared hypernode.  `Verify` decides whether to run the
/// early-exit intersection before emitting.
template <bool Verify, class EGraph, class NGraph>
void intersect_process_edge(const EGraph& edges, const NGraph& nodes,
                            const std::vector<std::size_t>& edge_degrees, std::size_t s,
                            vertex_id_t ei, std::vector<vertex_id_t>& seen,
                            std::vector<pair_t>& out) {
  if (edge_degrees[ei] < s) return;
  std::size_t candidates = 0, emitted = 0;
  for (auto&& ev : edges[ei]) {
    vertex_id_t v = target(ev);
    for (auto&& ve : nodes[v]) {
      vertex_id_t ej = target(ve);
      if (ej <= ei || edge_degrees[ej] < s) continue;
      if (seen[ej] == ei) continue;  // pair already handled via another shared node
      seen[ej] = ei;
      ++candidates;
      if constexpr (Verify) {
        if (intersection_size(edges[ei], edges[ej], s) >= s) {
          out.push_back({ei, ej});
          ++emitted;
        }
      } else {
        out.push_back({ei, ej});
      }
    }
  }
  NWOBS_COUNT("slinegraph.candidate_pairs", candidates);
  if constexpr (Verify) NWOBS_COUNT("slinegraph.pairs_emitted", emitted);
}

}  // namespace detail

/// HiPC'21 set-intersection heuristic with the indirection pattern
/// "for each e_i, for each v in e_i, for each e_j in v": candidate
/// neighbors are discovered through shared hypernodes (skipping the
/// quadratic pair scan), deduplicated with a per-thread last-seen stamp,
/// then verified by an early-exit set intersection.
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::edge_list<> to_two_graph_intersection(const EGraph& edges, const NGraph& nodes,
                                                 const std::vector<std::size_t>& edge_degrees,
                                                 std::size_t s, std::size_t id_bound = 0,
                                                 Partition part = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.intersection");
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  const std::size_t ne    = edges.size();
  const std::size_t bound = id_bound != 0 ? id_bound : ne;
  auto&             out   = detail::pair_buffers(0);
  par::per_thread<std::vector<vertex_id_t>> stamps;
  stamps.for_each([&](std::vector<vertex_id_t>& v) { v.assign(bound, nw::null_vertex<>); });

  par::parallel_for(
      0, ne,
      [&](unsigned tid, std::size_t i) {
        detail::intersect_process_edge<true>(edges, nodes, edge_degrees, s,
                                             static_cast<vertex_id_t>(i), stamps.local(tid),
                                             out.local(tid));
      },
      part);
  return detail::materialize_edge_list(out, bound);
}

namespace detail {

/// The overlap count every hashmap algorithm rests on: walk `row`'s members
/// through the transpose `nodes` and count, for each hyperedge ej with
/// keep(ej), how many members it shares with `row` — afterwards `overlap`
/// maps ej to |row ∩ ej|.  Returns the number of increments (the hashmap
/// probes).  The only code that increments an overlap accumulator; its
/// key space must cover every id `nodes` holds (overlap_accumulators).
template <class Row, class NGraph, class Keep>
std::size_t count_overlaps(Row&& row, const NGraph& nodes, Keep keep,
                           sparse_accumulator<>& overlap) {
  overlap.clear();
  std::size_t probes = 0;
  for (auto&& ev : row) {
    for (auto&& ve : nodes[target(ev)]) {
      const vertex_id_t ej = target(ve);
      if (keep(ej)) {
        overlap.increment(ej);
        ++probes;
      }
    }
  }
  return probes;
}

/// One overlap accumulator per context of `pool`, each over ids [0, n).
inline par::per_thread<sparse_accumulator<>> overlap_accumulators(
    std::size_t n, par::thread_pool& pool = par::thread_pool::default_pool()) {
  par::per_thread<sparse_accumulator<>> accs(pool);
  accs.for_each([n](sparse_accumulator<>& a) { a.ensure_keys(n); });
  return accs;
}

/// The parallel pass of the hashmap algorithms: for each k in [0, n), row
/// ei = id_of(k) (skipped when deg[ei] < s) counts its overlaps with every
/// larger-id hyperedge of degree >= s, and `emit(tid, ei, ej, c)` receives
/// each pair with c >= s.  Counts `slinegraph.hashmap_probes`,
/// `slinegraph.candidate_pairs` and `slinegraph.pairs_emitted`.
template <class EGraph, class NGraph, class IdOf, class Partition, class Emit>
void overlap_pass(const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& deg,
                  std::size_t s, std::size_t n, IdOf id_of, Partition part, Emit emit) {
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  auto maps = overlap_accumulators(deg.size());
  par::parallel_for(
      0, n,
      [&](unsigned tid, std::size_t k) {
        const vertex_id_t ei = id_of(k);
        if (deg[ei] < s) return;
        auto&             overlap = maps.local(tid);
        [[maybe_unused]] const std::size_t probes = count_overlaps(
            edges[ei], nodes,
            [ei, d = deg.data(), s](vertex_id_t ej) { return ej > ei && d[ej] >= s; }, overlap);
        std::size_t emitted = 0;
        overlap.for_each([&](vertex_id_t ej, std::uint32_t c) {
          if (c >= s) {
            emit(tid, ei, ej, c);
            ++emitted;
          }
        });
        NWOBS_COUNT("slinegraph.hashmap_probes", probes);
        NWOBS_COUNT("slinegraph.candidate_pairs", overlap.size());
        NWOBS_COUNT("slinegraph.pairs_emitted", emitted);
      },
      part);
}

/// The id_of of a pass over every row [0, n).
inline constexpr auto row_id = [](std::size_t k) { return static_cast<vertex_id_t>(k); };

/// Row ids -> output ids through `id_map` (empty = identity), as a
/// {min, max} pair.
inline pair_t renamed_pair(std::span<const vertex_id_t> id_map, vertex_id_t a, vertex_id_t b) {
  if (id_map.empty()) return {a, b};
  a = id_map[a];
  b = id_map[b];
  return a < b ? pair_t{a, b} : pair_t{b, a};
}

/// Counting phase of the hashmap algorithm: fills (and returns) the
/// process-wide per-thread pair buffers, renaming endpoints through
/// `id_map`.  Shared by the edge-list and direct-CSR entry points.
template <class EGraph, class NGraph, class Partition>
par::per_thread<std::vector<pair_t>>& hashmap_collect(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, Partition part, std::span<const vertex_id_t> id_map = {}) {
  auto& out = pair_buffers(0);
  overlap_pass(edges, nodes, edge_degrees, s, edges.size(), row_id, part,
               [&out, id_map](unsigned tid, vertex_id_t ei, vertex_id_t ej, std::uint32_t) {
                 out.local(tid).push_back(renamed_pair(id_map, ei, ej));
               });
  return out;
}

}  // namespace detail

/// IPDPS'22 hashmap-counting algorithm: iterates hyperedges [0, nE)
/// directly (contiguous-id assumption the queue variant removes).
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::edge_list<> to_two_graph_hashmap(const EGraph& edges, const NGraph& nodes,
                                            const std::vector<std::size_t>& edge_degrees,
                                            std::size_t s, Partition part = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.hashmap");
  auto& out = detail::hashmap_collect(edges, nodes, edge_degrees, s, part);
  return detail::materialize_edge_list(out, edges.size());
}

/// Hashmap algorithm materialized straight to the symmetric CSR the
/// s_linegraph object wants — no intermediate edge_list, no symmetrize, no
/// global sort.  Identical edge set to
/// adjacency<>(sort_and_unique(symmetrize(to_two_graph_hashmap(...)))).
/// A non-empty `id_map` (a permutation of the row ids) renames the
/// vertices: pairs stay unique and the sorted-row assembly yields the same
/// CSR as a build over the renamed rows.
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::adjacency<> to_two_graph_hashmap_csr(const EGraph& edges, const NGraph& nodes,
                                                const std::vector<std::size_t>& edge_degrees,
                                                std::size_t s, Partition part = {},
                                                std::span<const vertex_id_t> id_map = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.hashmap");
  auto& out = detail::hashmap_collect(edges, nodes, edge_degrees, s, part, id_map);
  return detail::materialize_csr(out, edges.size());
}

/// **Algorithm 1** (paper): single-phase queue-based hashmap counting.  The
/// hyperedge ids to process arrive in an explicit work queue, so the ids
/// may be original, permuted by degree, or adjoin-graph ids — no
/// contiguous-[0, nE) assumption.  `id_bound` is an exclusive upper bound on
/// the ids (used to size the output's vertex count).
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::edge_list<> to_two_graph_queue_hashmap(std::span<const vertex_id_t> queue,
                                                  const EGraph& edges, const NGraph& nodes,
                                                  const std::vector<std::size_t>& edge_degrees,
                                                  std::size_t s, std::size_t id_bound,
                                                  Partition part = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.queue_hashmap");
  NWOBS_GAUGE_MAX("slinegraph.alg1_queue_occupancy", queue.size());
  auto& out = detail::pair_buffers(0);
  detail::overlap_pass(edges, nodes, edge_degrees, s, queue.size(),
                       [queue](std::size_t k) { return queue[k]; }, part,
                       [&](unsigned tid, vertex_id_t ei, vertex_id_t ej, std::uint32_t) {
                         out.local(tid).push_back({ei, ej});
                       });
  return detail::materialize_edge_list(out, id_bound);
}

/// **Algorithm 2** (paper): two-phase queue-based set intersection.
/// Phase 1 discovers eligible pairs through shared hypernodes and enqueues
/// them (per-thread queues, merged).  Phase 2 is a flat parallel loop of
/// set intersections over the pair queue — one loop, fine-grained units,
/// hence the better load-balance potential the paper claims.
template <class EGraph, class NGraph, class Partition = par::blocked>
nw::graph::edge_list<> to_two_graph_queue_intersection(
    std::span<const vertex_id_t> queue, const EGraph& edges, const NGraph& nodes,
    const std::vector<std::size_t>& edge_degrees, std::size_t s, std::size_t id_bound,
    Partition part = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.queue_intersection");
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  NWOBS_GAUGE_MAX("slinegraph.alg2_queue_occupancy", queue.size());
  // Phase 1: enqueue candidate pairs.  Candidate discovery is attributed to
  // the worker that found it (per-thread counts, merged on read) — the
  // intersect kernel's candidate counter covers this.
  auto& pair_queues = detail::pair_buffers(1);
  par::per_thread<std::vector<vertex_id_t>> stamps;
  stamps.for_each([&](std::vector<vertex_id_t>& v) { v.assign(id_bound, nw::null_vertex<>); });
  par::parallel_for(
      0, queue.size(),
      [&](unsigned tid, std::size_t qi) {
        detail::intersect_process_edge<false>(edges, nodes, edge_degrees, s, queue[qi],
                                              stamps.local(tid), pair_queues.local(tid));
      },
      part);
  auto pairs = par::merge_thread_vectors(pair_queues, par::merge_capacity::keep);
  // Phase-2 work-queue occupancy (pairs that survived phase-1 discovery and
  // must now be verified).
  NWOBS_GAUGE_MAX("slinegraph.alg2_pair_queue_occupancy", pairs.size());

  // Phase 2: one flat loop of early-exit set intersections.
  auto& out = detail::pair_buffers(0);
  par::parallel_for(
      0, pairs.size(),
      [&](unsigned tid, std::size_t k) {
        auto [ei, ej] = pairs[k];
        if (intersection_size(edges[ei], edges[ej], s) >= s) {
          out.local(tid).push_back({ei, ej});
          NWOBS_COUNT("slinegraph.pairs_emitted", 1);
        }
      },
      part);
  return detail::materialize_edge_list(out, id_bound);
}

/// IPDPS'22 ensemble algorithm: one counting pass over the hypergraph
/// produces L_s for *every* s in `s_values` (sorted ascending not required).
/// Returns one edge list per requested s, in the same order.
template <class EGraph, class NGraph, class Partition = par::blocked>
std::vector<nw::graph::edge_list<>> to_two_graph_ensemble(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    const std::vector<std::size_t>& s_values, Partition part = {}) {
  NWOBS_SCOPE_TIMER("slinegraph.ensemble");
  const std::size_t ne    = edges.size();
  std::size_t       s_min = static_cast<std::size_t>(-1);
  for (auto s : s_values) s_min = std::min(s_min, s);
  const std::size_t k = s_values.size();

  using detail::pair_t;
  par::per_thread<std::vector<std::vector<pair_t>>> out;
  out.for_each([&](std::vector<std::vector<pair_t>>& v) { v.resize(k); });
  // One pass at s_min; a pair of overlap c belongs to every L_s with s <= c
  // (c >= s already implies both degrees reach s).
  detail::overlap_pass(edges, nodes, edge_degrees, s_min, ne, detail::row_id, part,
                       [&out, sv = s_values.data(), k](unsigned tid, vertex_id_t ei,
                                                        vertex_id_t ej, std::uint32_t c) {
                         auto& locals = out.local(tid);
                         for (std::size_t si = 0; si < k; ++si) {
                           if (c >= sv[si]) locals[si].push_back({ei, ej});
                         }
                       });

  // Materialize each requested s by buffer-granular bulk appends (each
  // append_bulk is itself a parallel SoA scatter — no per-element loop).
  std::vector<nw::graph::edge_list<>> results;
  results.reserve(k);
  {
    NWOBS_SCOPE_TIMER("slinegraph.merge");
    for (std::size_t si = 0; si < k; ++si) {
      std::size_t total = 0;
      out.for_each([&](const std::vector<std::vector<pair_t>>& v) { total += v[si].size(); });
      nw::graph::edge_list<> el(ne);
      el.reserve(total);
      out.for_each([&](std::vector<std::vector<pair_t>>& v) { el.append_bulk(v[si]); });
      results.push_back(std::move(el));
    }
  }
  return results;
}

/// Hashmap counting driven by the cyclic_neighbor_range adaptor (paper
/// Listing 4, third style): bins of (hyperedge, neighborhood) tuples are
/// handed to threads whole, so the kernel never re-indexes the outer
/// structure.  Produces the same edge set as to_two_graph_hashmap.
template <class EGraph, class NGraph>
nw::graph::edge_list<> to_two_graph_neighbor_range(const EGraph& edges, const NGraph& nodes,
                                                   const std::vector<std::size_t>& edge_degrees,
                                                   std::size_t s, std::size_t num_bins = 0) {
  NWOBS_SCOPE_TIMER("slinegraph.neighbor_range");
  NW_ASSERT(s >= 1, "s-line kernels need s >= 1");
  const std::size_t ne  = edges.size();
  auto&             out  = detail::pair_buffers(0);
  auto              maps = detail::overlap_accumulators(edge_degrees.size());
  par::for_each_cyclic_neighborhood(
      edges, num_bins, [&](unsigned tid, std::size_t i, auto&& neighborhood) {
        const vertex_id_t ei = static_cast<vertex_id_t>(i);
        if (edge_degrees[ei] < s) return;
        auto& overlap = maps.local(tid);
        detail::count_overlaps(
            neighborhood, nodes,
            [ei, d = edge_degrees.data(), s](vertex_id_t ej) { return ej > ei && d[ej] >= s; },
            overlap);
        overlap.for_each([&](vertex_id_t ej, std::uint32_t c) {
          if (c >= s) out.local(tid).push_back({ei, ej});
        });
      });
  return detail::materialize_edge_list(out, ne);
}

/// Paper Listing 2 convenience spelling: the hashmap algorithm with the
/// cyclic partitioning strategy.  `num_threads` is accepted for interface
/// fidelity but the pool's configured concurrency governs execution.
template <class EGraph, class NGraph>
nw::graph::edge_list<> to_two_graph_hashmap_cyclic(const EGraph& edges, const NGraph& nodes,
                                                   const std::vector<std::size_t>& edge_degrees,
                                                   std::size_t s, std::size_t num_threads,
                                                   std::size_t num_bins) {
  (void)num_threads;
  return to_two_graph_hashmap(edges, nodes, edge_degrees, s, par::cyclic{num_bins});
}

/// Clique expansion (Sec. III-B.3) = the 1-line graph of the dual: vertices
/// are hypernodes, with an edge between every pair of hypernodes sharing a
/// hyperedge.  Known to blow up on large hyperedges — that cost is the
/// motivation for s-line graphs, and the Fig. 9 harness measures it.
template <class NGraph, class EGraph>
nw::graph::edge_list<> clique_expansion(const NGraph& nodes, const EGraph& edges,
                                        const std::vector<std::size_t>& node_degrees) {
  return to_two_graph_hashmap(nodes, edges, node_degrees, 1);
}

/// Clique expansion materialized straight to a symmetric CSR (the
/// representation every consumer wants) through the direct pipeline.
template <class NGraph, class EGraph>
nw::graph::adjacency<> clique_expansion_csr(const NGraph& nodes, const EGraph& edges,
                                            const std::vector<std::size_t>& node_degrees) {
  return to_two_graph_hashmap_csr(nodes, edges, node_degrees, 1);
}

}  // namespace nw::hypergraph
