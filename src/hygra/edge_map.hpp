// hygra/edge_map.hpp
//
// Ligra-style edgeMap over one direction of the bipartite incidence, in
// both of Ligra's modes:
//
//   sparse (push) — for every u in the frontier, apply `update(u, v)` to
//                   each incidence (u, v), keeping v when update returned
//                   true and `cond(v)` held
//   dense (pull)  — for every target v with cond(v), scan v's own
//                   incidence list for frontier members; the scan stops as
//                   soon as cond(v) turns false (Ligra's early exit); the
//                   output subset comes back bitmap-backed
//
// plus the direction-optimizing dispatcher that picks between them with
// Ligra's |F| + sum-of-degrees > m/20 rule (the degree sum is computed by
// a parallel reduction, never a serial frontier walk).
#pragma once

#include "hygra/vertex_subset.hpp"
#include "nwgraph/concepts.hpp"
#include "nwobs/counters.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hygra {

/// Push-style (sparse) edgeMap: the original Hygra primitive.
template <class Graph, class Update, class Cond>
vertex_subset edge_map_sparse(const Graph& g, const vertex_subset& frontier, Update update,
                              Cond cond) {
  const auto&                               ids = frontier.ids();
  par::per_thread<std::vector<vertex_id_t>> out;
  par::parallel_for(0, ids.size(), [&](unsigned tid, std::size_t i) {
    vertex_id_t u = ids[i];
    for (auto&& e : g[u]) {
      vertex_id_t v = nw::graph::target(e);
      if (cond(v) && update(u, v)) {
        out.local(tid).push_back(v);
      }
    }
  });
  return vertex_subset(par::merge_thread_vectors(out));
}

/// Backward-compatible name for the push-style primitive.
template <class Graph, class Update, class Cond>
vertex_subset edge_map(const Graph& g, const vertex_subset& frontier, Update update, Cond cond) {
  return edge_map_sparse(g, frontier, update, cond);
}

/// Pull-style (dense) edgeMap: `g_target` is the incidence *out of* the
/// target side (each target entity's own list); `frontier_universe` is the
/// size of the index space the frontier lives in.  Every target v with
/// cond(v) scans its list for frontier members, applying update(u, v) for
/// each hit until cond(v) turns false.  Returns a bitmap-backed subset —
/// a following dense step consumes it without any conversion.
template <class GraphT, class Update, class Cond>
vertex_subset edge_map_dense(const GraphT& g_target, const vertex_subset& frontier,
                             std::size_t frontier_universe, Update update, Cond cond) {
  const nw::bitmap&            fb = frontier.bits(frontier_universe);
  nw::bitmap                   out_bits(g_target.size());
  par::per_thread<std::size_t> added;
  par::parallel_for(0, g_target.size(), [&](unsigned tid, std::size_t v) {
    if (!cond(static_cast<vertex_id_t>(v))) return;
    bool hit = false;
    for (auto&& e : g_target[v]) {
      vertex_id_t u = nw::graph::target(e);
      if (fb.get(u) && update(u, static_cast<vertex_id_t>(v))) hit = true;
      if (!cond(static_cast<vertex_id_t>(v))) break;  // Ligra's early exit
    }
    if (hit) {
      // One writer per *bit*, but neighbouring bits share a 64-bit word and
      // chunk boundaries are not word-aligned — the |= must be atomic.
      out_bits.set_atomic(static_cast<std::size_t>(v));
      ++added.local(tid);
    }
  });
  std::size_t total = 0;
  added.for_each([&](std::size_t& a) { total += a; });
  return vertex_subset(std::move(out_bits), total);
}

/// Direction-optimizing edgeMap: `g_frontier` maps the frontier's side onto
/// the target side (push direction), `g_target` maps the target side back
/// (pull direction).  Ligra's rule: go dense when
/// |F| + sum of out-degrees(F) > m / 20.  A bitmap-backed frontier whose
/// size alone clears the threshold stays dense with no conversion at all;
/// otherwise the degree sum is a parallel reduction over the sparse ids.
template <class Graph, class GraphT, class Update, class Cond>
vertex_subset edge_map(const Graph& g_frontier, const GraphT& g_target,
                       const vertex_subset& frontier, Update update, Cond cond) {
  const std::size_t threshold = std::max<std::size_t>(1, g_frontier.num_edges() / 20);
  bool              go_dense  = frontier.size() > threshold;
  if (!go_dense) {
    const auto& ids    = frontier.ids();
    std::size_t degsum = par::parallel_reduce(
        0, ids.size(), std::size_t{0},
        [&](std::size_t acc, std::size_t i) { return acc + g_frontier.degree(ids[i]); },
        [](std::size_t a, std::size_t b) { return a + b; });
    go_dense = frontier.size() + degsum > threshold;
  }
  if (go_dense) {
    NWOBS_COUNT("hygra.steps_dense", 1);
    return edge_map_dense(g_target, frontier, g_frontier.size(), update, cond);
  }
  NWOBS_COUNT("hygra.steps_sparse", 1);
  return edge_map_sparse(g_frontier, frontier, update, cond);
}

/// vertexMap: apply `fn` to every member of a subset.  The sparse view is
/// materialized once, before the parallel loop (the lazy conversion is not
/// itself thread-safe to trigger concurrently).
template <class Fn>
void vertex_map(const vertex_subset& subset, Fn fn) {
  const auto& ids = subset.ids();
  par::parallel_for(0, ids.size(), [&](std::size_t i) { fn(ids[i]); });
}

}  // namespace nw::hygra
