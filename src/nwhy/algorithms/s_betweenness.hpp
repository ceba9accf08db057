// nwhy/algorithms/s_betweenness.hpp
//
// Batched multi-source Brandes betweenness for the s-line graph (ROADMAP
// item 3c): the last Listing-5 metric that only existed as a
// parallel-over-sources kernel with thread-order score merging.  This
// engine restructures Brandes around the PR-3 hybrid frontier machinery so
// the result is *bit-deterministic* — the same doubles for every thread
// count — while every phase still runs parallel:
//
//   forward   level-synchronous BFS per source through par::frontier: the
//             frontier expands top-down in parallel (CAS level claims),
//             then the newly-claimed level pulls its shortest-path counts
//             sigma[v] from the parent level in CSR neighbor order.  Pulling
//             makes each sigma[v] the work of exactly one worker summing in
//             a fixed order, instead of racing atomic pushes.
//   backward  per-level dependency sweep, deepest level first: every vertex
//             of the level pulls delta[w] from its successors (neighbors one
//             level down) in CSR order — the same expression, in the same
//             order, as the textbook serial kernel.
//   merge     per-source dependency vectors are folded into the global
//             scores in source order, one batch at a time: scores[v]
//             accumulates delta over batch slots 0..B-1, batches in
//             submission order, so the floating-point addition order is the
//             source order — independent of worker count and schedule.
//
// Sources are processed in batches of NWHY_BETWEENNESS_BATCH (default 8):
// the batch bounds the extra memory (B dependency vectors of n doubles) and
// amortizes the merge into one sweep per batch.  Batch size never changes
// the result, only the memory/merge tradeoff.
//
// Exact mode runs every vertex as a source; sampled mode draws
// NWHY_BETWEENNESS_SAMPLES seed-driven sources (xoshiro256ss, duplicates
// allowed, matching nw::graph::betweenness_centrality_approx) and scales by
// n / samples — deterministic for a fixed seed at any thread count.
//
// Serial oracle: src/nwhy/ref/serial_betweenness.hpp (std-only textbook
// Brandes; bit-identical by construction, asserted across the differential
// thread ladder by tests/test_betweenness.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/concepts.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/rng.hpp"

namespace nw::hypergraph {

/// Sources per batch: bounds scratch memory at batch x n doubles and sets
/// the merge cadence.  Strict parse, minimum 1; never affects results.
inline std::size_t betweenness_batch() {
  static const std::size_t b = par::detail::env_knob("NWHY_BETWEENNESS_BATCH", 8);
  return b;
}

/// Default source count of the sampled estimator when the caller passes 0.
inline std::size_t betweenness_samples() {
  static const std::size_t s = par::detail::env_knob("NWHY_BETWEENNESS_SAMPLES", 64);
  return s;
}

namespace detail {

/// Per-source scratch of the batched Brandes engine, reused across sources
/// (keep-capacity).  `order` holds the BFS vertices level by level;
/// `level_start[l]` is the offset of level l, with a final end sentinel.
struct brandes_scratch {
  std::vector<vertex_id_t> dist;
  std::vector<double>      sigma;
  std::vector<vertex_id_t> order;
  std::vector<std::size_t> level_start;
};

/// Level-synchronous forward pass from `s`: BFS levels by par::push_step
/// (parallel CAS claims into `dist`), then, after each committed level,
/// sigma for the new level pulled from the parent level in CSR neighbor
/// order — one writer per sigma[v], summing in a schedule-independent
/// order.  (Sigma values are integer path counts, exact in doubles below
/// 2^53, so they would agree with the push formulation regardless; the
/// pull keeps the whole pass atomics-free past the level claim.)
template <class Graph>
void brandes_forward(const Graph& g, vertex_id_t s, brandes_scratch& ws, par::frontier& f0,
                     par::frontier& f1) {
  const std::size_t n = g.size();
  ws.dist.assign(n, null_vertex<>);
  ws.sigma.assign(n, 0.0);
  ws.order.clear();
  ws.level_start.clear();
  ws.dist[s]  = 0;
  ws.sigma[s] = 1.0;
  ws.order.push_back(s);
  ws.level_start.push_back(0);
  ws.level_start.push_back(1);

  par::frontier* cur = &f0;
  par::frontier* nxt = &f1;
  cur->assign_single(s);
  vertex_id_t level = 0;
  while (!cur->empty()) {
    NWOBS_COUNT("betweenness.levels", 1);
    NWOBS_COUNT("betweenness.frontier_total", cur->size());
    ++level;
    const auto st = par::push_step(
        *cur, *nxt, nw::graph::csr_rows(g),
        [&](vertex_id_t, vertex_id_t v) { return claim_unset(ws.dist[v], level); },
        par::no_weight{}, null_vertex<>, par::never_stop{}, par::thread_pool::default_pool());
    NWOBS_COUNT("betweenness.edges_relaxed", st.scanned);
    if (st.added == 0) break;
    const auto& next_ids = nxt->ids();
    par::parallel_for(0, next_ids.size(), [&](std::size_t i) {
      vertex_id_t v   = next_ids[i];
      double      acc = 0.0;
      for (auto&& e : g[v]) {
        vertex_id_t u = nw::graph::target(e);
        if (ws.dist[u] == level - 1) acc += ws.sigma[u];
      }
      ws.sigma[v] = acc;
    });
    ws.order.insert(ws.order.end(), next_ids.begin(), next_ids.end());
    ws.level_start.push_back(ws.order.size());
    std::swap(cur, nxt);
  }
}

/// Backward dependency sweep: levels deepest-first, each level's vertices
/// in parallel, each pulling delta[w] from its one-level-down successors in
/// CSR order — the exact accumulation expression and order of the textbook
/// serial kernel, so the result is bit-identical to it.  The source's own
/// delta (level 0) is never written and stays 0, matching the `w != s`
/// exclusion of the serial form.
template <class Graph>
void brandes_backward(const Graph& g, const brandes_scratch& ws, std::vector<double>& delta) {
  const std::size_t levels = ws.level_start.size() - 1;
  for (std::size_t lev = levels; lev-- > 1;) {
    const std::size_t lo = ws.level_start[lev];
    const std::size_t hi = ws.level_start[lev + 1];
    par::parallel_for(lo, hi, [&](std::size_t k) {
      vertex_id_t w   = ws.order[k];
      double      acc = 0.0;
      for (auto&& e : g[w]) {
        vertex_id_t v = nw::graph::target(e);
        if (ws.dist[v] == ws.dist[w] + 1 && ws.sigma[v] > 0) {
          acc += ws.sigma[w] / ws.sigma[v] * (1.0 + delta[v]);
        }
      }
      delta[w] = acc;
      NWOBS_COUNT("betweenness.dependencies", 1);
    });
  }
}

}  // namespace detail

/// Deterministic seed-driven source list of the sampled estimator:
/// `num_samples` draws (with replacement, clamped to n) from xoshiro256ss —
/// the same stream as nw::graph::betweenness_centrality_approx, exposed so
/// oracles and tools can replay the exact source set.
inline std::vector<vertex_id_t> betweenness_sample_sources(std::size_t n,
                                                           std::size_t num_samples,
                                                           std::uint64_t seed) {
  num_samples = std::min(num_samples, n);
  xoshiro256ss             rng(seed);
  std::vector<vertex_id_t> sources(num_samples);
  for (auto& s : sources) s = static_cast<vertex_id_t>(rng.bounded(n));
  return sources;
}

/// Raw (unhalved, unnormalized) Brandes accumulation over an explicit
/// source list, in batches of `batch` (0 = NWHY_BETWEENNESS_BATCH).  The
/// scores are the sum of per-source dependencies *in source order* — the
/// property that makes every entry bit-identical across thread counts and
/// batch sizes.
template <nw::graph::adjacency_list_graph Graph>
std::vector<double> betweenness_over_sources(const Graph& g,
                                             const std::vector<vertex_id_t>& sources,
                                             std::size_t batch = 0) {
  const std::size_t   n = g.size();
  std::vector<double> scores(n, 0.0);
  if (n == 0 || sources.empty()) return scores;
  if (batch == 0) batch = std::max<std::size_t>(1, betweenness_batch());

  NWOBS_SCOPE_TIMER("betweenness");
  detail::brandes_scratch ws;
  par::frontier           f0(n), f1(n);
  std::vector<std::vector<double>> delta(std::min(batch, sources.size()));

  for (std::size_t base = 0; base < sources.size(); base += batch) {
    const std::size_t width = std::min(batch, sources.size() - base);
    NWOBS_COUNT("betweenness.batches", 1);
    for (std::size_t b = 0; b < width; ++b) {
      delta[b].assign(n, 0.0);
      detail::brandes_forward(g, sources[base + b], ws, f0, f1);
      detail::brandes_backward(g, ws, delta[b]);
      NWOBS_COUNT("betweenness.sources", 1);
    }
    // One merge sweep per batch: each vertex sums its batch-slot deltas in
    // slot order, batches arrive in submission order — so the global
    // addition order per vertex is exactly the source order.
    par::parallel_for(0, n, [&](std::size_t v) {
      double acc = scores[v];
      for (std::size_t b = 0; b < width; ++b) acc += delta[b][v];
      scores[v] = acc;
    });
  }
  return scores;
}

/// Exact batched betweenness: every vertex is a source.  Scores are halved
/// (undirected pairs are accumulated from both endpoints) and, when
/// `normalized`, scaled by 2/((n-1)(n-2)) — the same conventions as
/// nw::graph::betweenness_centrality, but bit-deterministic at any thread
/// count.
template <nw::graph::adjacency_list_graph Graph>
std::vector<double> betweenness_batched(const Graph& g, bool normalized = true,
                                        std::size_t batch = 0) {
  const std::size_t        n = g.size();
  std::vector<vertex_id_t> sources(n);
  std::iota(sources.begin(), sources.end(), vertex_id_t{0});
  auto scores = betweenness_over_sources(g, sources, batch);
  for (auto& x : scores) x /= 2.0;  // undirected double-count
  if (normalized && n > 2) {
    double scale = 2.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2));
    for (auto& x : scores) x *= scale;
  }
  return scores;
}

/// Sampled betweenness: `num_samples` seed-driven sources (0 =
/// NWHY_BETWEENNESS_SAMPLES), scaled by n / samples / 2 like
/// nw::graph::betweenness_centrality_approx.  Same seed => bit-identical
/// scores, at every thread count and batch size.
template <nw::graph::adjacency_list_graph Graph>
std::vector<double> betweenness_sampled(const Graph& g, std::size_t num_samples = 0,
                                        std::uint64_t seed = 42, std::size_t batch = 0) {
  const std::size_t n = g.size();
  if (n == 0) return {};
  if (num_samples == 0) num_samples = std::max<std::size_t>(1, betweenness_samples());
  auto sources = betweenness_sample_sources(n, num_samples, seed);
  auto scores  = betweenness_over_sources(g, sources, batch);
  double scale =
      static_cast<double>(n) / static_cast<double>(sources.size()) / 2.0;
  for (auto& x : scores) x *= scale;
  return scores;
}

}  // namespace nw::hypergraph
