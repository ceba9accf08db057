// tests/test_util.hpp — shared fixtures and canonicalization helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nwhy.hpp"

// GoogleTest compatibility: GTEST_FLAG_SET was introduced in GTest 1.12, but
// conda toolchains commonly resolve find_package(GTest) to 1.11 (the
// GTest_DIR cache entry records which one won).  Death-test files use
// GTEST_FLAG_SET(death_test_style, ...), so provide the 1.12 definition when
// the installed GTest predates it.  The expansion below is byte-for-byte the
// one GTest >= 1.12 ships in gtest-port.h.
#ifndef GTEST_FLAG_SET
#define GTEST_FLAG_SET(name, value) (void)(::testing::GTEST_FLAG(name) = value)
#endif

namespace nwtest {

using nw::vertex_id_t;

/// alpha/beta that pin the direction-optimizing BFS engines
/// (bfs_direction_optimizing, hyper_bfs) to one direction: alpha = 1 never
/// leaves top-down (the scout count never exceeds the unscanned edges);
/// alpha = 2^20 with beta = SIZE_MAX goes bottom-up at the first level with
/// an edge and stays there.
inline constexpr std::size_t top_down_alpha  = 1;
inline constexpr std::size_t bottom_up_alpha = std::size_t{1} << 20;
inline constexpr std::size_t bottom_up_beta  = SIZE_MAX;

/// {top-down, bottom-up} steps recorded since the last registry reset by
/// the engine family `family` ("graph_bfs" or "hyper_bfs").
inline std::pair<std::uint64_t, std::uint64_t> direction_steps(const std::string& family) {
  auto c = nw::obs::registry::get().counters_snapshot();
  return {c[family + ".steps_top_down"], c[family + ".steps_bottom_up"]};
}

/// The adjoin view of an edge list, over a generation built from its
/// sort_and_unique'd copy.
inline nw::hypergraph::adjoin_graph adjoin_of(nw::hypergraph::biedgelist<> el) {
  el.sort_and_unique();
  return nw::hypergraph::adjoin_graph(nw::hypergraph::make_generation(std::move(el)));
}

/// Canonical form of a line-graph edge list: sorted unique {lo, hi} pairs.
inline std::vector<std::pair<vertex_id_t, vertex_id_t>> canonical_pairs(
    const nw::graph::edge_list<>& el) {
  std::vector<std::pair<vertex_id_t, vertex_id_t>> pairs;
  pairs.reserve(el.size());
  for (std::size_t i = 0; i < el.size(); ++i) {
    vertex_id_t a = el.source(i), b = el.destination(i);
    if (a > b) std::swap(a, b);
    pairs.push_back({a, b});
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// True when two label arrays induce the same partition of [0, n)
/// (labels themselves may differ).
template <class T>
bool same_partition(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  std::map<T, T> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [it1, new1] = fwd.try_emplace(a[i], b[i]);
    if (!new1 && it1->second != b[i]) return false;
    auto [it2, new2] = bwd.try_emplace(b[i], a[i]);
    if (!new2 && it2->second != a[i]) return false;
  }
  return true;
}

/// The paper's Fig. 1 hypergraph: 4 hyperedges over 9 hypernodes.
inline nw::hypergraph::biedgelist<> figure1_hypergraph() {
  nw::hypergraph::biedgelist<> el;
  for (vertex_id_t v : {0, 1, 2}) el.push_back(0, v);
  for (vertex_id_t v : {1, 2, 3, 4}) el.push_back(1, v);
  for (vertex_id_t v : {4, 5, 6}) el.push_back(2, v);
  for (vertex_id_t v : {6, 7, 8}) el.push_back(3, v);
  return el;
}

/// A small deterministic pseudo-random graph edge list (undirected,
/// symmetrized) for graph-algorithm tests.
inline nw::graph::edge_list<> random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  nw::xoshiro256ss       rng(seed);
  nw::graph::edge_list<> el(n);
  for (std::size_t i = 0; i < m; ++i) {
    auto u = static_cast<vertex_id_t>(rng.bounded(n));
    auto v = static_cast<vertex_id_t>(rng.bounded(n));
    if (u == v) continue;
    el.push_back(u, v);
    el.push_back(v, u);
  }
  el.sort_and_unique();
  return el;
}

/// Serial reference BFS distances (ground truth for all BFS variants).
template <class Graph>
std::vector<vertex_id_t> reference_bfs_distances(const Graph& g, vertex_id_t s) {
  std::vector<vertex_id_t> dist(g.size(), nw::null_vertex<>);
  std::vector<vertex_id_t> queue;
  dist[s] = 0;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    vertex_id_t u = queue[head];
    for (auto&& e : g[u]) {
      vertex_id_t v = nw::graph::target(e);
      if (dist[v] == nw::null_vertex<>) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// Serial union-find components (ground truth for all CC variants).
template <class Graph>
std::vector<vertex_id_t> reference_components(const Graph& g) {
  std::vector<vertex_id_t> parent(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) parent[v] = static_cast<vertex_id_t>(v);
  auto find = [&](vertex_id_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x         = parent[x];
    }
    return x;
  };
  for (std::size_t u = 0; u < g.size(); ++u) {
    for (auto&& e : g[u]) {
      vertex_id_t ru = find(static_cast<vertex_id_t>(u));
      vertex_id_t rv = find(nw::graph::target(e));
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  std::vector<vertex_id_t> labels(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) labels[v] = find(static_cast<vertex_id_t>(v));
  return labels;
}

}  // namespace nwtest
