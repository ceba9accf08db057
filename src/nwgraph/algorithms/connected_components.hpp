// nwgraph/algorithms/connected_components.hpp
//
// Parallel connected-components algorithms on undirected CSR graphs:
//
//   * label propagation  — min-label flooding until a fixed point
//                          (Orzan / Pregel-style; HyperCC on the adjoin view)
//   * Afforest           — Sutton et al.: link a few neighbors per vertex,
//                          sample to find the largest intermediate component,
//                          then finish everything else, skipping the giant
//                          component's edges (AdjoinCC)
//
// Both return a component-label array where two vertices share a label iff
// they are connected, and both name a component by its minimum vertex id.
// The union-find forest under Afforest (detail::find_root / link_roots /
// compress_all) is the library's only one: the out-of-core HyperCC and the
// incremental s-line components link into it too.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/rng.hpp"

namespace nw::graph {

/// Min-label propagation.  Each round, every vertex adopts the minimum label
/// in its closed neighborhood; rounds repeat until no label changes.
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> cc_label_propagation(const Graph& g) {
  std::vector<vertex_id_t> labels(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) labels[v] = static_cast<vertex_id_t>(v);

  bool changed = true;
  while (changed) {
    changed = par::parallel_reduce(
        0, g.size(), false,
        [&](bool acc, std::size_t u) {
          vertex_id_t lu = atomic_load(labels[u]);
          for (auto&& e : g[u]) {
            vertex_id_t v  = target(e);
            vertex_id_t lv = atomic_load(labels[v]);
            if (lv < lu) {
              write_min(labels[u], lv);
              lu  = lv;
              acc = true;
            } else if (lu < lv) {
              // Push our smaller label to the neighbor as well; this halves
              // the number of rounds on path-like structures.
              if (write_min(labels[v], lu)) acc = true;
            }
          }
          return acc;
        },
        [](bool a, bool b) { return a || b; });
  }
  return labels;
}

namespace detail {

/// Pointer-jumping find with path compression.  Every pointer satisfies
/// comp[v] <= v and only ever decreases: linking hangs the larger root
/// under the smaller, and compression lowers a pointer with write_min and
/// stops once the walk drops to `root` or below.  A concurrent link may
/// hang `root` under a smaller root and compress our path past it first;
/// storing the stale, larger `root` there would raise a pointer and could
/// close a cycle that every later find spins on.
inline vertex_id_t find_root(std::vector<vertex_id_t>& comp, vertex_id_t v) {
  vertex_id_t root = v;
  while (atomic_load(comp[root]) != root) root = atomic_load(comp[root]);
  while (v > root) {
    vertex_id_t next = atomic_load(comp[v]);
    write_min(comp[v], root);
    v = next;
  }
  return root;
}

/// Union by minimum root id, lock-free (Afforest's "link" operation).
inline void link_roots(std::vector<vertex_id_t>& comp, vertex_id_t u, vertex_id_t v) {
  vertex_id_t ru = find_root(comp, u);
  vertex_id_t rv = find_root(comp, v);
  while (ru != rv) {
    if (ru > rv) std::swap(ru, rv);
    // Try to hang the larger root under the smaller one.
    if (compare_and_swap(comp[rv], rv, ru)) return;
    rv = find_root(comp, rv);
    ru = find_root(comp, ru);
  }
}

/// Flatten so every vertex points directly at its root.  Other threads
/// shorten the same chains concurrently, hence the atomic slot accesses.
inline void compress_all(std::vector<vertex_id_t>& comp) {
  par::parallel_for(0, comp.size(), [&](std::size_t v) {
    vertex_id_t p = atomic_load(comp[v]);
    for (vertex_id_t gp = atomic_load(comp[p]); p != gp; gp = atomic_load(comp[p])) {
      p = gp;
      atomic_store(comp[v], p);
    }
  });
}

}  // namespace detail

/// Afforest (Sutton, Ben-Nun, Barak 2018).  `neighbor_rounds` controls how
/// many leading neighbors each vertex links in the cheap first phase.
template <degree_enumerable_graph Graph>
std::vector<vertex_id_t> cc_afforest(const Graph& g, std::size_t neighbor_rounds = 2) {
  std::vector<vertex_id_t> comp(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) comp[v] = static_cast<vertex_id_t>(v);
  if (g.size() == 0) return comp;

  // Phase 1: subgraph sampling — link only the first `neighbor_rounds`
  // neighbors of every vertex.  This already coalesces the giant component.
  for (std::size_t round = 0; round < neighbor_rounds; ++round) {
    par::parallel_for(0, g.size(), [&](std::size_t u) {
      std::size_t skip = round;
      for (auto&& e : g[u]) {
        if (skip-- == 0) {
          detail::link_roots(comp, static_cast<vertex_id_t>(u), target(e));
          break;
        }
      }
    });
  }
  detail::compress_all(comp);

  // Identify the most frequent intermediate component by sampling.
  vertex_id_t giant = [&] {
    xoshiro256ss                                 rng(0xAFF03357u);
    std::unordered_map<vertex_id_t, std::size_t> freq;
    const std::size_t samples = std::min<std::size_t>(1024, g.size());
    for (std::size_t i = 0; i < samples; ++i) {
      freq[comp[rng.bounded(g.size())]]++;
    }
    vertex_id_t best  = comp[0];
    std::size_t count = 0;
    for (auto& [label, c] : freq) {
      if (c > count) {
        count = c;
        best  = label;
      }
    }
    return best;
  }();

  // Phase 2: finish every vertex not already in the giant component,
  // linking its remaining neighbors.
  par::parallel_for(0, g.size(), [&](std::size_t u) {
    if (detail::find_root(comp, static_cast<vertex_id_t>(u)) == giant) return;
    std::size_t skip = neighbor_rounds;
    for (auto&& e : g[u]) {
      if (skip > 0) {
        --skip;
        continue;
      }
      detail::link_roots(comp, static_cast<vertex_id_t>(u), target(e));
    }
  });
  detail::compress_all(comp);
  return comp;
}

/// Number of distinct component labels.
inline std::size_t count_components(const std::vector<vertex_id_t>& labels) {
  std::vector<vertex_id_t> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Size of the largest component.
inline std::size_t largest_component_size(const std::vector<vertex_id_t>& labels) {
  std::unordered_map<vertex_id_t, std::size_t> sizes;
  for (auto l : labels) sizes[l]++;
  std::size_t best = 0;
  for (auto& [l, s] : sizes) best = std::max(best, s);
  return best;
}

}  // namespace nw::graph
