// examples/quickstart.cpp
//
// Quickstart: build the paper's running-example hypergraph (Fig. 1), look
// at all four representations, and compute a few exact and approximate
// metrics.  Mirrors the flow of the paper's Listing 2 + Listing 5.
#include <cstdio>

#include "nwhy.hpp"

using namespace nw::hypergraph;

int main() {
  // The Fig. 1 hypergraph: 4 hyperedges over 9 hypernodes.
  //   e0 = {v0, v1, v2}   e1 = {v1, v2, v3, v4}
  //   e2 = {v4, v5, v6}   e3 = {v6, v7, v8}
  biedgelist<> el;
  for (nw::vertex_id_t v : {0, 1, 2}) el.push_back(0, v);
  for (nw::vertex_id_t v : {1, 2, 3, 4}) el.push_back(1, v);
  for (nw::vertex_id_t v : {4, 5, 6}) el.push_back(2, v);
  for (nw::vertex_id_t v : {6, 7, 8}) el.push_back(3, v);

  NWHypergraph hg(std::move(el));
  std::printf("hypergraph: %zu hyperedges, %zu hypernodes, %zu incidences\n",
              hg.num_hyperedges(), hg.num_hypernodes(), hg.num_incidences());

  // Representation 1: bipartite (two mutually indexed CSRs) — iterate as a
  // range of ranges, exactly like the paper's Listing 3.
  std::printf("\nbipartite representation (hyperedge -> hypernodes):\n");
  std::size_t edge_id = 0;
  for (auto&& neighbors : hg.hyperedges()) {
    std::printf("  e%zu:", edge_id++);
    for (auto&& e : neighbors) std::printf(" v%u", target(e));
    std::printf("\n");
  }

  // Representation 2: adjoin graph — one shared index set.
  const auto adjoin = hg.adjoin();
  std::printf("\nadjoin graph: %zu ids (%zu hyperedge ids + %zu hypernode ids)\n",
              adjoin.num_ids(), adjoin.nrealedges(), adjoin.nrealnodes());

  // Exact analytics on both representations.
  auto cc  = hg.connected_components();
  auto acc = hg.connected_components_adjoin();
  std::printf("\nHyperCC labels (hyperedges):  ");
  for (auto l : cc.labels_edge) std::printf("%u ", l);
  std::printf("\nAdjoinCC labels (hyperedges): ");
  for (auto l : acc.labels_edge) std::printf("%u ", l);

  auto bfs = hg.bfs(0);
  std::printf("\n\nHyperBFS from e0: hyperedge depths:");
  for (auto d : bfs.dist_edge) std::printf(" %u", d);

  // Representation 3 + 4: clique expansion and s-line graphs.
  auto clique = hg.clique_expansion_graph();
  std::printf("\n\nclique expansion: %zu vertices, %zu undirected edges\n", clique.size(),
              clique.num_edges() / 2);

  for (std::size_t s = 1; s <= 3; ++s) {
    auto lg = hg.make_s_linegraph(s);
    std::printf("%zu-line graph: %zu edges, %s\n", s, lg.num_edges(),
                lg.is_s_connected() ? "s-connected" : "not s-connected");
  }

  // Listing 5 style s-metric queries on the 1-line graph.
  auto lg = hg.make_s_linegraph(1);
  auto d  = lg.s_distance(0, 3);
  std::printf("\ns-distance(e0, e3) in the 1-line graph: %zu\n", d ? *d : 0);
  auto path = lg.s_path(0, 3);
  std::printf("s-path(e0, e3):");
  for (auto e : path) std::printf(" e%u", e);
  std::printf("\n");

  auto toplex = hg.toplexes();
  std::printf("toplexes:");
  for (auto t : toplex) std::printf(" e%u", t);
  std::printf("\n");
  return 0;
}
