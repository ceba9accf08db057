// examples/community_components.cpp
//
// The Table-I workload shape end-to-end: a community-membership hypergraph
// (communities = hyperedges, members = hypernodes, like the SNAP-derived
// datasets), analyzed with *both* exact engines the paper provides —
// HyperCC (label propagation) and AdjoinCC (Afforest).  Both run on the
// adjoin view, where HyperCC's two-sided bipartite sweep is plain graph
// label propagation, so the two answers agree label for label.
#include <cstdio>
#include <map>

#include "nwhy.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

int main() {
  auto         el = gen::planted_community_hypergraph(/*communities=*/3000, /*members=*/9000,
                                                      /*max_community=*/120, /*size_alpha=*/1.5,
                                                      /*crosslink_prob=*/0.002, /*seed=*/7);
  NWHypergraph hg(std::move(el));
  std::printf("community hypergraph: %zu communities, %zu members, %zu memberships\n",
              hg.num_hyperedges(), hg.num_hypernodes(), hg.num_incidences());

  // Engine 1: HyperCC, min-label propagation (Sec. III-C.1): every entity
  // adopts the smallest label across its incidences until nothing changes.
  nw::timer t1;
  auto      exact = hg.connected_components();
  double    ms1   = t1.elapsed_ms();

  // Engine 2: AdjoinCC, Afforest's union-find on the same shared index
  // space (Sec. III-C.2); results are split back per class.
  nw::timer t2;
  auto      adjoin = hg.connected_components_adjoin();
  double    ms2    = t2.elapsed_ms();

  auto count_groups = [](const std::vector<vertex_id_t>& edge_labels,
                         const std::vector<vertex_id_t>& node_labels) {
    std::vector<vertex_id_t> all(edge_labels);
    all.insert(all.end(), node_labels.begin(), node_labels.end());
    return nw::graph::count_components(all);
  };
  std::size_t n_exact  = count_groups(exact.labels_edge, exact.labels_node);
  std::size_t n_adjoin = count_groups(adjoin.labels_edge, adjoin.labels_node);

  std::printf("HyperCC  (label propagation):            %5zu components in %7.2f ms\n", n_exact,
              ms1);
  std::printf("AdjoinCC (adjoin graph, Afforest):       %5zu components in %7.2f ms\n", n_adjoin,
              ms2);
  const bool agree = exact.labels_edge == adjoin.labels_edge &&
                     exact.labels_node == adjoin.labels_node;
  std::printf("engines agree: %s\n", agree ? "yes" : "NO — bug!");

  // Component size distribution (communities per component).
  std::map<vertex_id_t, std::size_t> sizes;
  for (auto l : adjoin.labels_edge) sizes[l]++;
  std::map<std::size_t, std::size_t> histogram;
  for (auto& [label, size] : sizes) histogram[size]++;
  std::printf("\ncomponent size histogram (communities per component):\n");
  std::size_t shown = 0;
  for (auto it = histogram.rbegin(); it != histogram.rend() && shown < 8; ++it, ++shown) {
    std::printf("  %6zu communities : %zu component(s)\n", it->first, it->second);
  }

  // BFS coverage from the largest community: how much of the structure is
  // reachable through shared members?
  vertex_id_t largest = 0;
  for (std::size_t e = 1; e < hg.num_hyperedges(); ++e) {
    if (hg.edge_sizes()[e] > hg.edge_sizes()[largest]) largest = static_cast<vertex_id_t>(e);
  }
  auto        bfs     = hg.bfs_adjoin(largest);
  std::size_t reached = 0;
  for (auto p : bfs.parents_edge) reached += p != nw::null_vertex<>;
  std::printf("\nBFS from the largest community (%zu members) reaches %zu of %zu communities\n",
              hg.edge_sizes()[largest], reached, hg.num_hyperedges());
  std::printf("(fragmented coverage is exactly why BFS is fast on Orkut-group/Web in Fig. 8)\n");
  return 0;
}
