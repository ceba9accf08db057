// bench/bench_ablation_bfs_dir.cpp — ablation C (Sec. III-C.1/2): top-down
// vs bottom-up vs direction-optimizing BFS, on both the bipartite and the
// adjoin representations.  Direction-optimization is what separates
// AdjoinBFS from the top-down HygraBFS comparator.  The one-direction series
// pin the direction-optimizing engines with alpha/beta: alpha = 1 stays
// top-down, alpha = 2^20 with beta = SIZE_MAX stays bottom-up.
#include <benchmark/benchmark.h>

#include "nwhy.hpp"

namespace {

using namespace nw::hypergraph;

constexpr std::size_t top_down_alpha  = 1;
constexpr std::size_t bottom_up_alpha = std::size_t{1} << 20;
constexpr std::size_t bottom_up_beta  = SIZE_MAX;

struct fixture {
  biadjacency<0> hyperedges;
  biadjacency<1> hypernodes;
  adjoin_graph   adjoin;
  nw::vertex_id_t source;
};

const fixture& data() {
  static fixture f = [] {
    auto el = gen::uniform_random_hypergraph(30000, 30000, 8, 0xAB1C);
    el.sort_and_unique();
    auto            g   = make_generation(std::move(el));
    nw::vertex_id_t src = 0;
    return fixture{g->hyperedges, g->hypernodes, adjoin_graph(g), src};
  }();
  return f;
}

void BM_HyperBFS_TopDown(benchmark::State& state) {
  const auto& f = data();
  for (auto _ : state) {
    auto r = hyper_bfs(f.hyperedges, f.hypernodes, f.source, top_down_alpha);
    benchmark::DoNotOptimize(r.parents_edge.data());
  }
}

void BM_HyperBFS_BottomUp(benchmark::State& state) {
  const auto& f = data();
  for (auto _ : state) {
    auto r = hyper_bfs(f.hyperedges, f.hypernodes, f.source, bottom_up_alpha, bottom_up_beta);
    benchmark::DoNotOptimize(r.parents_edge.data());
  }
}

void BM_HyperBFS_DirectionOptimizing(benchmark::State& state) {
  const auto& f = data();
  for (auto _ : state) {
    auto r = hyper_bfs(f.hyperedges, f.hypernodes, f.source);
    benchmark::DoNotOptimize(r.parents_edge.data());
  }
}

void BM_AdjoinBFS_TopDown(benchmark::State& state) {
  const auto& f = data();
  for (auto _ : state) {
    auto r = nw::graph::bfs_direction_optimizing(f.adjoin, f.source, top_down_alpha);
    benchmark::DoNotOptimize(r.data());
  }
}

void BM_AdjoinBFS_DirectionOptimizing(benchmark::State& state) {
  const auto& f = data();
  for (auto _ : state) {
    auto r = nw::graph::bfs_direction_optimizing(f.adjoin, f.source);
    benchmark::DoNotOptimize(r.data());
  }
}

}  // namespace

BENCHMARK(BM_HyperBFS_TopDown)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HyperBFS_BottomUp)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HyperBFS_DirectionOptimizing)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdjoinBFS_TopDown)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdjoinBFS_DirectionOptimizing)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
