// bench/bench_toplex.cpp — ablation D: Algorithm 3 (the parallel dominance
// kernel) vs the brute-force all-pairs `ref::toplexes` oracle, on
// nesting-heavy and random inputs.
#include <benchmark/benchmark.h>

#include "nwhy.hpp"

namespace {

using namespace nw::hypergraph;

struct fixture {
  biadjacency<0> hyperedges;
  biadjacency<1> hypernodes;
  ref::incidence lists;
};

fixture make(biedgelist<> el) {
  el.sort_and_unique();
  return {biadjacency<0>(el), biadjacency<1>(el), ref::from_biedgelist(el)};
}

const fixture& nested() {
  static fixture f = make(gen::nested_hypergraph(150, 40));
  return f;
}

const fixture& random_hg() {
  static fixture f = make(gen::uniform_random_hypergraph(4000, 800, 4, 0xAB1D));
  return f;
}

void BM_ToplexParallel_Nested(benchmark::State& state) {
  for (auto _ : state) {
    auto t = toplexes(nested().hyperedges, nested().hypernodes);
    benchmark::DoNotOptimize(t.size());
  }
}

void BM_ToplexBruteForce_Nested(benchmark::State& state) {
  for (auto _ : state) {
    auto t = ref::toplexes(nested().lists);
    benchmark::DoNotOptimize(t.size());
  }
}

void BM_ToplexParallel_Random(benchmark::State& state) {
  for (auto _ : state) {
    auto t = toplexes(random_hg().hyperedges, random_hg().hypernodes);
    benchmark::DoNotOptimize(t.size());
  }
}

void BM_ToplexBruteForce_Random(benchmark::State& state) {
  for (auto _ : state) {
    auto t = ref::toplexes(random_hg().lists);
    benchmark::DoNotOptimize(t.size());
  }
}

}  // namespace

BENCHMARK(BM_ToplexParallel_Nested)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ToplexBruteForce_Nested)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ToplexParallel_Random)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ToplexBruteForce_Random)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
