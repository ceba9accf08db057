// bench/bench_micro.cpp — microbenchmarks of the performance-critical
// building blocks: early-exit set intersection, parallel sort, the
// s-overlap count every hashmap s-line build rests on, and the
// materialization pipeline (parallel thread-buffer merge, bulk SoA
// edge-list append, direct per-thread-buffers -> CSR build) whose thread
// scaling bench_snapshot.sh snapshots into BENCH_slinegraph.json.
#include <benchmark/benchmark.h>

#include <utility>

#include "nwhy.hpp"

namespace {

using nw::vertex_id_t;

void BM_IntersectionFull(benchmark::State& state) {
  nw::xoshiro256ss          rng(1);
  std::vector<vertex_id_t> a(state.range(0)), b(state.range(0));
  for (auto& x : a) x = static_cast<vertex_id_t>(rng.bounded(1 << 20));
  for (auto& x : b) x = static_cast<vertex_id_t>(rng.bounded(1 << 20));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw::hypergraph::intersection_size(a, b));
  }
}

void BM_IntersectionEarlyExit(benchmark::State& state) {
  nw::xoshiro256ss          rng(1);
  std::vector<vertex_id_t> a(state.range(0)), b(state.range(0));
  for (auto& x : a) x = static_cast<vertex_id_t>(rng.bounded(1 << 10));  // heavy overlap
  for (auto& x : b) x = static_cast<vertex_id_t>(rng.bounded(1 << 10));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw::hypergraph::intersection_size(a, b, 2));
  }
}

void BM_ParallelSort(benchmark::State& state) {
  nw::xoshiro256ss           rng(2);
  std::vector<std::uint64_t> base(static_cast<std::size_t>(state.range(0)));
  for (auto& x : base) x = rng();
  nw::par::thread_pool pool(4);
  for (auto _ : state) {
    state.PauseTiming();
    auto data = base;
    state.ResumeTiming();
    nw::par::parallel_sort(data.begin(), data.end(), std::less<>{}, pool);
    benchmark::DoNotOptimize(data.data());
  }
}

void BM_StdSort(benchmark::State& state) {
  nw::xoshiro256ss           rng(2);
  std::vector<std::uint64_t> base(static_cast<std::size_t>(state.range(0)));
  for (auto& x : base) x = rng();
  for (auto _ : state) {
    state.PauseTiming();
    auto data = base;
    state.ResumeTiming();
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
  }
}

// --- materialization pipeline kernels --------------------------------------
//
// Deterministic unique unordered pairs via a bijection: pair p maps to
// (a = p / K, b = a + 1 + p % K), so every unordered pair appears exactly
// once and ids stay < P / K + K + 1 — exactly the precondition of
// adjacency::from_unique_undirected_pairs.

constexpr std::size_t kPairs   = std::size_t{1} << 20;
constexpr std::size_t kStride  = 64;  // K in the bijection above
constexpr std::size_t kIdBound = kPairs / kStride + kStride + 1;

using pair_t = std::pair<vertex_id_t, vertex_id_t>;

/// Fill per-thread buffers with the benchmark pair set, split evenly.
void fill_pair_buffers(nw::par::per_thread<std::vector<pair_t>>& buffers) {
  const std::size_t slots = buffers.size();
  for (std::size_t t = 0; t < slots; ++t) {
    auto& buf = buffers.local(static_cast<unsigned>(t));
    buf.clear();
    for (std::size_t p = t; p < kPairs; p += slots) {
      auto a = static_cast<vertex_id_t>(p / kStride);
      auto b = static_cast<vertex_id_t>(a + 1 + p % kStride);
      buf.push_back({a, b});
    }
  }
}

/// Parallel thread-buffer merge (the concat step every construction
/// algorithm and implicit traversal funnels through).  Arg = threads.
void BM_MergeThreadVectors(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  for (auto _ : state) {
    state.PauseTiming();
    fill_pair_buffers(buffers);
    state.ResumeTiming();
    auto merged = nw::par::merge_thread_vectors(buffers, nw::par::merge_capacity::keep, pool);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}

/// Bulk SoA materialization: per-thread buffers -> edge_list in one
/// scan + parallel scatter (no per-element push_back).  Arg = threads.
void BM_EdgeListFromBuffers(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  for (auto _ : state) {
    state.PauseTiming();
    fill_pair_buffers(buffers);
    state.ResumeTiming();
    auto el = nw::graph::edge_list<>::from_thread_buffers(buffers, kIdBound,
                                                          nw::par::merge_capacity::keep, pool);
    benchmark::DoNotOptimize(el.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}

/// Legacy per-element materialization the bulk API replaced: serial merge,
/// element-wise push_back, symmetrize, global sort.  The baseline for
/// BM_CsrFromBuffers.  Arg = threads (used only by the final CSR ctor's
/// internal sort; the funnel itself is serial — that is the point).
void BM_CsrLegacyRoundtrip(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  for (auto _ : state) {
    state.PauseTiming();
    fill_pair_buffers(buffers);
    state.ResumeTiming();
    nw::graph::edge_list<> el(kIdBound);
    buffers.for_each([&](std::vector<pair_t>& buf) {
      for (auto [a, b] : buf) el.push_back(a, b);
    });
    el.symmetrize();
    el.sort_and_unique();
    nw::graph::adjacency<> csr(el, kIdBound);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}

/// Direct per-thread-buffers -> symmetric CSR (degree histogram, scan,
/// scatter, per-row sort) — skips the edge_list round-trip entirely.
/// Arg = threads.
void BM_CsrFromBuffers(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  nw::par::per_thread<std::vector<pair_t>> buffers(pool);
  for (auto _ : state) {
    state.PauseTiming();
    fill_pair_buffers(buffers);
    state.ResumeTiming();
    auto csr = nw::graph::adjacency<>::from_unique_undirected_pairs(
        buffers, kIdBound, nw::par::merge_capacity::keep, pool);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}

// --- the s-overlap count ----------------------------------------------------
//
// detail::count_overlaps over the upper-triangle row tails plus the
// accumulator's threshold walk, serially over every row of a
// Friendster-shaped hypergraph (Zipf edge sizes up to 128, Zipf node
// popularity): the per-row work of overlap_pass without its thread pool
// or pair buffers.  Arg = s; items = accumulator increments.

struct overlap_input {
  nw::hypergraph::biadjacency<0> edges;
  nw::hypergraph::biadjacency<1> nodes;
  std::vector<std::size_t>       degrees;
};

const overlap_input& friendster_rows() {
  static const overlap_input in = [] {
    auto el = nw::hypergraph::gen::powerlaw_hypergraph(8000, 40000, 128, 1.2, 0.8, 0x0C0F);
    el.sort_and_unique();
    overlap_input out{nw::hypergraph::biadjacency<0>(el), nw::hypergraph::biadjacency<1>(el), {}};
    out.degrees = out.edges.degrees();
    return out;
  }();
  return in;
}

void BM_OverlapCount(benchmark::State& state) {
  const auto&              in = friendster_rows();
  const std::size_t        s  = static_cast<std::size_t>(state.range(0));
  const std::size_t*       d  = in.degrees.data();
  nw::sparse_accumulator<> overlap(in.edges.size());
  std::size_t              probes = 0, pairs = 0;
  for (auto _ : state) {
    probes = pairs = 0;
    for (vertex_id_t ei = 0; ei < in.edges.size(); ++ei) {
      if (d[ei] < s) continue;
      probes += nw::hypergraph::detail::count_overlaps(
          in.edges[ei], in.nodes, [d, s](vertex_id_t ej) { return d[ej] >= s; }, overlap, ei);
      pairs += overlap.for_each_at_least(s, [](vertex_id_t ej, std::uint32_t) {
        benchmark::DoNotOptimize(ej);
      });
    }
    benchmark::DoNotOptimize(probes);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * probes));
}

// --- frontier engine kernels ------------------------------------------------
//
// The sparse<->dense conversions and the scout (degree-sum) pass behind
// every direction-optimizing BFS level.  kUniverse bits ~ a mid-size
// frontier universe; the member pattern is a ~1/8-dense pseudo-random
// subset (the regime where a real traversal actually converts).

constexpr std::size_t kUniverse = std::size_t{1} << 22;

const std::vector<vertex_id_t>& frontier_members() {
  static std::vector<vertex_id_t> ids = [] {
    nw::xoshiro256ss         rng(0xF407);
    std::vector<vertex_id_t> out;
    out.reserve(kUniverse / 8);
    for (std::size_t i = 0; i < kUniverse; ++i) {
      if ((rng() & 7u) == 0) out.push_back(static_cast<vertex_id_t>(i));
    }
    return out;
  }();
  return ids;
}

const nw::bitmap& frontier_bits() {
  static nw::bitmap bm = [] {
    nw::bitmap b(kUniverse);
    for (auto v : frontier_members()) b.set(v);
    return b;
  }();
  return bm;
}

/// Serial per-bit scan — the dense->sparse conversion every pre-frontier
/// traversal loop did implicitly (the baseline the parallel conversion
/// must beat).
void BM_FrontierDenseToSparseSerial(benchmark::State& state) {
  const nw::bitmap&        bm = frontier_bits();
  std::vector<vertex_id_t> out;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < bm.size(); ++i) {
      if (bm.get(i)) out.push_back(static_cast<vertex_id_t>(i));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kUniverse));
}

/// Parallel dense->sparse: per-word popcount + scan + scatter.
/// Arg = threads.
void BM_FrontierDenseToSparse(benchmark::State& state) {
  nw::par::thread_pool     pool(static_cast<unsigned>(state.range(0)));
  const nw::bitmap&        bm = frontier_bits();
  std::vector<vertex_id_t> out;
  std::vector<std::size_t> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw::par::bitmap_to_sparse(bm, out, scratch, pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kUniverse));
}

/// Parallel sparse->dense: parallel word clear + atomic bit scatter.
/// Arg = threads.
void BM_FrontierSparseToDense(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  const auto&          ids = frontier_members();
  nw::bitmap           bm(kUniverse);
  for (auto _ : state) {
    nw::par::bitmap_fill_from(bm, ids, pool);
    benchmark::DoNotOptimize(bm.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * ids.size()));
}

/// Scout count (frontier degree sum) as a parallel reduction over the
/// sparse ids — what the alpha test costs when the fused per-thread
/// accumulation is NOT available (e.g. a frontier assembled externally).
/// Arg = threads; Arg 1 doubles as the serial-degree-pass baseline.
void BM_FrontierScoutCount(benchmark::State& state) {
  nw::par::thread_pool pool(static_cast<unsigned>(state.range(0)));
  const auto&          ids = frontier_members();
  static const std::vector<std::uint32_t> degrees = [] {
    nw::xoshiro256ss           rng(0xDE6);
    std::vector<std::uint32_t> d(kUniverse);
    for (auto& x : d) x = static_cast<std::uint32_t>(rng.bounded(64));
    return d;
  }();
  for (auto _ : state) {
    std::size_t sum = nw::par::parallel_reduce(
        0, ids.size(), std::size_t{0},
        [&](std::size_t acc, std::size_t i) { return acc + degrees[ids[i]]; },
        [](std::size_t a, std::size_t b) { return a + b; }, pool);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * ids.size()));
}

}  // namespace

BENCHMARK(BM_IntersectionFull)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_IntersectionEarlyExit)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_OverlapCount)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSort)->Arg(1 << 18)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StdSort)->Arg(1 << 18)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeThreadVectors)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EdgeListFromBuffers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CsrLegacyRoundtrip)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CsrFromBuffers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierDenseToSparseSerial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierDenseToSparse)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierSparseToDense)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierScoutCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
