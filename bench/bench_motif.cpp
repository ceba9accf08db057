// bench/bench_motif.cpp — hypergraph triad/wedge census over the bipartite
// form: one parallel_for over hyperedges counting pair overlaps on the s-line
// kernel, per-thread integer counters, swept over NWHY_BENCH_THREADS.
//
// Operations:
//   motif-census  count_motifs over the compacted CSR pair (wedges, triads,
//                 open wedges, butterflies in one pass)
//
//   NWHY_BENCH_JSON  path; when set the harness writes machine-readable
//                    records for scripts/bench_snapshot.sh: schema section
//                    "motif" of nwhy-bench-analytics-v1, one record per
//                    thread-count: {"dataset", "operation", "wedges",
//                    "threads", "median_ms", "peak_rss_kb"}
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace bench;

namespace {

struct sample {
  std::string operation;
  unsigned    threads;
  double      median_ms;
};

int run_json_mode(const char* path, const std::string& dataset, std::uint64_t wedges,
                  const std::vector<sample>& rows) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "[");
  bool first = true;
  for (const auto& r : rows) {
    std::fprintf(out,
                 "%s\n  {\"dataset\": \"%s\", \"operation\": \"%s\", \"wedges\": %llu, "
                 "\"threads\": %u, \"median_ms\": %.4f, \"peak_rss_kb\": %ld}",
                 first ? "" : ",", dataset.c_str(), r.operation.c_str(),
                 static_cast<unsigned long long>(wedges), r.threads, r.median_ms,
                 peak_rss_kb());
    first = false;
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  std::fprintf(stderr, "[bench] wrote motif sweep to %s\n", path);
  return 0;
}

}  // namespace

int main() {
  install_profile_export();

  const std::size_t scale = env_size("NWHY_BENCH_SCALE", 1);
  const std::size_t ne    = 20000 * scale;
  const std::size_t nv    = 4000 * scale;
  const std::string name  = "Rand-motif";

  biedgelist<> el = gen::uniform_random_hypergraph(ne, nv, 8, 0x30F1);
  el.sort_and_unique();
  NWHypergraph hg{std::move(el)};

  motif_census        census{};
  std::vector<sample> rows;
  for (unsigned threads : env_threads()) {
    nw::par::thread_pool::set_default_concurrency(threads);
    rows.push_back({"motif-census", threads, time_median_ms([&] {
                      census = hg.motifs();
                    })});
  }
  nw::par::thread_pool::set_default_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));

  if (const char* json = std::getenv("NWHY_BENCH_JSON"); json != nullptr && *json != '\0') {
    return run_json_mode(json, name, census.wedges, rows);
  }

  std::printf("motif census — wedges/triads/butterflies (median of %zu reps)\n",
              env_size("NWHY_BENCH_REPS", 3));
  std::printf("dataset %s: %zu hyperedges, %zu hypernodes\n", name.c_str(), ne, nv);
  std::printf("census: %llu wedges, %llu triads, %llu open, %llu butterflies\n",
              static_cast<unsigned long long>(census.wedges),
              static_cast<unsigned long long>(census.triads),
              static_cast<unsigned long long>(census.open_wedges),
              static_cast<unsigned long long>(census.butterflies));
  std::printf("%-16s %8s %12s\n", "operation", "threads", "median ms");
  for (const auto& r : rows) {
    std::printf("%-16s %8u %12.4f\n", r.operation.c_str(), r.threads, r.median_ms);
  }
  return 0;
}
