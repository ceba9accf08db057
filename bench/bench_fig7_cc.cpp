// bench/bench_fig7_cc.cpp — reproduces Figure 7: strong scaling of
// hypergraph connected-component decomposition.  Series per dataset:
// HyperCC (label propagation), AdjoinCC-Afforest and the HygraCC
// comparator, across doubling thread counts.  HyperCC's bipartite sweep is
// label propagation on the adjoin rows, so there is no separate
// AdjoinCC-LP series.
//
//   NWHY_BENCH_JSON     path; when set the harness skips the Figure-7 table
//                       and writes a machine-readable sweep (dataset x
//                       algorithm x threads, median ms and component count)
//                       for scripts/bench_snapshot.sh
//   NWHY_BENCH_DATASETS comma list of dataset names for the JSON sweep
#include <cstdio>

#include "bench_common.hpp"
#include "hygra/algorithms.hpp"

using namespace bench;

namespace {

std::size_t components_of(const std::vector<nw::vertex_id_t>& labels_edge,
                          const std::vector<nw::vertex_id_t>& labels_node) {
  std::vector<nw::vertex_id_t> all(labels_edge);
  all.insert(all.end(), labels_node.begin(), labels_node.end());
  return nw::graph::count_components(all);
}

/// NWHY_BENCH_JSON mode: one record per dataset x algorithm x thread-count:
/// {"dataset", "algorithm", "threads", "median_ms", "components"}.  The
/// component count doubles as a cross-engine sanity invariant.
int run_json_mode(const char* path) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path);
    return 1;
  }
  const unsigned restore = nw::par::num_threads();
  std::fprintf(out, "[");
  bool first = true;
  for (const auto& d : suite()) {
    if (!dataset_selected(d->name)) continue;
    for (unsigned threads : env_threads()) {
      nw::par::thread_pool::set_default_concurrency(threads);
      auto emit = [&](const char* name, double ms, std::size_t components) {
        std::fprintf(out,
                     "%s\n  {\"dataset\": \"%s\", \"algorithm\": \"%s\", \"threads\": %u, "
                     "\"median_ms\": %.4f, \"components\": %zu, \"peak_rss_kb\": %ld}",
                     first ? "" : ",", d->name.c_str(), name, threads, ms, components,
                     peak_rss_kb());
        first = false;
      };
      std::size_t comps = 0;
      double      ms    = time_median_ms([&] {
        auto r = hyper_cc(d->adjoin);
        comps  = components_of(r.labels_edge, r.labels_node);
      });
      emit("HyperCC", ms, comps);
      ms = time_median_ms([&] {
        auto r = adjoin_cc(d->adjoin);
        comps  = components_of(r.labels_edge, r.labels_node);
      });
      emit("AdjoinCC-Aff", ms, comps);
      ms = time_median_ms([&] {
        auto r = nw::hygra::hygra_cc(d->hyperedges, d->hypernodes);
        comps  = components_of(r.labels_edge, r.labels_node);
      });
      emit("HygraCC", ms, comps);
    }
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  nw::par::thread_pool::set_default_concurrency(restore);
  std::fprintf(stderr, "[bench] wrote CC sweep to %s\n", path);
  return 0;
}

}  // namespace

int main() {
  if (const char* json = std::getenv("NWHY_BENCH_JSON"); json != nullptr && *json != '\0') {
    setenv("NWHY_BENCH_REPS", "3", /*overwrite=*/0);
    return run_json_mode(json);
  }
  std::printf("Figure 7 — strong scaling, connected components (time in ms, min of %zu reps)\n",
              env_size("NWHY_BENCH_REPS", 3));
  std::printf("%-18s %8s %12s %16s %12s\n", "dataset", "threads", "HyperCC", "AdjoinCC-Aff",
              "HygraCC");
  for (const auto& d : suite()) {
    for (unsigned t : env_threads()) {
      nw::par::thread_pool::set_default_concurrency(t);
      double hyper = time_min_ms([&] {
        auto r = hyper_cc(d->adjoin);
        (void)r;
      });
      double aff = time_min_ms([&] {
        auto r = adjoin_cc(d->adjoin);
        (void)r;
      });
      double hygra = time_min_ms([&] {
        auto r = nw::hygra::hygra_cc(d->hyperedges, d->hypernodes);
        (void)r;
      });
      std::printf("%-18s %8u %12.2f %16.2f %12.2f\n", d->name.c_str(), t, hyper, aff, hygra);
    }
    // Sanity footer: component count must agree across engines.
    auto a = adjoin_cc(d->adjoin);
    std::printf("  -> %zu connected components\n", components_of(a.labels_edge, a.labels_node));
  }
  return 0;
}
