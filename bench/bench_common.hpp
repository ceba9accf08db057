// bench/bench_common.hpp — shared scaffolding for the figure-reproduction
// harnesses: the Table-I dataset suite (cached per process), timing with
// min-of-N repetitions, and environment knobs.
//
//   NWHY_BENCH_SCALE   multiplies dataset sizes (default 1)
//   NWHY_BENCH_REPS    repetitions per measurement, min reported (default 3)
//   NWHY_BENCH_THREADS comma list of thread counts (default "1,2,4,8")
//   NWHY_BENCH_PROFILE path; when set, an nwobs JSON profile (counters,
//                      phase timers, env, threads) is written there at
//                      process exit, landing next to the timing output
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "nwhy.hpp"

namespace bench {

using namespace nw::hypergraph;

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    long n = std::atol(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

inline std::vector<unsigned> env_threads() {
  std::vector<unsigned> out;
  const char*           v = std::getenv("NWHY_BENCH_THREADS");
  std::string           s = v ? v : "1,2,4,8";
  std::size_t           pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    int n = std::atoi(s.substr(pos, next - pos).c_str());
    if (n > 0) out.push_back(static_cast<unsigned>(n));
    pos = next + 1;
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

/// One fully materialized dataset: every representation the harnesses need
/// (the adjoin graph is a view over the generation's two CSRs).
struct dataset {
  std::string                                  name;
  std::shared_ptr<const hypergraph_generation> gen;
  const biedgelist<>&                          el;
  const biadjacency<0>&                        hyperedges;
  const biadjacency<1>&                        hypernodes;
  adjoin_graph                                 adjoin;
  std::vector<std::size_t>                     edge_degrees;
  std::vector<std::size_t>                     node_degrees;

  dataset(std::string n, biedgelist<> input)
      : name(std::move(n)),
        gen(make_generation((input.sort_and_unique(), std::move(input)))),
        el(gen->el),
        hyperedges(gen->hyperedges),
        hypernodes(gen->hypernodes),
        adjoin(gen),
        edge_degrees(hyperedges.degrees()),
        node_degrees(hypernodes.degrees()) {}
};

/// Build (and cache) the Table-I suite at the configured scale.
inline const std::vector<std::unique_ptr<dataset>>& suite() {
  static std::vector<std::unique_ptr<dataset>> cache = [] {
    std::size_t scale = env_size("NWHY_BENCH_SCALE", 1);
    std::vector<std::unique_ptr<dataset>> out;
    for (const auto& spec : gen::dataset_suite()) {
      out.push_back(std::make_unique<dataset>(spec.name, spec.build(scale)));
    }
    return out;
  }();
  return cache;
}

/// Wall-clock min over NWHY_BENCH_REPS runs of `fn`, in milliseconds.
inline double time_min_ms(const std::function<void()>& fn) {
  std::size_t reps = env_size("NWHY_BENCH_REPS", 3);
  double      best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    nw::timer t;
    fn();
    best = std::min(best, t.elapsed_ms());
  }
  return best;
}

/// Wall-clock median over NWHY_BENCH_REPS runs of `fn`, in milliseconds —
/// the statistic bench_snapshot.sh records, since the median is robust to
/// both one-off stalls and one-off lucky cache states.
inline double time_median_ms(const std::function<void()>& fn) {
  std::size_t         reps = env_size("NWHY_BENCH_REPS", 3);
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    nw::timer t;
    fn();
    samples.push_back(t.elapsed_ms());
  }
  std::sort(samples.begin(), samples.end());
  std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Install the NWHY_BENCH_PROFILE export hook (idempotent).  When the env
/// var names a path and observability is runtime-enabled, the accumulated
/// counter/timer registry is serialized there at process exit, so profiles
/// land next to whatever timing output the harness printed.  Harnesses call
/// this from main(); calling it again is a no-op.
inline void install_profile_export() {
  static const bool installed = [] {
    const char* path = std::getenv("NWHY_BENCH_PROFILE");
    if (path == nullptr || *path == '\0' || !nw::obs::runtime_enabled()) return false;
    // Touch the registry singleton *before* registering the atexit hook:
    // static destructors and atexit callbacks run in reverse registration
    // order, so constructing it first guarantees it outlives the hook.
    (void)nw::obs::registry::get();
    static std::string target;  // outlives the atexit callback
    target = path;
    std::atexit([] {
      if (nw::obs::write_profile(target)) {
        std::fprintf(stderr, "[bench] wrote nwobs profile to %s\n", target.c_str());
      } else {
        std::fprintf(stderr, "[bench] failed to write nwobs profile to %s\n", target.c_str());
      }
    });
    return true;
  }();
  (void)installed;
}

namespace detail {
/// Auto-install at static-init time so every harness — including the
/// google-benchmark ones whose main() is BENCHMARK_MAIN() — honors
/// NWHY_BENCH_PROFILE without per-harness wiring.
inline const bool profile_export_auto = (install_profile_export(), true);
}  // namespace detail

/// Peak resident-set size of the calling process so far, in KiB, from
/// getrusage(RUSAGE_SELF).  Every NWHY_BENCH_JSON record carries this so a
/// reviewer can see the memory high-water mark next to the wall time.  On
/// Linux ru_maxrss is already KiB; macOS reports bytes.  Returns 0 where
/// getrusage is unavailable.
inline long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;
#else
  return ru.ru_maxrss;
#endif
#else
  return 0;
#endif
}

/// Exact-name dataset filter for the NWHY_BENCH_JSON sweep modes: true when
/// NWHY_BENCH_DATASETS is unset/empty or contains `name` in its comma list.
inline bool dataset_selected(const std::string& name) {
  const char* v = std::getenv("NWHY_BENCH_DATASETS");
  if (v == nullptr || *v == '\0') return true;
  std::string s   = v;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    if (s.substr(pos, next - pos) == name) return true;
    pos = next + 1;
  }
  return false;
}

/// The highest-degree hyperedge: the standard BFS source (largest component
/// coverage, deterministic).
inline nw::vertex_id_t bfs_source(const dataset& d) {
  nw::vertex_id_t best = 0;
  for (std::size_t e = 1; e < d.edge_degrees.size(); ++e) {
    if (d.edge_degrees[e] > d.edge_degrees[best]) best = static_cast<nw::vertex_id_t>(e);
  }
  return best;
}

}  // namespace bench
