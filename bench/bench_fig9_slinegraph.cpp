// bench/bench_fig9_slinegraph.cpp — reproduces Figure 9: runtime of s-line
// graph construction relative to the Hashmap algorithm.
//
// Following Sec. IV-D exactly: each of the four algorithms (Hashmap
// [IPDPS'22], Intersection [HiPC'21], Algorithm 1 = queue hashmap,
// Algorithm 2 = queue two-phase) is run under both blocked-range and
// cyclic-range partitioning, with hyperedge ids unpermuted and relabeled by
// degree in ascending and descending order; only the fastest configuration
// per algorithm is reported, normalized to the Hashmap algorithm's fastest.
//
//   NWHY_BENCH_SVALUES  comma list of s values (default "2,8")
//   NWHY_FIG9_FULL      set to 1 to sweep all 6 configs per algorithm
//                       (default sweeps blocked/cyclic x {none, desc})
//   NWHY_BENCH_JSON     path; when set the harness skips the Figure-9 table
//                       and instead writes a machine-readable sweep
//                       (dataset x algorithm x s x threads, median ms and
//                       pairs emitted) for scripts/bench_snapshot.sh
//   NWHY_BENCH_DATASETS comma list of dataset names to include in the JSON
//                       sweep (default: all six)
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "nwgraph/relabel.hpp"

using namespace bench;
using nw::vertex_id_t;

namespace {

std::vector<std::size_t> env_svalues() {
  std::vector<std::size_t> out;
  const char*              v = std::getenv("NWHY_BENCH_SVALUES");
  std::string              s = v ? v : "2,8";
  std::size_t              pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    long n = std::atol(s.substr(pos, next - pos).c_str());
    if (n > 0) out.push_back(static_cast<std::size_t>(n));
    pos = next + 1;
  }
  if (out.empty()) out = {2, 8};
  return out;
}

/// A dataset view with hyperedge ids optionally relabeled by degree.
struct labeled_view {
  const biadjacency<0>*    hyperedges;
  const biadjacency<1>*    hypernodes;
  std::vector<std::size_t> degrees;
  std::vector<vertex_id_t> queue;  // the work queue: all hyperedge ids

  // Owning storage for relabeled variants.
  std::unique_ptr<biadjacency<0>> own_edges;
  std::unique_ptr<biadjacency<1>> own_nodes;
};

labeled_view make_view(const dataset& d, nw::graph::degree_order order, bool relabel) {
  labeled_view v;
  if (!relabel) {
    v.hyperedges = &d.hyperedges;
    v.hypernodes = &d.hypernodes;
    v.degrees    = d.edge_degrees;
  } else {
    auto perm = nw::graph::degree_permutation(d.edge_degrees, order);
    biedgelist<> rel(d.el.num_vertices(0), d.el.num_vertices(1));
    rel.reserve(d.el.size());
    for (std::size_t i = 0; i < d.el.size(); ++i) {
      auto [e, n] = d.el[i];
      rel.push_back(perm[e], n);
    }
    rel.sort_and_unique();
    v.own_edges  = std::make_unique<biadjacency<0>>(rel);
    v.own_nodes  = std::make_unique<biadjacency<1>>(rel);
    v.hyperedges = v.own_edges.get();
    v.hypernodes = v.own_nodes.get();
    v.degrees    = v.hyperedges->degrees();
  }
  v.queue.resize(v.hyperedges->size());
  for (std::size_t i = 0; i < v.queue.size(); ++i) v.queue[i] = static_cast<vertex_id_t>(i);
  return v;
}

enum class algo { hashmap, intersection, queue_hashmap, queue_intersection };

template <class Partition>
std::size_t run_algo(algo a, const labeled_view& v, std::size_t s, Partition part) {
  switch (a) {
    case algo::hashmap:
      return to_two_graph_hashmap(*v.hyperedges, *v.hypernodes, v.degrees, s, part).size();
    case algo::intersection:
      return to_two_graph_intersection(*v.hyperedges, *v.hypernodes, v.degrees, s,
                                       v.hyperedges->size(), part)
          .size();
    case algo::queue_hashmap:
      return to_two_graph_queue_hashmap(v.queue, *v.hyperedges, *v.hypernodes, v.degrees, s,
                                        v.hyperedges->size(), part)
          .size();
    case algo::queue_intersection:
      return to_two_graph_queue_intersection(v.queue, *v.hyperedges, *v.hypernodes, v.degrees, s,
                                             v.hyperedges->size(), part)
          .size();
  }
  return 0;
}

/// Fastest time for one algorithm across partitioning/relabeling configs.
double best_time(algo a, const std::vector<labeled_view>& views, std::size_t s) {
  double best = 1e300;
  for (const auto& v : views) {
    best = std::min(best, time_min_ms([&] { run_algo(a, v, s, nw::par::blocked{}); }));
    best = std::min(best,
                    time_min_ms([&] { run_algo(a, v, s, nw::par::cyclic{8 * nw::par::num_threads()}); }));
  }
  return best;
}

/// NWHY_BENCH_JSON mode: the machine-readable sweep bench_snapshot.sh
/// freezes into BENCH_slinegraph.json.  One record per dataset x algorithm
/// x s x thread-count: {"dataset", "algorithm", "s", "threads",
/// "median_ms", "pairs"}.  Thread counts come from NWHY_BENCH_THREADS; the
/// default pool is resized for each count and restored afterwards.
int run_json_mode(const char* path) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path);
    return 1;
  }
  const unsigned restore = nw::par::num_threads();
  const std::pair<const char*, algo> named[] = {
      {"hashmap", algo::hashmap},
      {"intersection", algo::intersection},
      {"queue_hashmap", algo::queue_hashmap},
      {"queue_intersection", algo::queue_intersection},
  };
  std::fprintf(out, "[");
  bool first = true;
  for (const auto& d : suite()) {
    // Optional dataset filter: exact-name comma list (default: everything).
    if (!dataset_selected(d->name)) continue;
    labeled_view v = make_view(*d, nw::graph::degree_order::descending, false);
    for (std::size_t s : env_svalues()) {
      for (unsigned threads : env_threads()) {
        nw::par::thread_pool::set_default_concurrency(threads);
        auto emit = [&](const char* name, std::size_t pairs, double ms) {
          std::fprintf(out,
                       "%s\n  {\"dataset\": \"%s\", \"algorithm\": \"%s\", \"s\": %zu, "
                       "\"threads\": %u, \"median_ms\": %.4f, \"pairs\": %zu, "
                       "\"peak_rss_kb\": %ld}",
                       first ? "" : ",", d->name.c_str(), name, s, threads, ms, pairs,
                       peak_rss_kb());
          first = false;
        };
        for (auto [name, a] : named) {
          std::size_t pairs = 0;
          double      ms    = time_median_ms([&] { pairs = run_algo(a, v, s, nw::par::blocked{}); });
          emit(name, pairs, ms);
        }
        // The direct per-thread-buffers -> CSR pipeline (no edge_list
        // round-trip); pairs = undirected edge count of the symmetric CSR.
        std::size_t csr_pairs = 0;
        double      csr_ms    = time_median_ms([&] {
          auto csr  = to_two_graph_hashmap_csr(*v.hyperedges, *v.hypernodes, v.degrees, s);
          csr_pairs = csr.num_edges() / 2;
        });
        emit("hashmap_csr", csr_pairs, csr_ms);
      }
    }
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  nw::par::thread_pool::set_default_concurrency(restore);
  std::fprintf(stderr, "[bench] wrote slinegraph sweep to %s\n", path);
  return 0;
}

}  // namespace

int main() {
  if (const char* json = std::getenv("NWHY_BENCH_JSON"); json != nullptr && *json != '\0') {
    setenv("NWHY_BENCH_REPS", "3", /*overwrite=*/0);
    return run_json_mode(json);
  }
  // Construction costs dwarf run-to-run noise here; default to one rep so
  // the full harness stays in the minutes range on one core.
  setenv("NWHY_BENCH_REPS", "1", /*overwrite=*/0);
  bool full = env_size("NWHY_FIG9_FULL", 0) == 1;
  std::printf(
      "Figure 9 — s-line graph construction, runtime relative to Hashmap\n"
      "(best over partitioning %s; absolute ms in parentheses)\n",
      full ? "x {none, asc, desc} relabeling" : "x {none, desc} relabeling");
  std::printf("%-18s %4s %16s %18s %16s %16s %14s %10s\n", "dataset", "s", "Hashmap",
              "Intersection", "Alg1(queue-hm)", "Alg2(queue-2p)", "Alg1-adjoin", "|L_s(H)|");

  for (const auto& d : suite()) {
    std::vector<labeled_view> views;
    views.push_back(make_view(*d, nw::graph::degree_order::descending, false));
    views.push_back(make_view(*d, nw::graph::degree_order::descending, true));
    if (full) views.push_back(make_view(*d, nw::graph::degree_order::ascending, true));

    // The queue algorithm's versatility claim: the identical kernel also
    // runs on the adjoin representation (one shared index set), where the
    // non-queue algorithms' contiguous-[0, nE) assumption does not hold.
    std::vector<vertex_id_t> adjoin_queue(d->adjoin.nrealedges());
    for (std::size_t i = 0; i < adjoin_queue.size(); ++i) {
      adjoin_queue[i] = static_cast<vertex_id_t>(i);
    }
    auto adjoin_degrees = d->adjoin.degrees();

    for (std::size_t s : env_svalues()) {
      std::size_t edges = run_algo(algo::hashmap, views[0], s, nw::par::blocked{});
      double hm  = best_time(algo::hashmap, views, s);
      double is  = best_time(algo::intersection, views, s);
      double q1  = best_time(algo::queue_hashmap, views, s);
      double q2  = best_time(algo::queue_intersection, views, s);
      double q1a = time_min_ms([&] {
        auto el = to_two_graph_queue_hashmap(adjoin_queue, d->adjoin, d->adjoin,
                                             adjoin_degrees, s, d->adjoin.nrealedges());
        (void)el;
      });
      std::printf(
          "%-18s %4zu %8.2fx(%5.0f) %8.2fx(%7.0f) %8.2fx(%5.0f) %8.2fx(%5.0f) %8.2fx(%5.0f) "
          "%10zu\n",
          d->name.c_str(), s, 1.0, hm, is / hm, is, q1 / hm, q1, q2 / hm, q2, q1a / hm, q1a,
          edges);
    }
  }
  return 0;
}
