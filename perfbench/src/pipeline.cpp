// perfbench/src/pipeline.cpp — analytics-pipeline: the paper's batch
// analysis on a skewed social hypergraph (the Friendster-sim shape).
//
// One pass: mmap-load the NWHYCSR2 file written at set-up, build the
// facade, validate, relabel_by_degree, build the s=2 (dense) and s=8
// (sparse) line graphs, then on each s_connected_components, a seeded batch
// of s_distance pairs and sampled s-betweenness; finally HyperBFS from a
// few seeded sources, adjoin CC and toplexes.  The slinegraph and
// algorithms layers do most of the work; io does little, and serve and
// dynamic none.  motifs are left out: a census costs several times a whole
// pass and would swamp every other step.
#include <set>

#include "common.hpp"

namespace pb {
namespace {

constexpr std::size_t k_dense_s  = 2;
constexpr std::size_t k_sparse_s = 8;

/// The seeded queries of one pass, drawn once from the input.
struct query_plan {
  std::vector<std::pair<vertex_id_t, vertex_id_t>> pairs[2];  ///< [dense, sparse]
  std::vector<vertex_id_t>                         bfs_sources;
  std::size_t                                      betweenness_samples = 0;
  std::uint64_t                                    seed                = 0;
};

query_plan make_plan(const std::vector<std::size_t>& sizes, const options& opt,
                     nw::xoshiro256ss& rng) {
  query_plan        plan;
  const std::size_t s_of[2] = {k_dense_s, k_sparse_s};
  for (int g = 0; g < 2; ++g) {
    std::vector<vertex_id_t> active;
    for (std::size_t e = 0; e < sizes.size(); ++e) {
      if (sizes[e] >= s_of[g]) active.push_back(static_cast<vertex_id_t>(e));
    }
    if (active.empty()) throw std::runtime_error("pipeline input has no active hyperedges");
    for (std::size_t i = 0; i < opt.size("pipeline.distance_pairs"); ++i) {
      plan.pairs[g].push_back({active[rng.bounded(active.size())], active[rng.bounded(active.size())]});
    }
  }
  for (std::size_t i = 0; i < opt.size("pipeline.bfs_sources"); ++i) {
    plan.bfs_sources.push_back(static_cast<vertex_id_t>(rng.bounded(sizes.size())));
  }
  plan.betweenness_samples = opt.size("pipeline.betweenness_samples");
  plan.seed                = rng.bounded(1u << 30);
  return plan;
}

/// `count` seeded plans over the hypergraph `el`.
std::vector<query_plan> make_plans(const biedgelist<>& el, const options& opt, std::size_t count) {
  NWHypergraph            h{biedgelist<>(el)};
  nw::xoshiro256ss        rng(opt.seed * 31 + 7);
  std::vector<query_plan> plans;
  for (std::size_t i = 0; i < count; ++i) plans.push_back(make_plan(h.edge_sizes(), opt, rng));
  return plans;
}

/// Everything one pass computes, kept for the digest and the oracles.
struct pass_result {
  bool                                  valid = false;
  std::size_t                           line_edges[2]{};
  std::vector<vertex_id_t>              s_cc[2];
  std::vector<std::optional<std::size_t>> dist[2];
  std::vector<double>                   betweenness[2];
  std::vector<std::vector<vertex_id_t>> bfs_edge, bfs_node;
  std::vector<vertex_id_t>              adjoin_cc_edges;
  std::vector<vertex_id_t>              toplexes;
  double                                s2_build_ms = 0;  ///< CPU time
  std::set<std::pair<vertex_id_t, vertex_id_t>> line_pairs[2];  ///< oracle runs only

  [[nodiscard]] std::uint64_t digest_value() const {
    digest d;
    d.add(valid);
    for (int g = 0; g < 2; ++g) {
      d.add(line_edges[g]);
      d.add_all(canonical_partition(s_cc[g]));
      for (const auto& x : dist[g]) d.add(x ? *x : ~0ull);
      for (double b : betweenness[g]) d.add_double(b);
    }
    for (std::size_t i = 0; i < bfs_edge.size(); ++i) {
      d.add_all(bfs_edge[i]);
      d.add_all(bfs_node[i]);
    }
    d.add_all(canonical_partition(adjoin_cc_edges));
    d.add_all(toplexes);
    return d.h;
  }
};

pass_result run_pass(const std::string& file, const query_plan& plan, tracer& tr,
                     bool keep_line_pairs) {
  pass_result out;
  csr_snapshot snap;
  timed(tr, "io.mmap_ms", "io", [&] { snap = load_csr_snapshot(file); });
  std::optional<NWHypergraph> hg;
  timed(tr, "core.build_ms", "core", [&] { hg.emplace(std::move(snap)); });
  NWHypergraph& h = *hg;
  timed(tr, "core.validate_ms", "core",
        [&] { out.valid = validate_csr_pair(h.hyperedges(), h.hypernodes()).consistent(); });
  timed(tr, "core.relabel_ms", "core", [&] { h.relabel_by_degree(); });

  std::optional<s_linegraph> lg[2];
  out.s2_build_ms =
      cpu_timed(tr, "slinegraph.s2_ms", "slinegraph", [&] { lg[0].emplace(h.make_s_linegraph(k_dense_s)); });
  timed(tr, "slinegraph.s8_ms", "slinegraph", [&] { lg[1].emplace(h.make_s_linegraph(k_sparse_s)); });
  for (int g = 0; g < 2; ++g) {
    const s_linegraph& L = *lg[g];
    out.line_edges[g]    = L.graph().num_edges();
    timed(tr, "s_cc.ms", "nwgraph", [&] { out.s_cc[g] = L.s_connected_components(); });
    for (auto [a, b] : plan.pairs[g]) {
      timed(tr, "s_distance.ms", "nwgraph", [&] { out.dist[g].push_back(L.s_distance(a, b)); });
    }
    timed(tr, "betweenness.ms", "algorithms", [&] {
      out.betweenness[g] = L.s_betweenness_centrality_sampled(plan.betweenness_samples, plan.seed);
    });
    if (keep_line_pairs) {
      for (std::size_t u = 0; u < L.num_vertices(); ++u) {
        for (vertex_id_t v : L.s_neighbors(static_cast<vertex_id_t>(u))) {
          if (v > u) out.line_pairs[g].insert({static_cast<vertex_id_t>(u), v});
        }
      }
    }
  }
  for (vertex_id_t src : plan.bfs_sources) {
    timed(tr, "hyper_bfs.ms", "algorithms", [&] {
      auto r = h.bfs(src);
      out.bfs_edge.push_back(std::move(r.dist_edge));
      out.bfs_node.push_back(std::move(r.dist_node));
    });
  }
  timed(tr, "core.adjoin_ms", "core", [&] { (void)h.adjoin(); });
  timed(tr, "adjoin_cc.ms", "algorithms",
        [&] { out.adjoin_cc_edges = h.connected_components_adjoin().labels_edge; });
  timed(tr, "toplex.ms", "algorithms", [&] { out.toplexes = h.toplexes(); });
  return out;
}

/// The reduced copy of the workload, checked against the ref:: oracles;
/// every comparison is one checked operation in `r`.
void oracle_check(const options& opt, result& r) {
  const auto  el   = friendster_shape(opt.size("pipeline.oracle_edges"), opt.seed ^ 0x0c0ffee2);
  const auto  file = opt.path("oracle.nwcsr").string();
  write_csr_snapshot(file, biadjacency<0>(el), biadjacency<1>(el));
  const auto  plan = make_plans(el, opt, 1).front();
  tracer      off;
  const auto  got  = run_pass(file, plan, off, /*keep_line_pairs=*/true);
  const auto  inc  = ref::from_biedgelist(el);
  const std::size_t s_of[2] = {k_dense_s, k_sparse_s};

  r.check(got.valid, "oracle: validate_csr_pair");
  for (int g = 0; g < 2; ++g) {
    const auto s     = s_of[g];
    const auto edges = ref::s_line_edges(inc, s);
    r.check(got.line_pairs[g] == std::set<std::pair<vertex_id_t, vertex_id_t>>(edges.begin(), edges.end()),
            "oracle: s-line edge set, s=" + std::to_string(s));
    r.check(canonical_partition(got.s_cc[g]) == canonical_partition(ref::s_components(inc, s)),
            "oracle: s_connected_components, s=" + std::to_string(s));
    for (std::size_t i = 0; i < plan.pairs[g].size(); ++i) {
      auto [a, b] = plan.pairs[g][i];
      r.check(got.dist[g][i] == ref::s_distance(inc, s, a, b), "oracle: s_distance");
    }
    ref::adjacency_list adj(inc.num_edges());
    for (auto [a, b] : got.line_pairs[g]) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    for (auto& row : adj) std::sort(row.begin(), row.end());
    auto sources = betweenness_sample_sources(adj.size(), plan.betweenness_samples, plan.seed);
    r.check(got.betweenness[g] == ref::betweenness_sampled(adj, sources),
            "oracle: sampled s-betweenness, s=" + std::to_string(s));
  }
  for (std::size_t i = 0; i < plan.bfs_sources.size(); ++i) {
    auto want = ref::bfs_levels(inc, plan.bfs_sources[i]);
    r.check(got.bfs_edge[i] == want.dist_edge && got.bfs_node[i] == want.dist_node,
            "oracle: hyper bfs");
  }
  r.check(canonical_partition(got.adjoin_cc_edges) ==
              canonical_partition(ref::cc_labels(inc).labels_edge),
          "oracle: adjoin connected components");
  auto want_top = ref::toplexes(inc);
  auto got_top  = got.toplexes;
  std::sort(want_top.begin(), want_top.end());
  std::sort(got_top.begin(), got_top.end());
  r.check(got_top == want_top, "oracle: toplexes");
  std::filesystem::remove(file);
}

}  // namespace

result run_pipeline(const options& opt, tracer& tr) {
  result      r;
  const auto  file = opt.path("pipeline.nwcsr").string();
  biedgelist<> el  = repeated_setup(r, [&] {
    auto g = friendster_shape(opt.size("social.edges"), opt.seed);
    write_csr_snapshot(file, biadjacency<0>(g), biadjacency<1>(g));
    return g;
  });
  r.sizes["hyperedges"] = el.num_vertices(0);
  r.sizes["hypernodes"] = el.num_vertices(1);
  r.sizes["incidences"] = el.size();
  r.sizes["file_bytes"] = std::filesystem::file_size(file);
  // Passes cycle through several query plans, so the latency samples cover
  // many distinct queries rather than one plan's few repeated ones.  Each
  // pass's digest must equal that of the first pass with the same plan.
  const auto plans = make_plans(el, opt, opt.size("pipeline.plans"));
  el               = biedgelist<>();
  std::vector<std::optional<std::uint64_t>> want(plans.size());

  {  // Warm-up pass, unmeasured.
    tracer off;
    want[0] = run_pass(file, plans[0], off, false).digest_value();
  }

  // A batch job has no request latency.  p50_ms / p99_ms report the pass
  // time and the .high pair its heaviest step, the s=2 line-graph build,
  // all as CPU time (cpu_ms).  Millisecond point queries were tried first:
  // their wall-time tail moved with every few-ms preemption.
  std::vector<double> pass_ms, pass_wall_ms, s2_ms;
  trace_summary       ts;
  const double        t_end  = now_ms() + 1000.0 * opt.seconds;
  std::size_t         passes = 0;
  while (passes < 3 || now_ms() < t_end) {
    // A traced run alternates untraced and traced passes, so trace.overhead
    // compares the two under the same conditions.
    const bool traced = opt.trace && passes % 2 == 1;
    tr.enabled        = traced;
    if (traced) ts.obs.start();
    const int    root = tr.begin("pass", "pass");
    const double t0   = now_ms(), c0 = cpu_ms();
    const auto&  plan = plans[(passes + 1) % plans.size()];
    pass_result  p    = run_pass(file, plan, tr, false);
    const double cpu  = cpu_ms() - c0;
    const double wall = now_ms() - t0;
    tr.end();
    if (traced) {
      ts.obs.stop();
      ts.add_pass(tr, root);
    } else {
      ts.untraced_ms.push_back(wall);
    }
    tr.enabled = false;
    r.attempted += 9 + plan.pairs[0].size() + plan.pairs[1].size() + plan.bfs_sources.size();
    auto& ref_digest = want[(passes + 1) % plans.size()];
    if (!ref_digest) ref_digest = p.digest_value();
    r.check(p.digest_value() == *ref_digest, "pass digest differs from an earlier pass with the same queries");
    r.check(p.valid, "validate_csr_pair reported an inconsistent CSR pair");
    if (!traced) {
      pass_ms.push_back(cpu);
      pass_wall_ms.push_back(wall);
      s2_ms.push_back(p.s2_build_ms);
    }
    ++passes;
  }
  oracle_check(opt, r);

  r.set("pass_s", median(pass_ms) / 1000.0, "s");
  r.notes["pass_s"] = "CPU time, median of " + std::to_string(pass_ms.size()) + " passes; median wall time " +
                      std::to_string(median(pass_wall_ms) / 1000.0) + " s";
  r.latency("p50_ms", "p99_ms", pass_ms);
  r.latency("p50_ms.high", "p99_ms.high", s2_ms);
  const double per_pass = static_cast<double>(2 * opt.size("pipeline.distance_pairs") + opt.size("pipeline.bfs_sources"));
  r.set("max_qps", per_pass / (median(pass_ms) / 1000.0), "1/s");
  r.notes["max_qps"] = "closed loop: point queries (s_distance, bfs) per CPU second of pass time";
  if (opt.trace) {
    ts.report(r, {"io", "core", "slinegraph", "algorithms", "nwgraph"});
    report_obs(r, ts.obs, ts.traced_passes);
  }
  std::filesystem::remove(file);
  return r;
}

}  // namespace pb
