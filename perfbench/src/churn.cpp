// perfbench/src/churn.cpp — dynamic-churn: a closed loop with one writer.
//
// Each step applies a seeded batch of insert_edges / remove_edges /
// update_edge calls (sizes log-uniform over 1..max_batch), keeps an
// incremental s-line graph in step, then queries the hypergraph while the
// delta is still pending: bfs, connected_components, toplexes,
// s_distance_implicit and make_s_linegraph(s).  Every `compact_every`
// steps it calls compact(), and checks the pending-delta answers of the
// last step against a fresh NWHypergraph built from the current edge list.
// This is the only workload that reaches the base+delta path; the other
// three bypass it.
#include <set>

#include "common.hpp"

namespace pb {
namespace {

constexpr std::size_t k_s = 2;  ///< s of the line graphs and s_distance_implicit

using pair_set = std::set<std::pair<vertex_id_t, vertex_id_t>>;

pair_set line_pairs(const s_linegraph& L) {
  pair_set out;
  for (std::size_t u = 0; u < L.num_vertices(); ++u) {
    for (vertex_id_t v : L.s_neighbors(static_cast<vertex_id_t>(u))) {
      if (v > u) out.insert({static_cast<vertex_id_t>(u), v});
    }
  }
  return out;
}

/// Answers of the pending-delta queries of one step.
struct answers {
  hyper_bfs_result           bfs;
  hyper_cc_result            cc;
  std::vector<vertex_id_t>   toplexes;
  std::optional<std::size_t> distance;
  std::optional<s_linegraph> lines;
};

}  // namespace

result run_churn(const options& opt, tracer& tr) {
  result            r;
  const std::size_t compact_every = opt.size("churn.compact_every");
  const std::size_t max_batch     = opt.size("churn.max_batch");

  struct state {
    std::unique_ptr<NWHypergraph>           h;
    std::unique_ptr<incremental_slinegraph> lines;
    std::vector<std::vector<vertex_id_t>>   model;  ///< the current edge list
    std::size_t                             nodes = 0;
  };
  state st = repeated_setup(r, [&] {
    state out;
    auto  el  = friendster_shape(opt.size("churn.edges"), opt.seed);
    out.nodes = el.num_vertices(1);
    out.model.resize(el.num_vertices(0));
    for (std::size_t i = 0; i < el.size(); ++i) {
      auto [e, v] = el[i];
      out.model[e].push_back(v);
    }
    out.h     = std::make_unique<NWHypergraph>(std::move(el));
    out.lines = std::make_unique<incremental_slinegraph>(*out.h, k_s);
    return out;
  });
  r.sizes["hyperedges"] = st.h->num_hyperedges();
  r.sizes["hypernodes"] = st.h->num_hypernodes();
  r.sizes["incidences"] = st.h->num_incidences();
  r.sizes["file_bytes"] = 0;

  nw::xoshiro256ss rng(opt.seed * 0x2545f4914f6cdd1dull + 3);
  // New member lists are copies of the initial hyperedges, so the
  // hypergraph keeps its size and shape however long the run lasts.
  const std::vector<std::vector<vertex_id_t>> pool = st.model;
  auto existing = [&] { return static_cast<vertex_id_t>(rng.bounded(st.model.size())); };
  // s_distance endpoints are active (at least s members): an inactive
  // endpoint answers at once and would make the query cost a coin flip.
  auto active = [&] {
    for (;;) {
      const vertex_id_t e = existing();
      if (st.model[e].size() >= k_s) return e;
    }
  };

  /// One step: a mutation batch, then the five pending-delta queries.  The
  /// batch removes a third of its rows and re-inserts them with new member
  /// lists (remove_edges, then insert_edges), and replaces the rest one
  /// update_edge call at a time.
  auto step = [&](std::vector<double>& query_ms, double& delta_size) {
    const double u     = static_cast<double>(rng.bounded(1u << 20)) / static_cast<double>(1u << 20);
    const auto   batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::exp(u * std::log(static_cast<double>(max_batch)))));
    // rows[0, n_insert) are removed and re-inserted; the rest are updated.
    std::vector<std::pair<vertex_id_t, std::vector<vertex_id_t>>> rows;
    for (std::size_t k = 0; k < batch; ++k) rows.push_back({existing(), pool[rng.bounded(pool.size())]});
    const std::size_t n_insert = (batch + 2) / 3;
    timed(tr, "dynamic.update_ms", "dynamic", [&] {
      std::vector<vertex_id_t> removed;
      std::vector<edge_update> inserted;
      for (std::size_t k = 0; k < n_insert; ++k) {
        removed.push_back(rows[k].first);
        inserted.push_back({rows[k].first, rows[k].second});
      }
      st.h->remove_edges(removed);
      st.h->insert_edges(std::move(inserted));
      for (std::size_t k = n_insert; k < batch; ++k) st.h->update_edge(rows[k].first, rows[k].second);
    });
    for (const auto& [e, m] : rows) st.model[e] = m;
    timed(tr, "slinegraph.incremental_ms", "slinegraph", [&] {
      for (const auto& [e, m] : rows) st.lines->update_edge(e, m);
    });
    delta_size += static_cast<double>(st.h->delta_size());
    answers           a;
    const vertex_id_t src = existing(), x = active(), y = active();
    query_ms.push_back(cpu_timed(tr, "dynamic.bfs_ms", "dynamic", [&] { a.bfs = st.h->bfs(src); }));
    query_ms.push_back(cpu_timed(tr, "dynamic.cc_ms", "dynamic", [&] { a.cc = st.h->connected_components(); }));
    query_ms.push_back(cpu_timed(tr, "dynamic.toplex_ms", "dynamic", [&] { a.toplexes = st.h->toplexes(); }));
    query_ms.push_back(cpu_timed(tr, "dynamic.s_distance_ms", "dynamic",
                                 [&] { a.distance = st.h->s_distance_implicit(k_s, x, y); }));
    query_ms.push_back(cpu_timed(tr, "dynamic.slinegraph_ms", "dynamic",
                                 [&] { a.lines.emplace(st.h->make_s_linegraph(k_s)); }));
    return std::tuple{std::move(a), src, x, y};
  };

  /// The check at compact(): the last step's pending-delta answers, and the
  /// incremental line graph, against a fresh build of the current edge list.
  auto check = [&](const answers& a, vertex_id_t src, vertex_id_t x, vertex_id_t y) {
    biedgelist<> el(st.model.size(), st.nodes);
    for (std::size_t e = 0; e < st.model.size(); ++e) {
      for (vertex_id_t v : st.model[e]) el.push_back(static_cast<vertex_id_t>(e), v);
    }
    NWHypergraph fresh(std::move(el));
    const auto   want_bfs = fresh.bfs(src);
    r.check(a.bfs.dist_edge == want_bfs.dist_edge && a.bfs.dist_node == want_bfs.dist_node,
            "churn: pending-delta bfs differs from a fresh build");
    const auto want_cc = fresh.connected_components();
    r.check(a.cc.labels_edge == want_cc.labels_edge && a.cc.labels_node == want_cc.labels_node,
            "churn: pending-delta connected_components differs from a fresh build");
    r.check(a.toplexes == fresh.toplexes(), "churn: pending-delta toplexes differ from a fresh build");
    r.check(a.distance == fresh.s_distance_implicit(k_s, x, y),
            "churn: pending-delta s_distance_implicit differs from a fresh build");
    const auto want_lines = line_pairs(fresh.make_s_linegraph(k_s));
    r.check(line_pairs(*a.lines) == want_lines,
            "churn: pending-delta make_s_linegraph differs from a fresh build");
    const auto inc = st.lines->pairs();
    r.check(pair_set(inc.begin(), inc.end()) == want_lines,
            "churn: incremental s-line graph differs from a fresh build");
  };

  // Every timing is CPU time (cpu_ms).
  std::vector<double> pass_ms, pass_wall_ms, nominal_ms, high_ms;
  double              delta_sum = 0;
  std::size_t         steps     = 0;
  trace_summary       ts;
  const double        t_end = now_ms() + 1000.0 * opt.seconds;
  // Cycle 0 is an unmeasured warm-up.
  for (std::size_t cycle = 0; cycle < 4 || now_ms() < t_end; ++cycle) {
    const bool measured = cycle > 0;
    const bool traced   = opt.trace && measured && cycle % 2 == 0;
    tr.enabled          = traced;
    if (traced) ts.obs.start();
    const int           root = tr.begin("pass", "pass");
    std::vector<double> first, second;
    double              delta = 0;
    answers             last;
    vertex_id_t         src = 0, x = 0, y = 0;
    const double        t0 = now_ms(), c0 = cpu_ms();
    for (std::size_t k = 0; k < compact_every; ++k) {
      std::tie(last, src, x, y) = step(k < compact_every / 2 ? first : second, delta);
    }
    timed(tr, "dynamic.compact_ms", "dynamic", [&] { st.h->compact(); });
    const double cpu  = cpu_ms() - c0;
    const double wall = now_ms() - t0;
    tr.end();
    tr.enabled = false;
    r.attempted += compact_every * 7 + 1;
    if (traced) {
      ts.obs.stop();
      ts.add_pass(tr, root);
      delta_sum += delta;
      steps += compact_every;
    } else if (measured) {
      ts.untraced_ms.push_back(wall);
      pass_ms.push_back(cpu);
      pass_wall_ms.push_back(wall);
      nominal_ms.insert(nominal_ms.end(), first.begin(), first.end());
      high_ms.insert(high_ms.end(), second.begin(), second.end());
    }
    check(last, src, x, y);
  }

  r.set("pass_s", median(pass_ms) / 1000.0, "s");
  r.notes["pass_s"] = "CPU time, median of " + std::to_string(pass_ms.size()) + " compaction cycles of " +
                      std::to_string(compact_every) + " steps; median wall time " +
                      std::to_string(median(pass_wall_ms) / 1000.0) + " s";
  r.latency("p50_ms", "p99_ms", nominal_ms);
  r.latency("p50_ms.high", "p99_ms.high", high_ms);
  r.set("max_qps", 5.0 * static_cast<double>(compact_every) / (median(pass_ms) / 1000.0), "1/s");
  r.notes["max_qps"] = "closed loop: pending-delta queries per CPU second of cycle time";
  if (opt.trace) {
    ts.report(r, {"dynamic", "slinegraph"});
    report_obs(r, ts.obs, ts.traced_passes);
    r.set("dynamic.delta_size", steps ? delta_sum / static_cast<double>(steps) : 0.0, "rows");
  }
  return r;
}

}  // namespace pb
