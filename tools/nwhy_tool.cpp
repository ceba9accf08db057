// tools/nwhy_tool.cpp
//
// Command-line front end to the framework — the quickest way to run NWHy
// on your own data without writing C++.  Input formats: MatrixMarket
// incidence matrices (.mtx), KONECT bipartite TSV (.tsv), NWHy legacy
// binary snapshots (.bin, NWHYBIN1), or zero-copy CSR snapshots (.nwcsr,
// NWHYCSR2 — see docs/IO_FORMATS.md).
//
//   nwhy_tool stats      <file>                 Table-I style characteristics
//   nwhy_tool components <file>                 exact CC (both engines, timed)
//   nwhy_tool bfs        <file> <edge-id>       exact BFS depths summary
//                                               (--sharded runs the
//                                               out-of-core engine over a
//                                               sharded .nwcsr snapshot)
//   nwhy_tool slinegraph <file> <s> [out.mtx]   build L_s(H); optional export
//   nwhy_tool slcompare  <file> <s>             time all construction algorithms
//   nwhy_tool smetrics   <file> <s>             connectivity/centrality summary
//   nwhy_tool betweenness <file> <s> [samples]  batched Brandes s-betweenness
//                                               (exact, or sampled when a
//                                               sample count is given)
//   nwhy_tool motifs     <file>                 wedge/triad/butterfly census
//   nwhy_tool toplexes   <file>                 maximal hyperedges
//   nwhy_tool collapse   <file>                 duplicate-hyperedge collapse
//   nwhy_tool convert    <in> <out>             format conversion (.bin, .mtx,
//                                               .nwcsr; --compress codes the
//                                               .nwcsr target sections;
//                                               --relabel[=degree] reorders
//                                               hyperedge storage by degree
//                                               and embeds the inverse map;
//                                               --shards[=N] slices the CSRs
//                                               into hyperedge-range shards
//                                               for out-of-core traversal)
//   nwhy_tool inspect    <file>                 validate + report: snapshot
//                                               header/section layout and CSR
//                                               cross-consistency for .nwcsr,
//                                               edge-list canonicality checks
//                                               for every other format
//   nwhy_tool generate   <name> <scale> <out>   emit a Table-I analog dataset
//   nwhy_tool profile    <file> [s]             run all three instrumented
//                                               algorithm families (BFS,
//                                               s-line construction, toplexes)
//
// Malformed input never aborts: every reader throws nw::hypergraph::io_error
// with file/line/byte context, which main() turns into an `error:` line on
// stderr and a nonzero exit.  Positional integers are decimal digits only;
// s must be >= 1; an unknown `--option` is rejected.  Anything else is an
// `error:` line and exit 2.
//
// Any command accepts `--profile out.json` anywhere on the line: after the
// command finishes, the observability registry (counters, phase timers,
// env, thread count — see DESIGN.md for the schema) is written to out.json.
// Setting NWHY_OBS=0 in the environment suppresses the dump.
//
// Thread count: NWHY_NUM_THREADS (default: hardware concurrency).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nwhy.hpp"

using namespace nw::hypergraph;
using nw::vertex_id_t;

namespace {

bool has_suffix(const std::string& path, const char* suffix) {
  std::size_t n = std::strlen(suffix);
  return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
}

/// A positional decimal integer of type T, at least `min`: digits only (no
/// sign, no spaces), no overflow.  Throws std::invalid_argument naming `what`.
template <class T>
T parse_number(const char* text, const char* what, T min = 0) {
  T           value{};
  const char* end = text + std::strlen(text);
  auto [stop, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc{} || stop != end || value < min) {
    throw std::invalid_argument(std::string(what) + " must be an integer >= " +
                                std::to_string(min) + ", got '" + text + "'");
  }
  return value;
}

biedgelist<> load(const std::string& path) {
  auto ends_with = [&](const char* suffix) { return has_suffix(path, suffix); };
  if (ends_with(".nwcsr")) return load_csr_snapshot(path).to_biedgelist();
  if (ends_with(".bin")) return read_binary(path);
  if (ends_with(".tsv") || ends_with(".konect")) return read_konect_bipartite(path);
  return graph_reader(path);  // MatrixMarket by default
}

/// Build the hypergraph facade; .nwcsr snapshots are adopted zero-copy
/// (CANONICAL CSRs become the live bi-adjacency, no rebuild).
NWHypergraph load_hypergraph(const std::string& path) {
  if (has_suffix(path, ".nwcsr")) return NWHypergraph(load_csr_snapshot(path));
  return NWHypergraph(load(path));
}

int cmd_stats(const std::string& path) {
  NWHypergraph hg = load_hypergraph(path);
  auto es = nw::compute_degree_stats(std::span<const std::size_t>(hg.edge_sizes()));
  auto ns = nw::compute_degree_stats(std::span<const std::size_t>(hg.node_degrees()));
  std::printf("hyperedges   : %zu\n", hg.num_hyperedges());
  std::printf("hypernodes   : %zu\n", hg.num_hypernodes());
  std::printf("incidences   : %zu\n", hg.num_incidences());
  std::printf("edge size    : mean %.2f  max %zu  min %zu  stddev %.2f\n", es.mean, es.max,
              es.min, es.stddev);
  std::printf("node degree  : mean %.2f  max %zu  min %zu  stddev %.2f\n", ns.mean, ns.max,
              ns.min, ns.stddev);
  auto cc = hg.connected_components_adjoin();
  std::vector<vertex_id_t> all(cc.labels_edge);
  all.insert(all.end(), cc.labels_node.begin(), cc.labels_node.end());
  std::printf("components   : %zu (largest spans %zu entities)\n",
              nw::graph::count_components(all), nw::graph::largest_component_size(all));
  return 0;
}

int cmd_components(const std::string& path) {
  NWHypergraph hg = load_hypergraph(path);
  nw::timer    t1;
  auto         exact = hg.connected_components();
  double       ms1   = t1.elapsed_ms();
  nw::timer    t2;
  auto         adjoin = hg.connected_components_adjoin();
  double       ms2    = t2.elapsed_ms();
  auto count = [](const std::vector<vertex_id_t>& e, const std::vector<vertex_id_t>& n) {
    std::vector<vertex_id_t> all(e);
    all.insert(all.end(), n.begin(), n.end());
    return nw::graph::count_components(all);
  };
  std::printf("HyperCC  (adjoin LP):       %zu components, %.2f ms\n",
              count(exact.labels_edge, exact.labels_node), ms1);
  std::printf("AdjoinCC (adjoin Afforest): %zu components, %.2f ms\n",
              count(adjoin.labels_edge, adjoin.labels_node), ms2);
  return 0;
}

void print_bfs_summary(const hyper_bfs_result& r, vertex_id_t source, double ms,
                       std::size_t ne, std::size_t nn) {
  std::size_t reached_e = 0, reached_n = 0;
  vertex_id_t max_depth = 0;
  for (auto d : r.dist_edge) {
    if (d != nw::null_vertex<>) {
      ++reached_e;
      max_depth = std::max(max_depth, d);
    }
  }
  for (auto d : r.dist_node) reached_n += d != nw::null_vertex<>;
  std::printf("BFS from e%u: %.2f ms\n", source, ms);
  std::printf("reached %zu/%zu hyperedges, %zu/%zu hypernodes, max depth %u\n", reached_e, ne,
              reached_n, nn, max_depth);
}

/// Out-of-core BFS: shard-at-a-time traversal over a sharded .nwcsr
/// snapshot, answers translated back through the embedded relabel inverse
/// map (when present) so the summary matches the in-memory engine exactly.
int cmd_bfs_sharded(const std::string& path, vertex_id_t source) {
  sharded_snapshot snap(path);
  const auto ne = static_cast<std::size_t>(snap.num_hyperedges());
  const auto nn = static_cast<std::size_t>(snap.num_hypernodes());
  if (source >= ne) {
    std::fprintf(stderr, "error: source %u out of range (%zu hyperedges)\n", source, ne);
    return 1;
  }
  std::optional<relabel_maps> maps;
  if (auto inv = snap.relabel_inv(); !inv.empty()) {
    maps = relabel_maps::from_inverse(std::vector<vertex_id_t>(inv.begin(), inv.end()));
  }
  nw::timer t;
  auto      r  = hyper_bfs_sharded(snap, maps ? maps->storage_id(source) : source);
  double    ms = t.elapsed_ms();
  if (maps) r = maps->to_external(std::move(r), source);
  std::printf("out-of-core (%zu shards%s)\n", snap.num_shards(),
              maps ? ", degree-relabeled" : "");
  print_bfs_summary(r, source, ms, ne, nn);
  return 0;
}

int cmd_bfs(const std::string& path, vertex_id_t source, bool sharded) {
  if (sharded) {
    if (!has_suffix(path, ".nwcsr")) {
      std::fprintf(stderr, "error: --sharded requires a .nwcsr snapshot\n");
      return 1;
    }
    return cmd_bfs_sharded(path, source);
  }
  NWHypergraph hg = load_hypergraph(path);
  if (source >= hg.num_hyperedges()) {
    std::fprintf(stderr, "error: source %u out of range (%zu hyperedges)\n", source,
                 hg.num_hyperedges());
    return 1;
  }
  nw::timer t;
  auto      r  = hg.bfs(source);
  double    ms = t.elapsed_ms();
  print_bfs_summary(r, source, ms, hg.num_hyperedges(), hg.num_hypernodes());
  return 0;
}

int cmd_slinegraph(const std::string& path, std::size_t s, const char* out) {
  NWHypergraph hg = load_hypergraph(path);
  nw::timer    t;
  auto         lg = hg.make_s_linegraph(s);
  std::printf("L_%zu(H): %zu vertices, %zu edges (%.2f ms)\n", s, lg.num_vertices(),
              lg.num_edges(), t.elapsed_ms());
  if (out != nullptr) {
    // Export as a MatrixMarket general graph (square adjacency pattern).
    std::ofstream f(out);
    if (!f.is_open()) {
      std::fprintf(stderr, "error: cannot open %s\n", out);
      return 1;
    }
    const auto& g = lg.graph();
    f << "%%MatrixMarket matrix coordinate pattern general\n";
    f << "% " << s << "-line graph written by nwhy_tool\n";
    f << g.size() << ' ' << g.size() << ' ' << g.num_edges() << '\n';
    for (std::size_t u = 0; u < g.size(); ++u) {
      for (auto&& e : g[u]) f << (u + 1) << ' ' << (target(e) + 1) << '\n';
    }
    std::printf("wrote %s\n", out);
  }
  return 0;
}

int cmd_smetrics(const std::string& path, std::size_t s) {
  NWHypergraph hg = load_hypergraph(path);
  auto         lg = hg.make_s_linegraph(s);
  std::printf("s = %zu: %zu line edges, %s\n", s, lg.num_edges(),
              lg.is_s_connected() ? "s-connected" : "not s-connected");
  auto labels = lg.s_connected_components();
  std::vector<vertex_id_t> active;
  for (auto l : labels) {
    if (l != nw::null_vertex<>) active.push_back(l);
  }
  if (!active.empty()) {
    std::printf("s-components: %zu over %zu active hyperedges (largest %zu)\n",
                nw::graph::count_components(active), active.size(),
                nw::graph::largest_component_size(active));
  }
  std::printf("s-diameter: %zu, s-triangles: %zu, s-clustering: %.4f\n", lg.s_diameter(),
              lg.s_triangle_count(), lg.s_clustering_coefficient());
  auto bc   = lg.s_betweenness_centrality();
  auto imax = std::max_element(bc.begin(), bc.end()) - bc.begin();
  std::printf("most s-between hyperedge: e%td (%.4f)\n", imax, bc[imax]);
  return 0;
}

/// Exact (samples == 0) or sampled s-betweenness via the batched frontier
/// Brandes engine; prints the top-scoring hyperedges.
int cmd_betweenness(const std::string& path, std::size_t s, std::size_t samples) {
  NWHypergraph hg = load_hypergraph(path);
  auto         lg = hg.make_s_linegraph(s);
  nw::timer    t;
  auto         bc = samples == 0 ? lg.s_betweenness_centrality_batched()
                                 : lg.s_betweenness_centrality_sampled(samples);
  double ms = t.elapsed_ms();
  if (samples == 0) {
    std::printf("exact s-betweenness, s = %zu: %zu sources, %.2f ms\n", s, bc.size(), ms);
  } else {
    std::printf("sampled s-betweenness, s = %zu: %zu samples, %.2f ms\n", s,
                std::min(samples, bc.size()), ms);
  }
  std::vector<vertex_id_t> order(bc.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<vertex_id_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](vertex_id_t a, vertex_id_t b) { return bc[a] > bc[b]; });
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    std::printf("  e%u: %.6f\n", order[i], bc[order[i]]);
  }
  return 0;
}

/// Wedge/triad/butterfly census of the bipartite form.
int cmd_motifs(const std::string& path) {
  NWHypergraph hg = load_hypergraph(path);
  nw::timer    t;
  auto         census = hg.motifs();
  std::printf("motif census: %.2f ms\n", t.elapsed_ms());
  std::printf("  wedges      : %llu\n", static_cast<unsigned long long>(census.wedges));
  std::printf("  triads      : %llu\n", static_cast<unsigned long long>(census.triads));
  std::printf("  open wedges : %llu\n", static_cast<unsigned long long>(census.open_wedges));
  std::printf("  butterflies : %llu\n", static_cast<unsigned long long>(census.butterflies));
  return 0;
}

int cmd_slcompare(const std::string& path, std::size_t s) {
  NWHypergraph hg = load_hypergraph(path);
  const auto&  he = hg.hyperedges();
  const auto&  hn = hg.hypernodes();
  const auto&  deg = hg.edge_sizes();
  std::vector<vertex_id_t> queue(hg.num_hyperedges());
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i] = static_cast<vertex_id_t>(i);

  auto report = [&](const char* name, auto&& run) {
    nw::timer t;
    auto      result = run();
    std::printf("  %-28s %10.2f ms   %zu edges\n", name, t.elapsed_ms(), result.size());
  };
  std::printf("s-line graph construction comparison, s = %zu:\n", s);
  report("hashmap [IPDPS'22]", [&] { return to_two_graph_hashmap(he, hn, deg, s); });
  report("intersection [HiPC'21]",
         [&] { return to_two_graph_intersection(he, hn, deg, s, he.size()); });
  report("Algorithm 1 (queue hashmap)",
         [&] { return to_two_graph_queue_hashmap(queue, he, hn, deg, s, he.size()); });
  report("Algorithm 2 (queue 2-phase)",
         [&] { return to_two_graph_queue_intersection(queue, he, hn, deg, s, he.size()); });
  report("weighted (keeps overlaps)", [&] { return to_two_graph_weighted(he, hn, deg, s); });
  return 0;
}

int cmd_generate(const std::string& name, std::size_t scale, const std::string& out) {
  for (const auto& spec : gen::dataset_suite()) {
    if (spec.name != name) continue;
    auto el = spec.build(scale);
    el.sort_and_unique();
    if (out.size() >= 4 && out.compare(out.size() - 4, 4, ".bin") == 0) {
      write_binary(out, el);
    } else {
      write_matrix_market(out, el);
    }
    std::printf("generated %s (scale %zu): %zu hyperedges, %zu hypernodes, %zu incidences -> %s\n",
                name.c_str(), scale, el.num_vertices(0), el.num_vertices(1), el.size(),
                out.c_str());
    return 0;
  }
  std::fprintf(stderr, "error: unknown dataset '%s'; available:", name.c_str());
  for (const auto& spec : gen::dataset_suite()) std::fprintf(stderr, " %s", spec.name.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

int cmd_toplexes(const std::string& path) {
  NWHypergraph hg = load_hypergraph(path);
  nw::timer    t;
  auto         tops = hg.toplexes();
  std::printf("%zu toplexes among %zu hyperedges (%.2f ms)\n", tops.size(),
              hg.num_hyperedges(), t.elapsed_ms());
  std::size_t shown = 0;
  for (auto e : tops) {
    if (shown++ == 20) {
      std::printf("  ... (%zu more)\n", tops.size() - 20);
      break;
    }
    std::printf("  e%u (size %zu)\n", e, hg.edge_sizes()[e]);
  }
  return 0;
}

/// Exercise every instrumented algorithm family once, so a single
/// invocation produces a profile covering BFS (levels, direction switches,
/// edges relaxed), s-line-graph construction (candidate vs. emitted pairs,
/// hashmap probes, queue occupancy for Algorithms 1-2), and toplex mining
/// (dominance checks performed vs. skipped).
int cmd_profile(const std::string& path, std::size_t s) {
  NWHypergraph hg = load_hypergraph(path);
  const auto&  he  = hg.hyperedges();
  const auto&  hn  = hg.hypernodes();
  const auto&  deg = hg.edge_sizes();

  // Family 1: BFS — direction-optimizing HyperBFS and AdjoinBFS.
  vertex_id_t src = 0;
  for (std::size_t e = 1; e < deg.size(); ++e) {
    if (deg[e] > deg[src]) src = static_cast<vertex_id_t>(e);
  }
  auto hbfs = hg.bfs(src);
  auto abfs = hg.bfs_adjoin(src);
  std::size_t reached = 0;
  for (auto d : hbfs.dist_edge) reached += d != nw::null_vertex<>;
  std::printf("hyper_bfs/adjoin_bfs from e%u: reached %zu/%zu hyperedges\n", src, reached,
              hg.num_hyperedges());
  (void)abfs;

  // Family 2: s-line-graph construction — both queue algorithms (1 and 2)
  // plus the hashmap baseline they generalize.
  std::vector<vertex_id_t> queue(hg.num_hyperedges());
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i] = static_cast<vertex_id_t>(i);
  auto lg1 = to_two_graph_queue_hashmap(queue, he, hn, deg, s, he.size());
  auto lg2 = to_two_graph_queue_intersection(queue, he, hn, deg, s, he.size());
  auto lg3 = to_two_graph_hashmap(he, hn, deg, s);
  std::printf("slinegraph s=%zu: %zu edges (Alg1) / %zu (Alg2) / %zu (hashmap)\n", s,
              lg1.size(), lg2.size(), lg3.size());

  // Family 3: toplexes.
  auto tops = hg.toplexes();
  std::printf("toplex: %zu toplexes among %zu hyperedges\n", tops.size(),
              hg.num_hyperedges());

  std::printf("profiled families: hyper_bfs, graph_bfs (adjoin), slinegraph, toplex\n");
  return 0;
}

int cmd_collapse(const std::string& path) {
  auto el = load(path);
  el.sort_and_unique();
  auto r = collapse_duplicate_edges(el);
  std::printf("collapsed %zu hyperedges into %zu distinct ones\n", el.num_vertices(0),
              r.el.num_vertices(0));
  std::size_t dups = 0;
  for (auto m : r.multiplicity) dups += m > 1;
  std::printf("%zu hyperedges had duplicates\n", dups);
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out, bool compress, bool relabel,
                long shards) {
  if (has_suffix(out, ".nwcsr")) {
    NWHypergraph hg = load_hypergraph(in);
    if (relabel) hg.relabel_by_degree();  // save embeds the inverse map
    if (shards >= 0) {
      csr_shard_options so;
      so.shards   = static_cast<std::uint32_t>(shards);
      so.compress = compress;
      hg.save_csr_snapshot(out, so);
    } else if (compress) {
      hg.save_csr_snapshot(out, csr_compress_options{});
    } else {
      hg.save_csr_snapshot(out);
    }
    std::printf("wrote %s (%zu incidences, canonical CSR snapshot%s%s%s)\n", out.c_str(),
                hg.num_incidences(), compress ? ", compressed" : "",
                relabel ? ", degree-relabeled" : "", shards >= 0 ? ", sharded" : "");
    return 0;
  }
  if (relabel || shards >= 0) {
    std::fprintf(stderr, "error: --relabel/--shards require .nwcsr output\n");
    return 1;
  }
  auto el = load(in);
  el.sort_and_unique();
  if (has_suffix(out, ".bin")) {
    write_binary(out, el);
  } else {
    write_matrix_market(out, el);
  }
  std::printf("wrote %s (%zu incidences)\n", out.c_str(), el.size());
  return 0;
}

/// Print the section table with human-readable kind names and a per-section
/// `bytes (ratio)` column.  The ratio compares a compressed targets group
/// against the raw u32 encoding it replaces: the kind-7 row accounts for the
/// whole E2N group (SVB payload + dictionary refs + dictionary indices).
void print_section_table(const csr_detail::parsed_header& h) {
  const std::uint64_t raw_targets = h.m * sizeof(vertex_id_t);
  auto group_len = [&](std::initializer_list<std::uint32_t> kinds) {
    std::uint64_t total = 0;
    for (auto k : kinds) {
      if (const auto* s = h.find(k)) total += s->length;
    }
    return total;
  };
  std::printf("  sections     : %zu\n", h.sections.size());
  std::printf("    %-4s %-18s %12s %9s\n", "kind", "name", "bytes", "ratio");
  for (const auto& s : h.sections) {
    std::uint64_t replaces = 0;  // raw bytes this section (group) stands in for
    if (s.kind == csr_sec_e2n_targets_svb) {
      replaces = raw_targets;
    } else if (s.kind == csr_sec_n2e_targets_svb) {
      replaces = raw_targets;
    }
    char ratio[32] = "-";
    if (replaces != 0) {
      const std::uint64_t stored =
          s.kind == csr_sec_e2n_targets_svb
              ? group_len({csr_sec_e2n_targets_svb, csr_sec_e2n_dict_refs,
                           csr_sec_e2n_dict_indices})
              : s.length;
      if (stored != 0) {
        std::snprintf(ratio, sizeof(ratio), "%.2fx", double(replaces) / double(stored));
      }
    } else if (s.kind == csr_sec_e2n_dict_refs || s.kind == csr_sec_e2n_dict_indices) {
      std::snprintf(ratio, sizeof(ratio), "(dict)");
    }
    std::printf("    %-4u %-18s %12llu %9s\n", s.kind, csr_section_kind_name(s.kind),
                static_cast<unsigned long long>(s.length), ratio);
  }
  const std::uint64_t e2n_stored = group_len(
      {csr_sec_e2n_targets_svb, csr_sec_e2n_dict_refs, csr_sec_e2n_dict_indices});
  const std::uint64_t n2e_stored = group_len({csr_sec_n2e_targets_svb});
  if (e2n_stored != 0 && raw_targets != 0) {
    std::printf("  e2n targets  : %llu raw -> %llu compressed (%.2fx)\n",
                static_cast<unsigned long long>(raw_targets),
                static_cast<unsigned long long>(e2n_stored),
                double(raw_targets) / double(e2n_stored));
  }
  if (n2e_stored != 0 && raw_targets != 0) {
    std::printf("  n2e targets  : %llu raw -> %llu compressed (%.2fx)\n",
                static_cast<unsigned long long>(raw_targets),
                static_cast<unsigned long long>(n2e_stored),
                double(raw_targets) / double(n2e_stored));
  }
}

/// Re-read just the header + section table of a snapshot for inspection
/// (the loaded csr_snapshot does not retain the table).
csr_detail::parsed_header read_snapshot_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw io_error("cannot open snapshot", path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  const std::uint64_t prefix_len = std::min<std::uint64_t>(
      file_size, csr_detail::header_bytes +
                     csr_detail::max_section_count * csr_detail::table_entry_bytes);
  std::vector<unsigned char> head(static_cast<std::size_t>(prefix_len));
  in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  if (!in.good()) throw io_error("cannot read snapshot header", path);
  return csr_detail::parse_header(head.data(), file_size, path);
}

/// Print the shard directory (kind 11), one row per shard: hyperedge range,
/// incidence count, stored bytes, and — for SVB-encoded slices — the ratio
/// against the raw u32 target encoding the slice replaces.
void print_shard_directory(const std::string& path, const csr_detail::parsed_header& h) {
  const auto* sdir = h.find(csr_sec_shard_dir);
  const auto* spay = h.find(csr_sec_shard_payload);
  if (sdir == nullptr || spay == nullptr) return;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw io_error("cannot open snapshot", path);
  std::vector<nw::offset_t> words(static_cast<std::size_t>(sdir->length / sizeof(nw::offset_t)));
  in.seekg(static_cast<std::streamoff>(sdir->offset));
  in.read(reinterpret_cast<char*>(words.data()), static_cast<std::streamsize>(sdir->length));
  if (!in.good()) throw io_error("cannot read shard directory", path);
  auto dir = csr_detail::parse_shard_directory(std::span<const nw::offset_t>(words), h.n0, h.n1,
                                               h.m, spay->length, path);
  std::printf("  shards       : %zu (payload %llu bytes)\n", dir.size(),
              static_cast<unsigned long long>(spay->length));
  std::printf("    %-5s %-21s %12s %12s %9s\n", "shard", "hyperedges", "incidences", "bytes",
              "ratio");
  for (std::size_t k = 0; k < dir.size(); ++k) {
    const auto&         s      = dir[k];
    const std::uint64_t stored = s.e2n_len + s.sub_len + s.n2e_len;
    char                range[32];
    std::snprintf(range, sizeof(range), "[%llu, %llu)",
                  static_cast<unsigned long long>(s.e_begin),
                  static_cast<unsigned long long>(s.e_end));
    char ratio[32] = "-";
    if ((s.flags & csr_detail::shard_flag_svb) != 0 && stored != 0) {
      // Raw footprint the slices stand in for: both target streams as u32
      // plus the (always raw) per-shard node sub-index.
      const std::uint64_t raw = 2 * s.count * sizeof(vertex_id_t) + s.sub_len;
      std::snprintf(ratio, sizeof(ratio), "%.2fx", double(raw) / double(stored));
    }
    std::printf("    %-5zu %-21s %12llu %12llu %9s\n", k, range,
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(stored), ratio);
  }
}

int cmd_inspect(const std::string& path) {
  if (has_suffix(path, ".nwcsr")) {
    // Full integrity audit: checksum every section, then cross-check the
    // two CSRs against each other.
    auto snap = load_csr_snapshot(path, /*verify_checksums=*/true);
    std::printf("NWHYCSR2 snapshot: %s\n", path.c_str());
    std::printf("  version      : %u\n", snap.version);
    std::printf("  flags        : 0x%x (%s%s)\n", snap.flags,
                snap.canonical() ? "canonical" : "non-canonical",
                (snap.flags & csr_flag_has_adjoin) != 0 ? ", has-adjoin (legacy, not decoded)"
                                                        : "");
    std::printf("  hyperedges   : %llu\n", static_cast<unsigned long long>(snap.n0));
    std::printf("  hypernodes   : %llu\n", static_cast<unsigned long long>(snap.n1));
    std::printf("  incidences   : %llu\n", static_cast<unsigned long long>(snap.m));
    std::printf("  load path    : %s\n", NWHY_HAS_MMAP ? "mmap (zero-copy)" : "streamed");
    if (!snap.relabel_inv.empty()) {
      std::printf("  relabel      : degree-ordered (inverse map embedded, %zu ids)\n",
                  snap.relabel_inv.size());
    }
    auto h = read_snapshot_header(path);
    print_section_table(h);
    print_shard_directory(path, h);
    auto cons = validate_csr_pair(snap.edges, snap.nodes);
    std::printf("  checksums    : ok (all sections verified)\n");
    std::printf("  consistency  : %s\n", cons.to_string().c_str());
    if (!cons.consistent()) {
      std::fprintf(stderr, "error: snapshot CSRs are not mutual transposes\n");
      return 1;
    }
    return 0;
  }
  auto el = load(path);
  auto r  = validate(el);
  std::printf("%s: %zu hyperedges, %zu hypernodes, %zu incidences\n", path.c_str(),
              el.num_vertices(0), el.num_vertices(1), el.size());
  std::printf("  validation   : %s\n", r.to_string().c_str());
  std::printf("  canonical    : %s\n", r.canonical() ? "yes" : "no (sort_and_unique required)");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: nwhy_tool <command> <file> [args] [--profile out.json]\n"
               "  stats      <file>\n"
               "  components <file>\n"
               "  bfs        <file> <edge-id> [--sharded]\n"
               "  slinegraph <file> <s> [out.mtx]\n"
               "  slcompare  <file> <s>\n"
               "  smetrics   <file> <s>\n"
               "  betweenness <file> <s> [samples]\n"
               "  motifs     <file>\n"
               "  toplexes   <file>\n"
               "  collapse   <file>\n"
               "  convert    <in> <out.bin|out.mtx|out.nwcsr> [--compress]\n"
               "             [--relabel[=degree]] [--shards[=N]]\n"
               "  inspect    <file>\n"
               "  generate   <dataset-name> <scale> <out.bin|out.mtx>\n"
               "  profile    <file> [s]\n"
               "  --profile out.json   write observability counters/timers as JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Extract `--profile <path>` and the mode flags (allowed anywhere) before
  // positional parsing.
  std::string              profile_out;
  bool                     compress = false;
  bool                     relabel  = false;
  bool                     sharded  = false;
  long                     shards   = -1;  // -1: off; 0: byte-budget auto; N: pinned count
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "error: --profile needs an output path\n");
        return 2;
      }
      profile_out = argv[++i];
    } else if (std::strcmp(argv[i], "--compress") == 0) {
      compress = true;
    } else if (std::strcmp(argv[i], "--relabel") == 0 ||
               std::strcmp(argv[i], "--relabel=degree") == 0) {
      relabel = true;
    } else if (std::strncmp(argv[i], "--relabel=", 10) == 0) {
      std::fprintf(stderr, "error: unknown relabel order '%s' (only 'degree')\n", argv[i] + 10);
      return 2;
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = 0;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      char* end = nullptr;
      shards    = std::strtol(argv[i] + 9, &end, 10);
      if (end == argv[i] + 9 || *end != '\0' || shards < 1) {
        std::fprintf(stderr, "error: --shards=N needs a positive integer\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() < 2) {
    usage();
    return 2;
  }
  const std::string& cmd  = args[0];
  const std::string& path = args[1];
  auto arg = [&](std::size_t i) -> const char* {
    return args.size() > i ? args[i].c_str() : nullptr;
  };
  auto s_arg = [&](std::size_t i) { return parse_number<std::size_t>(arg(i), "s", 1); };

  int rc = 2;
  try {
  if (cmd == "stats") {
    rc = cmd_stats(path);
  } else if (cmd == "components") {
    rc = cmd_components(path);
  } else if (cmd == "bfs" && args.size() >= 3) {
    rc = cmd_bfs(path, parse_number<vertex_id_t>(arg(2), "edge-id"), sharded);
  } else if (cmd == "slinegraph" && args.size() >= 3) {
    rc = cmd_slinegraph(path, s_arg(2), arg(3));
  } else if (cmd == "smetrics" && args.size() >= 3) {
    rc = cmd_smetrics(path, s_arg(2));
  } else if (cmd == "slcompare" && args.size() >= 3) {
    rc = cmd_slcompare(path, s_arg(2));
  } else if (cmd == "betweenness" && args.size() >= 3) {
    rc = cmd_betweenness(path, s_arg(2),
                         args.size() >= 4 ? parse_number<std::size_t>(arg(3), "samples") : 0);
  } else if (cmd == "motifs") {
    rc = cmd_motifs(path);
  } else if (cmd == "toplexes") {
    rc = cmd_toplexes(path);
  } else if (cmd == "collapse") {
    rc = cmd_collapse(path);
  } else if (cmd == "convert" && args.size() >= 3) {
    rc = cmd_convert(path, arg(2), compress, relabel, shards);
  } else if (cmd == "inspect") {
    rc = cmd_inspect(path);
  } else if (cmd == "generate" && args.size() >= 4) {
    rc = cmd_generate(path, parse_number<std::size_t>(arg(2), "scale"), arg(3));
  } else if (cmd == "profile") {
    rc = cmd_profile(path, args.size() >= 3 ? s_arg(2) : 1);
  } else {
    usage();
    return 2;
  }
  } catch (const nw::hypergraph::io_error& e) {
    // Recoverable ingest defects: readable one-liner with file/line/byte
    // context, nonzero exit, no abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::invalid_argument& e) {
    // A malformed positional argument (s, edge id, count).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (rc == 0 && !profile_out.empty() && nw::obs::runtime_enabled()) {
    if (nw::obs::write_profile(profile_out)) {
      std::printf("wrote profile %s\n", profile_out.c_str());
    } else {
      rc = 1;
    }
  }
  return rc;
}
