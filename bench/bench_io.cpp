// bench/bench_io.cpp — the I/O subsystem under measurement: parallel text
// ingest vs the two snapshot load paths.
//
// The harness synthesizes one Rand1-style hypergraph with >= 1M incidences
// (NWHY_BENCH_SCALE multiplies it), serializes it once into every on-disk
// format, then times the loads:
//
//   parse-mm      parallel MatrixMarket ingest (parse_matrix_market), swept
//                 over NWHY_BENCH_THREADS — the scaling series
//   read-bin      NWHYBIN1 legacy binary (serial stream read)
//   read-nwcsr    NWHYCSR2 streamed read (pipe-safe path, verifies all
//                 section checksums)
//   mmap-nwcsr    NWHYCSR2 zero-copy mmap load; the timed region includes a
//                 first-touch sweep over every mapped section so page-fault
//                 cost is charged to the load, not to the first algorithm
//   read-nwcsrz   streamed read of the compressed snapshot (SVB target
//                 sections), decoding to owned CSRs inside the timed region
//   mmap-nwcsrz   mmap load of the compressed snapshot + full materialize —
//                 the "cold start from a small file" number
//   decode-svb    pure block-decode throughput, swept over
//                 NWHY_BENCH_THREADS: the snapshot is mapped in stream mode
//                 outside the timer and both compressed_adjacency views are
//                 materialized inside it; `bytes` is the LOGICAL decoded
//                 output (2 x m x 4), so MB/s is decode bandwidth
//   svb-sections  zero-time bookkeeping record: `bytes` is the on-disk size
//                 of the compressed target sections (kinds 7-10), so
//                 8*incidences/bytes is the target-section compression ratio
//   read-nwcsr-sharded  streamed read of the sharded snapshot (kinds 11/12),
//                 reassembling both global CSRs from the shard slices
//   mmap-nwcsr-sharded  mmap load of the sharded snapshot + reassembly —
//                 what a whole-graph consumer pays for the sharded layout
//   bfs-sharded   shard-at-a-time BFS (hyper_bfs_sharded) over the sharded
//                 snapshot, in-process, for a like-for-like wall time
//   bfs-sharded-ooc  the >RAM gate: a 4x-scale hypergraph is written sharded,
//                 then a fresh fork+exec'd child opens it as a
//                 sharded_snapshot and runs BFS; `bytes` is the dataset's
//                 resident size (raw CSR footprint an in-memory engine would
//                 hold) and `peak_rss_kb` is the child's ru_maxrss via
//                 wait4 — the acceptance signal is peak_rss_kb * 1024 well
//                 below bytes
//
// The footer prints the headline acceptance ratios: mmap load vs 1-thread
// text parse (the paper-motivated "don't re-parse what you already
// canonicalized" argument), the compressed-vs-raw bytes on disk, the peak
// decode bandwidth in GB/s, and the out-of-core BFS peak RSS vs the dataset
// resident size.
//
//   NWHY_BENCH_JSON  path; when set the harness skips the table and writes
//                    machine-readable records for scripts/bench_snapshot.sh:
//                    schema nwhy-bench-io-v1, one record per operation x
//                    thread-count: {"dataset", "operation", "threads",
//                    "median_ms", "incidences", "bytes", "peak_rss_kb"}
#include <unistd.h>
#if defined(__unix__)
#include <sys/resource.h>
#include <sys/wait.h>
#endif

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"

using namespace bench;

namespace {

struct corpus {
  std::string  name;
  biedgelist<> el;
  std::string  mtx_path, bin_path, nwcsr_path, nwcsrz_path, nwcsrs_path;
  std::size_t  mtx_bytes = 0, bin_bytes = 0, nwcsr_bytes = 0, nwcsrz_bytes = 0, nwcsrs_bytes = 0;
  std::size_t  svb_section_bytes = 0;  // on-disk bytes of section kinds 7-10
};

/// Sum the on-disk bytes of the compressed target sections (kinds 7-10)
/// by parsing just the snapshot's header + section table.
std::size_t svb_section_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::vector<unsigned char> head(static_cast<std::size_t>(std::min<std::uint64_t>(
      file_size, csr_detail::header_bytes +
                     csr_detail::max_section_count * csr_detail::table_entry_bytes)));
  in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  auto        h   = csr_detail::parse_header(head.data(), file_size, path);
  std::size_t acc = 0;
  for (const auto& s : h.sections) {
    if (s.kind >= csr_sec_e2n_targets_svb && s.kind <= csr_sec_e2n_dict_indices) {
      acc += static_cast<std::size_t>(s.length);
    }
  }
  return acc;
}

/// Build the benchmark hypergraph (>= 1M incidences at scale 1) and
/// serialize it into all the on-disk formats under a scratch directory.
corpus make_corpus(const std::filesystem::path& dir) {
  std::size_t scale = env_size("NWHY_BENCH_SCALE", 1);
  corpus      c;
  c.name = "Rand-io";
  c.el   = gen::uniform_random_hypergraph(/*num_edges=*/120000 * scale,
                                          /*num_nodes=*/120000 * scale,
                                          /*edge_size=*/10, /*seed=*/0x10C0FFEE);
  c.el.sort_and_unique();

  c.mtx_path    = (dir / "bench_io.mtx").string();
  c.bin_path    = (dir / "bench_io.bin").string();
  c.nwcsr_path  = (dir / "bench_io.nwcsr").string();
  c.nwcsrz_path = (dir / "bench_io.z.nwcsr").string();
  c.nwcsrs_path = (dir / "bench_io.s.nwcsr").string();

  write_matrix_market(c.mtx_path, c.el);
  write_binary(c.bin_path, c.el);
  biadjacency<0> edges(c.el);
  biadjacency<1> nodes(c.el);
  write_csr_snapshot(c.nwcsr_path, edges, nodes);
  write_csr_snapshot(c.nwcsrz_path, edges, nodes, csr_compress_options{});
  {  // Hyperedge-range sharded layout (kinds 11/12), default byte budget.
    csr_shard_options so{};
    csr_write_options wopt;
    wopt.shard = &so;
    write_csr_snapshot(c.nwcsrs_path, edges, nodes, wopt);
  }

  c.mtx_bytes    = std::filesystem::file_size(c.mtx_path);
  c.bin_bytes    = std::filesystem::file_size(c.bin_path);
  c.nwcsr_bytes  = std::filesystem::file_size(c.nwcsr_path);
  c.nwcsrz_bytes = std::filesystem::file_size(c.nwcsrz_path);
  c.nwcsrs_bytes = std::filesystem::file_size(c.nwcsrs_path);
  c.svb_section_bytes = svb_section_bytes(c.nwcsrz_path);
  return c;
}

/// First-touch every mapped section so the mmap timing charges page faults
/// to the load.  Returns a checksum-ish value to defeat dead-code
/// elimination.
std::uint64_t touch_all(const csr_snapshot& snap) {
  std::uint64_t acc = 0;
  auto          sweep = [&](const auto& csr) {
    for (auto v : csr.indices()) acc += v;
    for (auto v : csr.targets()) acc += v;
  };
  sweep(snap.edges.csr());
  sweep(snap.nodes.csr());
  return acc;
}

struct sample {
  std::string operation;
  unsigned    threads;
  double      median_ms;
  std::size_t incidences;
  std::size_t bytes;
  long        rss_kb = -1;   ///< filled after the timed region; -1 = unknown
  std::string dataset = "";  ///< empty = the shared corpus name
};

/// Run the full measurement matrix once; both output modes render it.
std::vector<sample> measure(const corpus& c) {
  std::vector<sample> out;
  const unsigned      restore = nw::par::num_threads();

  // Parallel MatrixMarket ingest, swept over the thread counts.  The slurp
  // is inside the timed region: "load this text file" is the user-visible
  // operation being compared against the snapshot loads.
  for (unsigned t : env_threads()) {
    nw::par::thread_pool::set_default_concurrency(t);
    std::size_t m  = 0;
    double      ms = time_median_ms([&] {
      auto el = graph_reader(c.mtx_path);
      m       = el.size();
    });
    out.push_back({"parse-mm", t, ms, m, c.mtx_bytes});
  }
  nw::par::thread_pool::set_default_concurrency(restore);

  {  // NWHYBIN1 legacy binary (serial).
    std::size_t m  = 0;
    double      ms = time_median_ms([&] {
      auto el = read_binary(c.bin_path);
      m       = el.size();
    });
    out.push_back({"read-bin", 1, ms, m, c.bin_bytes});
  }
  {  // NWHYCSR2 streamed read (always verifies checksums).
    std::size_t m  = 0;
    double      ms = time_median_ms([&] {
      std::ifstream in(c.nwcsr_path, std::ios::binary);
      auto          snap = read_csr_snapshot(in, c.nwcsr_path);
      m                  = snap.m;
    });
    out.push_back({"read-nwcsr", 1, ms, m, c.nwcsr_bytes});
  }
  {  // NWHYCSR2 zero-copy mmap load + first-touch sweep.
    std::size_t            m   = 0;
    volatile std::uint64_t acc = 0;
    double                 ms  = time_median_ms([&] {
      auto snap = load_csr_snapshot(c.nwcsr_path);
      acc       = acc + touch_all(snap);
      m         = snap.m;
    });
    out.push_back({"mmap-nwcsr", 1, ms, m, c.nwcsr_bytes});
  }
  {  // Compressed snapshot, streamed read + decode to owned CSRs.
    std::size_t m  = 0;
    double      ms = time_median_ms([&] {
      std::ifstream in(c.nwcsrz_path, std::ios::binary);
      auto          snap = read_csr_snapshot(in, c.nwcsrz_path);
      m                  = snap.m;
    });
    out.push_back({"read-nwcsrz", 1, ms, m, c.nwcsrz_bytes});
  }
  {  // Compressed snapshot, mmap + full materialize (cold-start path).
    std::size_t            m   = 0;
    volatile std::uint64_t acc = 0;
    double                 ms  = time_median_ms([&] {
      auto snap = load_csr_snapshot(c.nwcsrz_path);
      acc       = acc + touch_all(snap);
      m         = snap.m;
    });
    out.push_back({"mmap-nwcsrz", 1, ms, m, c.nwcsrz_bytes});
  }
  {  // Pure SVB block-decode bandwidth, swept over the thread counts.  The
     // snapshot is mapped in stream mode outside the timer; the timed
     // region decodes every block of both compressed views.  `bytes` is
     // the logical decoded output, so MB/s below is decode bandwidth.
    auto snap = load_csr_snapshot(c.nwcsrz_path, /*verify_checksums=*/false,
                                  snapshot_decode::stream);
    const std::size_t logical = 2 * snap.m * sizeof(nw::vertex_id_t);
    for (unsigned t : env_threads()) {
      nw::par::thread_pool::set_default_concurrency(t);
      volatile std::size_t acc = 0;
      double               ms  = time_median_ms([&] {
        std::size_t n = 0;
        if (snap.edges_view) n += snap.edges_view->materialize().num_edges();
        if (snap.nodes_view) n += snap.nodes_view->materialize().num_edges();
        acc = acc + n;
      });
      out.push_back({"decode-svb", t, ms, snap.m, logical});
    }
    nw::par::thread_pool::set_default_concurrency(restore);
  }
  {  // Sharded snapshot, streamed read: reassembles both global CSRs.
    std::size_t m  = 0;
    double      ms = time_median_ms([&] {
      std::ifstream in(c.nwcsrs_path, std::ios::binary);
      auto          snap = read_csr_snapshot(in, c.nwcsrs_path);
      m                  = snap.m;
    });
    out.push_back({"read-nwcsr-sharded", 1, ms, m, c.nwcsrs_bytes});
  }
  {  // Sharded snapshot, mmap load + reassembly + first-touch sweep.
    std::size_t            m   = 0;
    volatile std::uint64_t acc = 0;
    double                 ms  = time_median_ms([&] {
      auto snap = load_csr_snapshot(c.nwcsrs_path);
      acc       = acc + touch_all(snap);
      m         = snap.m;
    });
    out.push_back({"mmap-nwcsr-sharded", 1, ms, m, c.nwcsrs_bytes});
  }
  {  // Shard-at-a-time BFS over the sharded layout, in-process.
    sharded_snapshot       snap(c.nwcsrs_path);
    volatile std::uint64_t acc = 0;
    double                 ms  = time_median_ms([&] {
      auto r = hyper_bfs_sharded(snap, 0);
      acc    = acc + r.dist_edge.size();
    });
    out.push_back({"bfs-sharded", 1, ms, snap.num_incidences(), c.nwcsrs_bytes});
  }
  // Bookkeeping record: on-disk bytes of the compressed target sections,
  // so consumers can compute the target-section ratio (8*m / bytes).
  out.push_back({"svb-sections", 1, 0.0, c.el.size(), c.svb_section_bytes});
  // Every record carries the process RSS high-water mark as of its own
  // completion (ru_maxrss is monotone, so this is "peak so far").
  for (auto& r : out) {
    if (r.rss_kb < 0) r.rss_kb = peak_rss_kb();
  }
  return out;
}

/// The synthetic >RAM gate (ROADMAP item 2's acceptance signal).  A
/// NWHY_BENCH_OOC_FACTOR-times larger hypergraph (default 4x the corpus) is
/// written as a sharded snapshot, then a *fresh* fork+exec'd child — exec
/// resets the address space, so the measurement excludes the parent's
/// resident corpus — opens it as a sharded_snapshot and runs the
/// shard-at-a-time BFS.  `bytes` is the resident footprint an in-memory
/// engine would hold (both index arrays + both target streams) and `rss_kb`
/// is the child's ru_maxrss reported by wait4; the gate passes when
/// rss_kb * 1024 is well below bytes.
std::vector<sample> ooc_gate(const std::filesystem::path& dir, const char* exe) {
  std::vector<sample> out;
#if defined(__linux__)
  const std::string path = (dir / "bench_io.ooc.nwcsr").string();

  // Prefer /proc/self/exe over argv[0]: it stays valid whatever the cwd.
  char    self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    exe     = self;
  }
  auto spawn = [&](const char* mode, struct rusage* ru) {
    pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(exe, exe, mode, path.c_str(), "0", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = -1;
    if (pid > 0) ::wait4(pid, &status, 0, ru);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  };

  // The gate dataset is also built and written by an exec'd child, so the
  // parent that later forks the *measured* child never holds it resident:
  // ru_maxrss survives execve, so a fork from a fat parent would inherit
  // the parent's high-water mark and drown the signal.
  struct rusage wru{};
  if (!spawn("--ooc-write", &wru)) {
    std::fprintf(stderr, "[bench] out-of-core gate writer failed; skipping the gate\n");
    return out;
  }
  std::uint64_t n0 = 0, n1 = 0, m = 0;
  {  // Dataset dimensions come from the written header.
    std::ifstream in(path, std::ios::binary);
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    std::vector<unsigned char> head(static_cast<std::size_t>(std::min<std::uint64_t>(
        file_size, csr_detail::header_bytes +
                       csr_detail::max_section_count * csr_detail::table_entry_bytes)));
    in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
    auto h = csr_detail::parse_header(head.data(), file_size, path);
    n0     = h.n0;
    n1     = h.n1;
    m      = h.m;
  }
  // Resident footprint of the in-memory representation this layout avoids.
  const std::size_t resident_bytes = static_cast<std::size_t>(
      (n0 + 1 + n1 + 1) * sizeof(nw::offset_t) + 2 * m * sizeof(nw::vertex_id_t));

  nw::timer     t;
  struct rusage ru{};
  if (spawn("--ooc-child", &ru)) {
    out.push_back({"bfs-sharded-ooc", 1, t.elapsed_ms(), static_cast<std::size_t>(m),
                   resident_bytes, static_cast<long>(ru.ru_maxrss), "Rand-io-ooc"});
  } else {
    std::fprintf(stderr, "[bench] out-of-core gate child failed\n");
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
#else
  (void)dir;
  (void)exe;
#endif
  return out;
}

/// Writer half of the gate (exec'd): synthesize the NWHY_BENCH_OOC_FACTOR-
/// times-larger hypergraph and serialize it sharded.
int run_ooc_write(const char* path) {
  const std::size_t scale  = env_size("NWHY_BENCH_SCALE", 1);
  const std::size_t factor = env_size("NWHY_BENCH_OOC_FACTOR", 4);
  auto el = gen::uniform_random_hypergraph(/*num_edges=*/120000 * scale * factor,
                                           /*num_nodes=*/120000 * scale * factor,
                                           /*edge_size=*/10, /*seed=*/0x00CC0FFE);
  el.sort_and_unique();
  biadjacency<0>    edges(el);
  biadjacency<1>    nodes(el);
  csr_shard_options so{};
  csr_write_options wopt;
  wopt.shard = &so;
  write_csr_snapshot(path, edges, nodes, wopt);
  return 0;
}

/// Measured half of the gate (exec'd): open the sharded snapshot, traverse,
/// exit — the child's ru_maxrss is the number the gate records.
int run_ooc_child(const char* path, nw::vertex_id_t source) {
  sharded_snapshot snap(path);
  auto             r = hyper_bfs_sharded(snap, source);
  return r.dist_edge.empty() ? 1 : 0;
}

double find_ms(const std::vector<sample>& rows, const std::string& op, unsigned threads) {
  for (const auto& r : rows) {
    if (r.operation == op && r.threads == threads) return r.median_ms;
  }
  return 0;
}

int run_json_mode(const char* path, const corpus& c, const std::vector<sample>& rows) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "[");
  bool first = true;
  for (const auto& r : rows) {
    std::fprintf(out,
                 "%s\n  {\"dataset\": \"%s\", \"operation\": \"%s\", \"threads\": %u, "
                 "\"median_ms\": %.4f, \"incidences\": %zu, \"bytes\": %zu, "
                 "\"peak_rss_kb\": %ld}",
                 first ? "" : ",", r.dataset.empty() ? c.name.c_str() : r.dataset.c_str(),
                 r.operation.c_str(), r.threads, r.median_ms, r.incidences, r.bytes, r.rss_kb);
    first = false;
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  std::fprintf(stderr, "[bench] wrote I/O sweep to %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Gate-child modes: exec'd by ooc_gate() so the RSS measurement starts
  // from a clean address space.  Not a user-facing interface.
  if (argc == 4 && std::string(argv[1]) == "--ooc-child") {
    return run_ooc_child(argv[2], static_cast<nw::vertex_id_t>(std::atol(argv[3])));
  }
  if (argc == 4 && std::string(argv[1]) == "--ooc-write") {
    return run_ooc_write(argv[2]);
  }

  install_profile_export();

  std::error_code       ec;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("nwhy_bench_io." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "[bench] cannot create scratch dir %s\n", dir.string().c_str());
    return 1;
  }

  // The gate runs first, while this process is still slim: a fork from a
  // parent already holding the corpus would inherit its ru_maxrss.
  auto   gate = ooc_gate(dir, argv[0]);
  corpus c    = make_corpus(dir);
  auto   rows = measure(c);
  for (auto& g : gate) rows.push_back(std::move(g));

  int rc = 0;
  if (const char* json = std::getenv("NWHY_BENCH_JSON"); json != nullptr && *json != '\0') {
    rc = run_json_mode(json, c, rows);
  } else {
    std::printf("I/O subsystem — load times (median of %zu reps)\n",
                env_size("NWHY_BENCH_REPS", 3));
    std::printf(
        "dataset %s: %zu incidences; %.1f MB text, %.1f MB bin, %.1f MB nwcsr, "
        "%.1f MB nwcsrz, %.1f MB sharded\n",
        c.name.c_str(), c.el.size(), c.mtx_bytes / 1e6, c.bin_bytes / 1e6, c.nwcsr_bytes / 1e6,
        c.nwcsrz_bytes / 1e6, c.nwcsrs_bytes / 1e6);
    std::printf("%-14s %8s %12s %14s\n", "operation", "threads", "median ms", "MB/s");
    for (const auto& r : rows) {
      if (r.operation == "svb-sections") continue;  // zero-time bookkeeping row
      double mbps = r.median_ms > 0 ? (r.bytes / 1e6) / (r.median_ms / 1e3) : 0;
      std::printf("%-14s %8u %12.2f %14.1f\n", r.operation.c_str(), r.threads, r.median_ms, mbps);
    }
    double parse1 = find_ms(rows, "parse-mm", env_threads().front());
    double mm     = find_ms(rows, "mmap-nwcsr", 1);
    if (parse1 > 0 && mm > 0) {
      std::printf("  -> mmap snapshot load is %.1fx faster than %u-thread text parse\n",
                  parse1 / mm, env_threads().front());
    }
    if (c.svb_section_bytes > 0) {
      std::printf("  -> compressed snapshot: %.1f MB vs %.1f MB raw on disk (%.2fx whole-file, "
                  "%.2fx on target sections)\n",
                  c.nwcsrz_bytes / 1e6, c.nwcsr_bytes / 1e6,
                  double(c.nwcsr_bytes) / double(c.nwcsrz_bytes),
                  double(2 * c.el.size() * sizeof(nw::vertex_id_t)) /
                      double(c.svb_section_bytes));
    }
    double decode_best = 0;
    for (const auto& r : rows) {
      if (r.operation == "decode-svb" && r.median_ms > 0) {
        decode_best = std::max(decode_best, (r.bytes / 1e9) / (r.median_ms / 1e3));
      }
    }
    if (decode_best > 0) {
      std::printf("  -> peak SVB decode bandwidth: %.2f GB/s of decoded targets\n", decode_best);
    }
    for (const auto& r : rows) {
      if (r.operation == "bfs-sharded-ooc") {
        std::printf("  -> out-of-core BFS peak RSS %.1f MB vs %.1f MB resident dataset "
                    "(%.2fx headroom)\n",
                    r.rss_kb / 1e3, r.bytes / 1e6,
                    r.rss_kb > 0 ? double(r.bytes) / (double(r.rss_kb) * 1024.0) : 0.0);
      }
    }
  }

  std::filesystem::remove_all(dir, ec);
  return rc;
}
