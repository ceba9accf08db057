// perfbench/src/ingest.cpp — ingest-formats: every load and store path of the io layer
// on one large uniform-random hypergraph (the Rand1-sim shape), whose
// analytics would be trivial, so io dominates: in analytics-pipeline it is a
// few percent of a pass.
//
// One pass reads the same hypergraph as MatrixMarket text (graph_reader),
// streamed NWHYCSR2, mmap NWHYCSR2, compressed NWHYCSR2 and sharded
// NWHYCSR2, builds the facade from each, and writes one plain and one
// compressed snapshot.  The files were just written, so the page cache is
// warm: this measures parsing, decoding and copying, not the disk.
#include <fstream>

#include "common.hpp"

namespace pb {

result run_ingest(const options& opt, tracer& tr) {
  result     r;
  const auto mtx   = opt.path("ingest.mtx").string();
  const auto plain = opt.path("ingest.nwcsr").string();
  const auto z     = opt.path("ingest.z.nwcsr").string();
  const auto shard = opt.path("ingest.s.nwcsr").string();
  const auto out_plain = opt.path("ingest.out.nwcsr").string();
  const auto out_z     = opt.path("ingest.out.z.nwcsr").string();

  const std::uint64_t want = repeated_setup(r, [&] {
    const std::size_t n  = opt.size("ingest.edges");
    auto              el = gen::uniform_random_hypergraph(n, n, 10, opt.seed);
    el.sort_and_unique();
    write_matrix_market(mtx, el);
    biadjacency<0> edges(el);
    biadjacency<1> nodes(el);
    write_csr_snapshot(plain, edges, nodes);
    write_csr_snapshot(z, edges, nodes, csr_compress_options{});
    csr_shard_options so{};
    csr_write_options wo;
    wo.shard = &so;
    write_csr_snapshot(shard, edges, nodes, wo);
    return csr_digest(NWHypergraph(std::move(el)));
  });
  {
    NWHypergraph h(load_csr_snapshot(plain));
    r.sizes["hyperedges"] = h.num_hyperedges();
    r.sizes["hypernodes"] = h.num_hypernodes();
    r.sizes["incidences"] = h.num_incidences();
  }
  for (const auto& f : {mtx, plain, z, shard}) r.sizes["file_bytes"] += std::filesystem::file_size(f);
  r.notes["disk"] = "page cache warm: inputs were just written, so disk behaviour is not measured";

  auto streamed = [](const std::string& f) {
    std::ifstream in(f, std::ios::binary);
    return read_csr_snapshot(in, f);
  };

  // Binary-format operations (the nominal latency level) and the text parse
  // (the heavy level), each with the facade build that makes it usable.
  // Every timing is CPU time (cpu_ms).
  std::vector<double> pass_ms, pass_wall_ms, text_ms, binary_ms;
  std::uintmax_t      written[2] = {0, 0};
  trace_summary       ts;
  const double        t_end  = now_ms() + 1000.0 * opt.seconds;
  std::size_t         passes = 0;
  // Pass 0 is an unmeasured warm-up.
  while (passes < 4 || now_ms() < t_end) {
    const bool measured = passes > 0;
    const bool traced   = opt.trace && passes % 2 == 0 && measured;
    tr.enabled          = traced;
    if (traced) ts.obs.start();
    const int    root = tr.begin("pass", "pass");
    const double t0   = now_ms(), c0 = cpu_ms();
    std::vector<double>         bin;
    std::optional<NWHypergraph> loaded[5];
    const double                text = cpu_of([&] {
      biedgelist<> el;
      timed(tr, "io.parse_ms", "io", [&] { el = graph_reader(mtx); });
      timed(tr, "core.build_ms", "core", [&] { loaded[0].emplace(std::move(el)); });
    });
    auto load = [&](int slot, const char* span_name, auto&& reader) {
      bin.push_back(cpu_of([&] {
        csr_snapshot snap;
        timed(tr, span_name, "io", [&] { snap = reader(); });
        timed(tr, "core.build_ms", "core", [&] { loaded[slot].emplace(std::move(snap)); });
      }));
    };
    load(1, "io.read_ms", [&] { return streamed(plain); });
    load(2, "io.mmap_ms", [&] { return load_csr_snapshot(plain); });
    load(3, "io.read_z_ms", [&] { return streamed(z); });
    load(4, "io.shard_ms", [&] { return streamed(shard); });
    bin.push_back(cpu_timed(tr, "io.write_ms", "io", [&] { loaded[2]->save_csr_snapshot(out_plain); }));
    bin.push_back(cpu_timed(tr, "io.write_ms", "io",
                            [&] { loaded[2]->save_csr_snapshot(out_z, csr_compress_options{}); }));
    const double cpu  = cpu_ms() - c0;
    const double wall = now_ms() - t0;
    tr.end();
    tr.enabled = false;
    if (traced) {
      ts.obs.stop();
      ts.add_pass(tr, root);
    } else if (measured) {
      ts.untraced_ms.push_back(wall);
      pass_ms.push_back(cpu);
      pass_wall_ms.push_back(wall);
      binary_ms.insert(binary_ms.end(), bin.begin(), bin.end());
      text_ms.push_back(text);
    }
    static const char* const names[5] = {"MatrixMarket", "streamed", "mmap", "compressed", "sharded"};
    for (int i = 0; i < 5; ++i) {
      r.check(csr_digest(*loaded[i]) == want,
              std::string("ingest: ") + names[i] + " load differs from the generated hypergraph");
    }
    const std::uintmax_t sizes[2] = {std::filesystem::file_size(out_plain),
                                     std::filesystem::file_size(out_z)};
    for (int i = 0; i < 2; ++i) {
      if (written[i] == 0) written[i] = sizes[i];
      r.check(sizes[i] == written[i], "ingest: written snapshot size changed between passes");
    }
    ++passes;
  }
  // The snapshots this run wrote load back to the same hypergraph.
  r.check(csr_digest(NWHypergraph(load_csr_snapshot(out_plain))) == want,
          "ingest: written plain snapshot does not load back");
  r.check(csr_digest(NWHypergraph(load_csr_snapshot(out_z))) == want,
          "ingest: written compressed snapshot does not load back");

  r.set("pass_s", median(pass_ms) / 1000.0, "s");
  r.notes["pass_s"] = "CPU time, median of " + std::to_string(pass_ms.size()) + " passes; median wall time " +
                      std::to_string(median(pass_wall_ms) / 1000.0) + " s";
  r.latency("p50_ms", "p99_ms", binary_ms);
  r.latency("p50_ms.high", "p99_ms.high", text_ms);
  r.set("max_qps", 7.0 / (median(pass_ms) / 1000.0), "1/s");
  r.notes["max_qps"] = "closed loop: the pass's 5 loads and 2 writes per CPU second of pass time";
  if (opt.trace) {
    ts.report(r, {"io", "core"});
    report_obs(r, ts.obs, ts.traced_passes);
    const double parse_ms = r.metrics["io.parse_ms"].value;
    r.set("io.parse_MBps",
          parse_ms > 0 ? r.metrics["io.parse_bytes"].value / 1e6 / (parse_ms / 1000.0) : 0.0,
          "MB/s");
  }
  for (const auto& f : {mtx, plain, z, shard, out_plain, out_z}) std::filesystem::remove(f);
  return r;
}

}  // namespace pb
