// perfbench/src/common.hpp — shared scaffolding for the end-to-end
// benchmark: command-line parameters, the span tracer, latency statistics,
// digests and the result record every workload fills in.
//
// The benchmark times the library from the outside: every span is opened
// around a call into a public entry point, never inside src/.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nwhy.hpp"

namespace pb {

using namespace nw::hypergraph;
using nw::vertex_id_t;
using clock = std::chrono::steady_clock;

/// Library pool threads.  One: a parallel pass on a shared host waits for
/// whichever vCPU the hypervisor takes away, and two sets of 4-thread runs
/// of the same code spread by up to 0.28 of their median.  On one thread the
/// pass's process CPU time (cpu_ms) excludes stolen time and equals its wall
/// time on an idle host, so the compute workloads report that.
constexpr unsigned k_threads = 1;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t k_setup_reps = 7;
/// serve-mixed: dispatcher workers and generator connections.  With the
/// connection's reader thread that keeps 3 busy server threads within nproc.
constexpr unsigned    k_serve_workers     = 2;
constexpr std::size_t k_serve_connections = 1;

/// Milliseconds since the first call (one epoch for every span and sample).
inline double now_ms() {
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::milli>(clock::now() - epoch).count();
}

/// Command-line options.  Workload sizes, rates and limits arrive as
/// `--set key=value` pairs from perfbench/workloads.json, so the numbers
/// live in one file; a missing key is a hard error, never a default.
struct options {
  std::string                        workload;
  std::uint64_t                      seed    = 0;
  double                             seconds = 0;
  bool                               trace   = false;
  std::string                        workdir;
  std::string                        git_rev = "unknown";
  std::map<std::string, std::string> params;

  [[nodiscard]] double num(const std::string& key) const {
    auto it = params.find(key);
    if (it == params.end()) throw std::invalid_argument("missing parameter --set " + key);
    return std::stod(it->second);
  }
  [[nodiscard]] std::size_t size(const std::string& key) const {
    return static_cast<std::size_t>(num(key));
  }
  /// Comma-separated list of numbers.
  [[nodiscard]] std::vector<double> list(const std::string& key) const {
    auto it = params.find(key);
    if (it == params.end()) throw std::invalid_argument("missing parameter --set " + key);
    std::vector<double> out;
    std::size_t         pos = 0;
    const std::string&  s   = it->second;
    while (pos <= s.size()) {
      std::size_t next = s.find(',', pos);
      if (next == std::string::npos) next = s.size();
      if (next > pos) out.push_back(std::stod(s.substr(pos, next - pos)));
      pos = next + 1;
    }
    return out;
  }
  [[nodiscard]] std::filesystem::path path(const std::string& name) const {
    return std::filesystem::path(workdir) / name;
  }
};

// --- tracing ---------------------------------------------------------------

/// One timed call: name (the per-layer metric it feeds), layer, interval,
/// parent span and request id (shared by every span of one serve request).
struct span {
  std::string   name;
  std::string   layer;
  double        start_ms = 0;
  double        end_ms   = 0;
  int           parent   = -1;
  std::uint64_t request  = 0;
};

/// In-memory span recorder.  Disabled, it records nothing and costs one
/// branch per call; spans are written out once, at exit.
class tracer {
public:
  bool              enabled = false;
  std::vector<span> spans;

  int begin(std::string name, std::string layer, std::uint64_t request = 0) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({std::move(name), std::move(layer), now_ms(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void end() {
    if (!enabled) return;
    spans[static_cast<std::size_t>(stack_.back())].end_ms = now_ms();
    stack_.pop_back();
  }

  /// Per-layer self time of the subtree under span `root`: each span's
  /// duration minus the part its direct children cover.  The root's own
  /// self time is returned under "unattributed", so the values sum to the
  /// root's duration exactly.  Also sums each span name's total duration.
  void attribute(int root, std::map<std::string, double>& self_by_layer,
                 std::map<std::string, double>& total_by_name) const {
    std::vector<double> child_ms(spans.size() - static_cast<std::size_t>(root), 0.0);
    const std::size_t   base = static_cast<std::size_t>(root);
    for (std::size_t i = base + 1; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.parent >= root) child_ms[static_cast<std::size_t>(s.parent) - base] += s.end_ms - s.start_ms;
    }
    for (std::size_t i = base; i < spans.size(); ++i) {
      const auto&  s    = spans[i];
      const double dur  = s.end_ms - s.start_ms;
      const double self = dur - child_ms[i - base];
      if (i == base) {
        self_by_layer["unattributed"] += self;
      } else {
        self_by_layer[s.layer] += self;
        total_by_name[s.name] += dur;
      }
    }
  }

  bool write(const std::filesystem::path& file) const {
    FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      std::fprintf(f,
                   "%s\n {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f, \"parent\": %d, \"request\": %llu}",
                   i ? "," : "", i, s.name.c_str(), s.layer.c_str(), s.start_ms, s.end_ms,
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
  }

private:
  std::vector<int> stack_;
};

/// RAII span around one call.
class scoped_span {
public:
  scoped_span(tracer& t, std::string name, std::string layer, std::uint64_t request = 0)
      : t_(t) {
    t_.begin(std::move(name), std::move(layer), request);
  }
  ~scoped_span() { t_.end(); }
  scoped_span(const scoped_span&)            = delete;
  scoped_span& operator=(const scoped_span&) = delete;

private:
  tracer& t_;
};

/// CPU time of this process in milliseconds, summed over its threads.  With
/// CONFIG_PARAVIRT_TIME_ACCOUNTING the kernel leaves out time the hypervisor
/// stole, and time spent waiting for the CPU is never counted.
inline double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Wall time of `fn` in milliseconds, recorded as a span when tracing.
template <class F>
double timed(tracer& t, const char* name, const char* layer, F&& fn, std::uint64_t request = 0) {
  scoped_span  s(t, name, layer, request);
  const double t0 = now_ms();
  fn();
  return now_ms() - t0;
}

/// CPU time of `fn` in milliseconds (cpu_ms), recorded as a span of its
/// wall time when tracing.
template <class F>
double cpu_timed(tracer& t, const char* name, const char* layer, F&& fn) {
  scoped_span  s(t, name, layer);
  const double c0 = cpu_ms();
  fn();
  return cpu_ms() - c0;
}

/// CPU time of `fn` in milliseconds, never a span.
template <class F>
double cpu_of(F&& fn) {
  const double c0 = cpu_ms();
  fn();
  return cpu_ms() - c0;
}

// --- statistics ------------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto   lo  = static_cast<std::size_t>(std::floor(pos));
  const auto   hi  = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  double acc = 0;
  for (double x : v) acc += x;
  return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

/// The tail quantile reported as "p99": 0.99 when at least ten samples lie
/// beyond it, else the highest quantile that still leaves ten beyond it, but
/// never below the median.  With 20 samples or fewer that is the median:
/// such a "p99" is no tail, and the note on the metric says so.
inline double tail_q(std::size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

/// CPU time the hypervisor took from this machine's virtual CPUs while they
/// had work (the "steal" column of /proc/stat), in clock ticks summed over
/// CPUs; 0 where the kernel does not report it.
inline std::uint64_t host_steal_ticks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int          got  = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                                        &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// Stolen time per pass, for keeping the passes the host disturbed least.
/// On a virtual machine, serve-mixed's open-loop latencies follow the CPU
/// time the host takes away, including the delay in waking a halted vCPU:
/// block pairs that lost 1-8 ticks had p99 ~4 ms, pairs that lost 20-90
/// ticks 6-22 ms.  So those latencies come from the blocks that lost no
/// more than the median block (at least half; ties keep more).  Where the
/// kernel reports no steal, every block is kept.  A run the host disturbs
/// throughout still reads slow, which is why no latency is gated.
class steal_meter {
public:
  void start() { begin_ = host_steal_ticks(); }
  void stop() { ticks_.push_back(host_steal_ticks() - begin_); }

  /// For each pass, whether it is kept.
  [[nodiscard]] std::vector<bool> keep() const {
    if (ticks_.empty()) return {};
    auto sorted = ticks_;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t cut = sorted[(sorted.size() - 1) / 2];
    std::vector<bool>   out;
    for (auto t : ticks_) out.push_back(t <= cut);
    return out;
  }
  /// Several samples per pass, kept passes only, still grouped by pass.
  [[nodiscard]] std::vector<std::vector<double>> kept_groups(std::vector<std::vector<double>> per_pass) const {
    const auto                       k = keep();
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < per_pass.size(); ++i) {
      if (k[i]) out.push_back(std::move(per_pass[i]));
    }
    return out;
  }
  /// For the notes: ticks per pass, dropped passes marked "x".
  [[nodiscard]] std::string log() const {
    const auto  k = keep();
    std::string out;
    for (std::size_t i = 0; i < ticks_.size(); ++i) {
      out += (i ? " " : "") + std::to_string(ticks_[i]) + (k[i] ? "" : "x");
    }
    return "steal ticks per pass (x = dropped): " + out;
  }

private:
  std::uint64_t              begin_ = 0;
  std::vector<std::uint64_t> ticks_;
};

inline double peak_rss_mb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The Friendster-sim shape of gen/dataset_suite.hpp: |V| = 5|E|, Zipf(1.2)
/// hyperedge sizes up to 128, Zipf(0.8) node popularity.  One change from
/// gen::powerlaw_hypergraph: the sizes are the Zipf quantiles at
/// (i + 0.5) / |E|, shuffled, not independent draws.  The few largest
/// hyperedges set the s-line build cost, and with independent draws their
/// count swung that cost by 10% from seed to seed; membership, order and
/// which nodes are popular still come from the seed.
inline biedgelist<> friendster_shape(std::size_t edges, std::uint64_t seed) {
  const std::size_t nodes = 5 * edges;
  auto cdf = [](std::size_t n, double alpha) {
    std::vector<double> c(n);
    double              total = 0;
    for (std::size_t i = 0; i < n; ++i) c[i] = total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    for (auto& x : c) x /= total;
    return c;
  };
  const auto size_cdf = cdf(128, 1.2);
  const auto node_cdf = cdf(nodes, 0.8);
  auto draw = [](const std::vector<double>& c, double u) {
    return static_cast<std::size_t>(std::lower_bound(c.begin(), c.end(), u) - c.begin());
  };
  nw::xoshiro256ss         rng(seed);
  std::vector<std::size_t> sizes(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    sizes[e] = draw(size_cdf, (static_cast<double>(e) + 0.5) / static_cast<double>(edges)) + 1;
  }
  for (std::size_t i = edges; i > 1; --i) std::swap(sizes[i - 1], sizes[rng.bounded(i)]);
  std::vector<vertex_id_t> node_map(nodes);
  for (std::size_t v = 0; v < nodes; ++v) node_map[v] = static_cast<vertex_id_t>(v);
  for (std::size_t i = nodes; i > 1; --i) std::swap(node_map[i - 1], node_map[rng.bounded(i)]);
  biedgelist<> el(edges, nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    for (std::size_t k = 0; k < sizes[e]; ++k) {
      el.push_back(static_cast<vertex_id_t>(e), node_map[draw(node_cdf, rng.uniform())]);
    }
  }
  el.sort_and_unique();
  return el;
}

// --- digests ---------------------------------------------------------------

struct digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  template <class Range>
  void add_all(const Range& r) {
    for (auto v : r) add(static_cast<std::uint64_t>(v));
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof d);
    add(bits);
  }
};

/// Component labels relabeled by first occurrence, so two engines with
/// different label conventions digest equal when their partitions agree.
inline std::vector<vertex_id_t> canonical_partition(std::span<const vertex_id_t> labels) {
  std::map<vertex_id_t, vertex_id_t> first;
  std::vector<vertex_id_t>           out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == nw::null_vertex<>) {
      out[i] = nw::null_vertex<>;
      continue;
    }
    auto [it, fresh] = first.try_emplace(labels[i], static_cast<vertex_id_t>(first.size()));
    out[i]           = it->second;
  }
  return out;
}

/// Digest of the E2N CSR rows of a hypergraph plus its incidence count.
inline std::uint64_t csr_digest(const NWHypergraph& h) {
  digest d;
  d.add(h.num_hyperedges());
  d.add(h.num_hypernodes());
  d.add(h.num_incidences());
  for (std::size_t e = 0; e < h.num_hyperedges(); ++e) {
    d.add(0xfffffffffull);
    d.add_all(h.edge_members(static_cast<vertex_id_t>(e)));
  }
  return d.h;
}

// --- results ---------------------------------------------------------------

struct metric {
  double      value = 0;
  std::string unit;
};

/// What one workload run reports.  `attempted` counts operations (library
/// calls, requests, queries); `failed` counts those that threw, were
/// refused or returned a wrong answer.
struct result {
  std::uint64_t                 attempted = 0;
  std::uint64_t                 failed    = 0;
  std::vector<std::string>      check_failures;  ///< first few, for the log
  std::map<std::string, metric> metrics;
  /// Sample count and quantile behind each latency metric, and similar
  /// facts a reader needs to interpret the numbers.
  std::map<std::string, std::string> notes;
  /// Input sizes for the run-context block.
  std::map<std::string, std::uint64_t> sizes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record one checked operation; false marks it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (check_failures.size() < 8) check_failures.push_back(what);
    }
  }
  /// Median and tail of a latency sample under `prefix` (p50_ms / p99_ms
  /// style names), with the sample count noted.
  void latency(const std::string& p50, const std::string& p99, const std::vector<double>& ms) {
    const double q = tail_q(ms.size());
    set(p50, median(ms), "ms");
    set(p99, quantile(ms, q), "ms");
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  q < 0.99 ? "n=%zu, too few samples for a 0.99 tail: the %.4f quantile"
                           : "n=%zu, tail quantile=%.4f",
                  ms.size(), q);
    notes[p99] = buf;
    notes[p50] = "n=" + std::to_string(ms.size());
  }
  /// As latency(), for open-loop samples in arrival order, in blocks taken
  /// at different times.  p50 is the median of all samples.  The tail is
  /// the 0.99 quantile of each consecutive slice of `slice` samples (a
  /// shorter block is one slice), and the median of those is reported: the
  /// p99 a typical stretch of `slice` requests sees.  Host stalls that hit
  /// fewer than half of the slices do not move it.
  void latency_sliced(const std::string& p50, const std::string& p99,
                      const std::vector<std::vector<double>>& blocks, std::size_t slice) {
    std::vector<double> all, tails;
    for (const auto& b : blocks) {
      all.insert(all.end(), b.begin(), b.end());
      const std::size_t k = std::max<std::size_t>(1, b.size() / slice);
      const std::size_t per = b.size() / k;
      for (std::size_t i = 0; i < k && per > 0; ++i) {
        tails.push_back(quantile(std::vector<double>(b.begin() + static_cast<std::ptrdiff_t>(i * per),
                                                     b.begin() + static_cast<std::ptrdiff_t>((i + 1) * per)),
                                 0.99));
      }
    }
    set(p50, median(all), "ms");
    set(p99, median(tails), "ms");
    char buf[160];
    std::snprintf(buf, sizeof buf, "n=%zu; median over %zu slices of about %zu requests of each one's 0.99 quantile",
                  all.size(), tails.size(), tails.empty() ? 0 : all.size() / tails.size());
    notes[p99] = buf;
    notes[p50] = "n=" + std::to_string(all.size());
  }
};

/// Counter and timer deltas of the nwobs registry across a region.
struct obs_delta {
  std::map<std::string, std::uint64_t>        c0;
  std::map<std::string, nw::obs::timer_stat>  t0;
  std::map<std::string, double>               counters;  ///< accumulated deltas
  std::map<std::string, double>               timer_ms;  ///< accumulated deltas

  void start() {
    c0 = nw::obs::registry::get().counters_snapshot();
    t0 = nw::obs::registry::get().timers_snapshot();
  }
  void stop() {
    for (const auto& [k, v] : nw::obs::registry::get().counters_snapshot()) {
      auto it = c0.find(k);
      counters[k] += static_cast<double>(v) - (it == c0.end() ? 0.0 : static_cast<double>(it->second));
    }
    for (const auto& [k, v] : nw::obs::registry::get().timers_snapshot()) {
      auto it = t0.find(k);
      timer_ms[k] += v.total_ms - (it == t0.end() ? 0.0 : it->second.total_ms);
    }
  }
  [[nodiscard]] double counter(const std::string& k) const {
    auto it = counters.find(k);
    return it == counters.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double timer(const std::string& k) const {
    auto it = timer_ms.find(k);
    return it == timer_ms.end() ? 0.0 : it->second;
  }
};

/// Traced-pass bookkeeping shared by the workloads: per-pass span
/// attribution, nwobs deltas, and the traced/untraced pass times behind
/// trace.overhead.
struct trace_summary {
  std::size_t                   traced_passes = 0;
  std::vector<double>           traced_ms, untraced_ms;
  std::map<std::string, double> self_ms;   ///< layer -> summed self time
  std::map<std::string, double> total_ms;  ///< span name -> summed duration
  obs_delta                     obs;

  /// Attribute one traced pass; its wall time is the root span's duration.
  void add_pass(const tracer& t, int root) {
    const auto& r = t.spans[static_cast<std::size_t>(root)];
    ++traced_passes;
    traced_ms.push_back(r.end_ms - r.start_ms);
    t.attribute(root, self_ms, total_ms);
  }

  /// Emit the attribution metrics: per-layer self time, unattributed time
  /// and the traced pass wall time (means over traced passes, so the self
  /// times sum to the pass time exactly), each span name's time per pass,
  /// and the traced/untraced overhead ratio.
  void report(result& r, const std::vector<std::string>& layers) const {
    const double n   = std::max<double>(1.0, static_cast<double>(traced_passes));
    double       sum = 0;
    for (const auto& layer : layers) {
      auto         it = self_ms.find(layer);
      const double v  = it == self_ms.end() ? 0.0 : it->second / n;
      r.set("self_ms." + layer, v, "ms");
      sum += v;
    }
    auto         un    = self_ms.find("unattributed");
    const double unatt = un == self_ms.end() ? 0.0 : un->second / n;
    r.set("unattributed_ms", unatt, "ms");
    r.set("trace.pass_ms", mean(traced_ms), "ms");
    char buf[160];
    std::snprintf(buf, sizeof buf, "self_ms.* + unattributed_ms = %.6f ms; %zu traced passes",
                  sum + unatt, traced_passes);
    r.notes["trace.pass_ms"] = buf;
    for (const auto& [name, ms] : total_ms) r.set(name, ms / n, "ms");
    const double base = median(untraced_ms);
    r.set("trace.overhead", base > 0 ? median(traced_ms) / base : 0.0, "ratio");
  }
};

/// The nwobs counters and timers that feed per-layer metrics, per pass.
inline void report_obs(result& r, const obs_delta& d, std::size_t passes) {
  const double n = std::max<double>(1.0, static_cast<double>(passes));
  for (const char* k : {"io.parse_bytes", "io.snapshot_bytes_read", "io.snapshot_bytes_written",
                        "io.mapped_bytes"}) {
    r.set(k, d.counter(k) / n, "bytes");
  }
  for (const char* k : {"slinegraph.candidate_pairs", "slinegraph.pairs_emitted",
                        "slinegraph.hashmap_probes", "hyper_bfs.edges_relaxed",
                        "hyper_bfs.direction_switches", "toplex.dominance_checks",
                        "betweenness.edges_relaxed", "graph_bfs.edges_relaxed"}) {
    r.set(k, d.counter(k) / n, "count");
  }
  const double cand = d.counter("slinegraph.candidate_pairs");
  r.set("slinegraph.yield", cand > 0 ? d.counter("slinegraph.pairs_emitted") / cand : 0.0, "ratio");
  const double checks  = d.counter("toplex.dominance_checks");
  const double skipped = d.counter("toplex.dominance_checks_skipped");
  r.set("toplex.skip_ratio", checks + skipped > 0 ? skipped / (checks + skipped) : 0.0, "ratio");
  r.set("frontier.densify_ms", d.timer("frontier.densify") / n, "ms");
  r.set("frontier.sparsify_ms", d.timer("frontier.sparsify") / n, "ms");
}

/// Every workload's entry point.
using workload_fn = result (*)(const options&, tracer&);

result run_pipeline(const options& opt, tracer& tr);
result run_ingest(const options& opt, tracer& tr);
result run_serve(const options& opt, tracer& tr);
result run_churn(const options& opt, tracer& tr);

/// Set-up repeated k_setup_reps times; setup_s is the median of their CPU
/// times (cpu_ms), since set-up is single-threaded work plus, for
/// serve-mixed, starting the server.  Returns the last set-up's product.
template <class F>
auto repeated_setup(result& r, F&& fn) {
  std::vector<double> secs, wall;
  for (std::size_t i = 0; i + 1 < k_setup_reps; ++i) {
    const double t0 = now_ms(), c0 = cpu_ms();
    (void)fn();
    secs.push_back((cpu_ms() - c0) / 1000.0);
    wall.push_back((now_ms() - t0) / 1000.0);
  }
  const double t0 = now_ms(), c0 = cpu_ms();
  auto         last = fn();
  secs.push_back((cpu_ms() - c0) / 1000.0);
  wall.push_back((now_ms() - t0) / 1000.0);
  r.set("setup_s", median(secs), "s");
  char buf[128];
  std::snprintf(buf, sizeof buf, "CPU time, median of %zu set-ups; median wall time %.6f s", secs.size(),
                median(wall));
  r.notes["setup_s"] = buf;
  return last;
}

}  // namespace pb
