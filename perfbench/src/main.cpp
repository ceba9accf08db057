// perfbench/src/main.cpp — entry point of the end-to-end benchmark binary.
//
//   nwhy_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--git-rev <rev>] [--set key=value]...
//
// Prints two JSON lines on stdout: the run context, then the raw result
// (metrics with units, check outcome, notes).  perfbench/run.py turns them
// into the benchmark's report.  A traced run also writes its spans and the
// nwobs registry into the work directory.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace {

using namespace pb;

#ifndef NWHY_PERFBENCH_BUILD_TYPE
#define NWHY_PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string esc(const std::string& s) { return nw::obs::json_escape(s); }

std::string simd_path() {
#if defined(NWHY_SIMD_SSSE3)
  return nw::hypergraph::svb::simd_runtime_enabled() ? "ssse3" : "scalar (NWHY_SIMD=0)";
#elif defined(NWHY_SIMD_NEON)
  return nw::hypergraph::svb::simd_runtime_enabled() ? "neon" : "scalar (NWHY_SIMD=0)";
#else
  return "scalar";
#endif
}

std::string context_json(const options& opt, const result& r, unsigned threads) {
  std::string out = "{\"run_context\": {";
  out += "\"git_rev\": \"" + esc(opt.git_rev) + "\", ";
  out += "\"build_type\": \"" NWHY_PERFBENCH_BUILD_TYPE "\", ";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ", ";
  out += "\"library_threads\": " + std::to_string(threads) + ", ";
  if (opt.workload == "serve-mixed") {
    out += "\"serve_workers\": " + std::to_string(k_serve_workers) + ", ";
    out += "\"serve_connections\": " + std::to_string(k_serve_connections) + ", ";
  }
  out += "\"simd_path\": \"" + simd_path() + "\", ";
  out += "\"workload\": \"" + esc(opt.workload) + "\", ";
  out += "\"seed\": " + std::to_string(opt.seed) + ", ";
  out += "\"seconds\": " + std::to_string(opt.seconds) + ", ";
  out += "\"trace\": " + std::string(opt.trace ? "true" : "false") + ", ";
  out += "\"env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NWHY_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    out += std::string(first ? "" : ", ") + "\"" + esc(std::string(*e, static_cast<std::size_t>(eq - *e))) + "\": \"" + esc(eq + 1) + "\"";
    first = false;
  }
  out += "}, \"inputs\": {";
  first = true;
  for (const auto& [k, v] : r.sizes) {
    out += std::string(first ? "" : ", ") + "\"" + k + "\": " + std::to_string(v);
    first = false;
  }
  out += "}, \"params\": {";
  first = true;
  for (const auto& [k, v] : opt.params) {
    out += std::string(first ? "" : ", ") + "\"" + esc(k) + "\": \"" + esc(v) + "\"";
    first = false;
  }
  return out + "}}}";
}

std::string result_json(const result& r) {
  char        buf[64];
  std::string out = "{\"result\": {\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) + ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += std::string(first ? "" : ", ") + "\"" + esc(k) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + esc(m.unit) + "\"}";
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [k, v] : r.notes) {
    out += std::string(first ? "" : ", ") + "\"" + esc(k) + "\": \"" + esc(v) + "\"";
    first = false;
  }
  out += "}, \"check_failures\": [";
  first = true;
  for (const auto& f : r.check_failures) {
    out += std::string(first ? "" : ", ") + "\"" + esc(f) + "\"";
    first = false;
  }
  return out + "]}}";
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--git-rev") {
      opt.git_rev = v;
    } else if (a == "--set") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--set wants key=value");
      opt.params[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || opt.seconds <= 0) {
    throw std::invalid_argument("--workload, --workdir and a positive --seconds are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(NWHY_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "nwhy_perfbench: refusing a %s build; timings need Release\n",
                 NWHY_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    (void)now_ms();  // fix the span epoch
    const options opt = parse(argc, argv);
    std::filesystem::create_directories(opt.workdir);
    const unsigned threads = std::min<unsigned>(std::max(1u, std::thread::hardware_concurrency()),
                                                k_threads);
    nw::par::thread_pool::set_default_concurrency(threads);

    const std::map<std::string, workload_fn> workloads = {{"analytics-pipeline", &run_pipeline},
                                                          {"ingest-formats", &run_ingest},
                                                          {"serve-mixed", &run_serve},
                                                          {"dynamic-churn", &run_churn}};
    auto it = workloads.find(opt.workload);
    if (it == workloads.end()) throw std::invalid_argument("unknown workload " + opt.workload);

    tracer tr;
    result r = it->second(opt, tr);
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (opt.trace) {
      const auto spans   = opt.path("trace_spans.json");
      const auto profile = opt.path("nwobs_profile.json");
      if (!tr.write(spans) || !nw::obs::write_profile(profile.string())) {
        throw std::runtime_error("cannot write the trace into " + opt.workdir);
      }
      r.notes["trace_files"] = spans.string() + ", " + profile.string();
    }
    std::cout << context_json(opt, r, threads) << "\n" << result_json(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nwhy_perfbench: %s\n", e.what());
    return 1;
  }
}
