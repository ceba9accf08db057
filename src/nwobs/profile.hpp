// nwobs/profile.hpp
//
// JSON serialization of the observability registry.  Schema (pinned by
// tests/test_nwobs.cpp and documented in DESIGN.md):
//
//   {
//     "counters": { "<family>.<metric>": <uint>, ... },   // counters + gauges
//     "timers":   { "<phase>": {"count": n, "total_ms": x, "max_ms": y}, ... },
//     "env":      { "NWHY_NUM_THREADS": "8" | null, ... },
//     "threads":  <default pool concurrency>,
//     "hardware_concurrency": <std::thread::hardware_concurrency()>,
//     "build":    {"type": "Release" | ... | "unspecified", "assertions": "on" | "off",
//                  "revision": "<git commit at configure time>" | "unknown"},
//     "context":  { "simd_decode": "ssse3", ... }   // registry::set_context
//   }
//
// The profile is what makes a perf regression diagnosable from counter
// deltas instead of wall-clock alone: two runs of the same binary on the
// same input should produce identical counters, so a timing change with
// unchanged counters is a machine/codegen effect, while changed counters
// point at the algorithmic phase that diverged.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "nwobs/counters.hpp"
#include "nwpar/thread_pool.hpp"
#include "nwutil/env.hpp"

namespace nw::obs {

/// Escape a string for embedding in a JSON string literal.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace detail {

inline void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

/// Environment knobs recorded in every profile: the ones that change what
/// the process measured.  scripts/check_docs.sh fails when a knob read
/// under src/ or tools/ is missing here.
inline constexpr const char* recorded_env[] = {
    "NWHY_NUM_THREADS",        "NWHY_OBS",                 "NWHY_BENCH_SCALE",
    "NWHY_BENCH_REPS",         "NWHY_BENCH_THREADS",       "NWHY_BENCH_PROFILE",
    "NWHY_BFS_ALPHA",          "NWHY_BFS_BETA",            "NWHY_COMPACT_THRESHOLD",
    "NWHY_DELTA_RESERVE",      "NWHY_SIMD",                "NWHY_MADVISE",
    "NWHY_SERVE_THREADS",      "NWHY_SERVE_QUEUE",         "NWHY_SERVE_DEADLINE_MS",
    "NWHY_BETWEENNESS_BATCH",  "NWHY_BETWEENNESS_SAMPLES", "NWHY_SHARD_TARGET_BYTES",
};

/// CMAKE_BUILD_TYPE, passed in by the root CMakeLists.txt.
#if defined(NWHY_BUILD_TYPE)
inline constexpr const char* build_type = NWHY_BUILD_TYPE;
#else
inline constexpr const char* build_type = "unspecified";
#endif
/// The commit the root CMakeLists.txt was configured at.
#if defined(NWHY_GIT_REVISION)
inline constexpr const char* git_revision = NWHY_GIT_REVISION;
#else
inline constexpr const char* git_revision = "unknown";
#endif
#ifdef NDEBUG
inline constexpr const char* assertions = "off";
#else
inline constexpr const char* assertions = "on";
#endif

}  // namespace detail

/// Serialize the full registry (counters+gauges, timers, env, threads) and
/// what shaped the measurement (hardware, build, registered context).
inline std::string profile_json() {
  const registry& reg = registry::get();
  std::string     out;
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : reg.counters_snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"timers\": {";
  first = true;
  for (const auto& [name, t] : reg.timers_snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " + std::to_string(t.count) +
           ", \"total_ms\": ";
    detail::append_number(out, t.total_ms);
    out += ", \"max_ms\": ";
    detail::append_number(out, t.max_ms);
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"env\": {";
  first = true;
  for (const char* name : detail::recorded_env) {
    out += first ? "\n" : ",\n";
    first = false;
    // Appended piecewise: a temporary operator+ chain here trips GCC 12's
    // -Wrestrict false positive at -O3.
    const char* v = std::getenv(name);
    out.append("    \"").append(name).append("\": ");
    if (v) {
      out.append("\"").append(json_escape(v)).append("\"");
    } else {
      out.append("null");
    }
  }
  out += "\n  },\n";
  out.append("  \"threads\": ")
      .append(std::to_string(nw::par::thread_pool::default_pool().concurrency()))
      .append(",\n  \"hardware_concurrency\": ")
      .append(std::to_string(std::thread::hardware_concurrency()))
      .append(",\n  \"build\": {\"type\": \"")
      .append(json_escape(detail::build_type))
      .append("\", \"assertions\": \"")
      .append(detail::assertions)
      .append("\", \"revision\": \"")
      .append(json_escape(detail::git_revision))
      .append("\"},\n");
  out += "  \"context\": {";
  first = true;
  for (const auto& [name, v] : reg.context_snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out.append("    \"").append(json_escape(name)).append("\": \"");
    out.append(json_escape(v)).append("\"");
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

/// Write the profile to `path`.  Returns false (and prints to stderr) on
/// I/O failure; never throws — callers are CLI tools and atexit hooks.
inline bool write_profile(const std::string& path) {
  std::ofstream f(path);
  if (!f.is_open()) {
    std::fprintf(stderr, "nwobs: cannot open profile output '%s'\n", path.c_str());
    return false;
  }
  f << profile_json();
  return f.good();
}

/// Zero every counter/gauge and drop timer aggregates.
inline void reset_profile() { registry::get().reset(); }

/// Runtime enable check for *export* sites (the instrumentation itself is
/// compile-time gated): NWHY_OBS=0 in the environment suppresses profile
/// dumping without a rebuild.  Strict parse: a garbage value warns once and
/// keeps profiles enabled (the default), instead of being read as "on"
/// silently.
inline bool runtime_enabled() { return nw::util::env_u64_strict("NWHY_OBS", 1) != 0; }

}  // namespace nw::obs
