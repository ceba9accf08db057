#!/usr/bin/env bash
# scripts/bench_snapshot.sh — freeze machine-readable performance baselines:
# the s-line-graph materialization pipeline into BENCH_slinegraph.json, the
# traversal engines into BENCH_traversal.json, and the I/O load paths into
# BENCH_io.json.
#
# BENCH_slinegraph.json merges two sections:
#   construction — bench_fig9_slinegraph in NWHY_BENCH_JSON mode: one record
#                  per dataset x algorithm x s x thread-count with the
#                  median-of-reps wall time and the number of line-graph
#                  pairs emitted (the hashmap_csr rows exercise the direct
#                  per-thread-buffers -> CSR pipeline)
#   micro        — bench_micro's materialization kernels
#                  (BM_MergeThreadVectors, BM_EdgeListFromBuffers,
#                  BM_CsrFromBuffers, BM_CsrLegacyRoundtrip), whose /N
#                  argument is the thread count, showing merge + build
#                  scaling
#
# BENCH_traversal.json merges three sections:
#   bfs   — bench_fig8_bfs in NWHY_BENCH_JSON mode: dataset x algorithm
#           (HyperBFS / HyperBFS-relabel / AdjoinBFS / HygraBFS) x threads,
#           median ms and hyperedges reached — HyperBFS vs HyperBFS-relabel
#           is the relabel-on/off locality comparison this file freezes
#   cc    — bench_fig7_cc in NWHY_BENCH_JSON mode: dataset x algorithm
#           (HyperCC / AdjoinCC-Aff / HygraCC) x threads, median ms and
#           component count (records frozen before HyperCC moved onto the
#           adjoin view also carry an AdjoinCC-LP series, the same kernel)
#   micro — bench_micro's frontier kernels (BM_FrontierDenseToSparseSerial,
#           BM_FrontierDenseToSparse, BM_FrontierSparseToDense,
#           BM_FrontierScoutCount); /N is the thread count, so the sweep
#           shows where the parallel conversions cross the serial scan
#
# BENCH_io.json has one section:
#   io — bench_io in NWHY_BENCH_JSON mode: one record per load operation x
#        thread-count (parse-mm swept over NWHY_BENCH_THREADS; read-bin /
#        read-nwcsr / mmap-nwcsr plus the sharded read-nwcsr-sharded /
#        mmap-nwcsr-sharded / bfs-sharded variants serial) with the median
#        wall time, incidence count, on-disk bytes, and peak_rss_kb — plus
#        the bfs-sharded-ooc gate record, whose bytes field is the resident
#        dataset size an in-core run would need and whose peak_rss_kb is the
#        measured child RSS (the >RAM bound this file freezes, alongside the
#        mmap-vs-parse ratio)
#
# BENCH_dynamic.json has one section:
#   dynamic — bench_dynamic in NWHY_BENCH_JSON mode: one record per operation
#             x batch size x thread-count (update/slinegraph/toplex paths,
#             each as -incremental vs -rebuild, plus the compact fold) — the
#             incremental-vs-rebuild ratio at small batches is the headline
#             this file freezes
#
# BENCH_serve.json has one section:
#   serve — bench_serve in NWHY_BENCH_JSON mode: one record per operation x
#           client-count from a closed-loop multi-client load generator
#           against an in-process nwhy_serve server (Unix socket), with
#           client-observed p50/p99 latency, aggregate QPS, worker count,
#           and peak_rss_kb — the protocol-overhead (ping/stats) and
#           query-serving (neighbors/bfs/mixed) throughputs this file
#           freezes
#
# BENCH_analytics.json merges two sections:
#   betweenness — bench_betweenness in NWHY_BENCH_JSON mode: one record per
#                 operation (betweenness-exact / betweenness-sampled) x
#                 thread-count on a generated s=2 line graph, with the
#                 sample count and peak_rss_kb — the exact-vs-sampled cost
#                 gap this file freezes
#   motif       — bench_motif in NWHY_BENCH_JSON mode: one motif-census
#                 record per thread-count with the wedge count, showing the
#                 per-wedge parallel_for scaling
#
# Usage: scripts/bench_snapshot.sh [--allow-debug] [build-dir] [slinegraph.json] [traversal.json] [io.json] [dynamic.json] [serve.json] [analytics.json]
#   defaults: build BENCH_slinegraph.json BENCH_traversal.json BENCH_io.json BENCH_dynamic.json BENCH_serve.json BENCH_analytics.json
#
# A non-Release build dir is refused unless --allow-debug is given: numbers
# from -O0/-g builds have silently polluted checked-in baselines before.
# The context block stamped into every JSON derives num_cpus and
# library_build_type from one build probe (nproc + the CMake cache), never
# from google-benchmark's self-report: gbench describes libbenchmark.so, not
# our binaries, and a debug system libbenchmark once stamped
# "library_build_type": "debug" into Release baselines.  The self-report is
# kept as gbench_library_build_type for transparency, and the merge step
# refuses outright if the stamped library/cmake build types disagree
# debug-vs-Release.  Every harness record also carries peak_rss_kb
# (getrusage ru_maxrss); micro records, which don't pass through our
# harnesses, carry null there.
#
# Knobs (defaults chosen so a snapshot completes in minutes on a laptop):
#   NWHY_BENCH_THREADS   thread counts for the sweeps (1,2,4)
#   NWHY_BENCH_SVALUES   s values for the construction sweep (2,8)
#   NWHY_BENCH_REPS      repetitions, median reported (3)
#   NWHY_BENCH_DATASETS  dataset subset (Friendster-sim,Rand1-sim); set to
#                        "" to sweep the full Table-I suite
set -euo pipefail
cd "$(dirname "$0")/.."
ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi
BUILD=${1:-build}
OUT=${2:-BENCH_slinegraph.json}
OUT_TRAVERSAL=${3:-BENCH_traversal.json}
OUT_IO=${4:-BENCH_io.json}
OUT_DYNAMIC=${5:-BENCH_dynamic.json}
OUT_SERVE=${6:-BENCH_serve.json}
OUT_ANALYTICS=${7:-BENCH_analytics.json}

# Refuse to freeze baselines from anything but a Release build unless the
# caller explicitly opted in.  The build type comes from the CMake cache, so
# it reflects what the binaries in $BUILD were actually compiled as.
BUILD_TYPE=unknown
if [[ -f "$BUILD/CMakeCache.txt" ]]; then
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")
  BUILD_TYPE=${BUILD_TYPE:-unknown}
fi
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != 1 ]]; then
  echo "bench_snapshot.sh: refusing to snapshot from a '$BUILD_TYPE' build" >&2
  echo "  ($BUILD/CMakeCache.txt says CMAKE_BUILD_TYPE=$BUILD_TYPE; baselines" >&2
  echo "  must come from Release binaries — pass --allow-debug to override)" >&2
  exit 1
fi
NUM_CPUS=$(nproc)
echo "bench_snapshot.sh: build type $BUILD_TYPE, $NUM_CPUS CPUs"
# The one build probe the context block derives from: both values travel to
# the python merge step through the environment so there is no second source
# of truth to drift from.
export NWHY_BENCH_BUILD_TYPE="$BUILD_TYPE"
export NWHY_BENCH_NUM_CPUS="$NUM_CPUS"

export NWHY_BENCH_THREADS="${NWHY_BENCH_THREADS:-1,2,4}"
export NWHY_BENCH_SVALUES="${NWHY_BENCH_SVALUES:-2,8}"
export NWHY_BENCH_REPS="${NWHY_BENCH_REPS:-3}"
export NWHY_BENCH_DATASETS="${NWHY_BENCH_DATASETS-Friendster-sim,Rand1-sim}"

cmake --build "$BUILD" --target bench_fig9_slinegraph bench_fig8_bfs bench_fig7_cc bench_micro \
  bench_io bench_dynamic bench_serve bench_betweenness bench_motif -j "$(nproc)"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

NWHY_BENCH_JSON="$TMP/construction.json" "$BUILD/bench/bench_fig9_slinegraph"
NWHY_BENCH_JSON="$TMP/bfs.json" "$BUILD/bench/bench_fig8_bfs"
NWHY_BENCH_JSON="$TMP/cc.json" "$BUILD/bench/bench_fig7_cc"
NWHY_BENCH_JSON="$TMP/io.json" "$BUILD/bench/bench_io"
NWHY_BENCH_JSON="$TMP/dynamic.json" "$BUILD/bench/bench_dynamic"
NWHY_BENCH_JSON="$TMP/serve.json" "$BUILD/bench/bench_serve"
NWHY_BENCH_JSON="$TMP/betweenness.json" "$BUILD/bench/bench_betweenness"
NWHY_BENCH_JSON="$TMP/motif.json" "$BUILD/bench/bench_motif"

"$BUILD/bench/bench_micro" \
  --benchmark_filter='BM_MergeThreadVectors|BM_EdgeListFromBuffers|BM_CsrFromBuffers|BM_CsrLegacyRoundtrip|BM_Frontier' \
  --benchmark_out="$TMP/micro.json" --benchmark_out_format=json \
  --benchmark_repetitions="$NWHY_BENCH_REPS" --benchmark_report_aggregates_only=true

python3 - "$TMP" "$OUT" "$OUT_TRAVERSAL" "$OUT_IO" "$OUT_DYNAMIC" "$OUT_SERVE" "$OUT_ANALYTICS" <<'PY'
import json, os, sys

(tmp, out_sline, out_traversal, out_io, out_dynamic, out_serve,
 out_analytics) = (sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4],
                   sys.argv[5], sys.argv[6], sys.argv[7])

construction = json.load(open(os.path.join(tmp, "construction.json")))
bfs = json.load(open(os.path.join(tmp, "bfs.json")))
cc = json.load(open(os.path.join(tmp, "cc.json")))
io_records = json.load(open(os.path.join(tmp, "io.json")))
dynamic_records = json.load(open(os.path.join(tmp, "dynamic.json")))
serve_records = json.load(open(os.path.join(tmp, "serve.json")))
betweenness_records = json.load(open(os.path.join(tmp, "betweenness.json")))
motif_records = json.load(open(os.path.join(tmp, "motif.json")))

gb = json.load(open(os.path.join(tmp, "micro.json")))
micro = []
for b in gb.get("benchmarks", []):
    # With repetitions we keep only the median aggregate.
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
        continue
    name = b["name"].split("/")           # e.g. BM_CsrFromBuffers/4_median
    kernel = name[0]
    # Unparameterized aggregates carry the suffix on the kernel itself
    # (e.g. BM_FrontierDenseToSparseSerial_median).
    agg = b.get("aggregate_name")
    if agg and kernel.endswith("_" + agg):
        kernel = kernel[: -len(agg) - 1]
    threads = int(name[1].split("_")[0]) if len(name) > 1 else 1
    ms = b["real_time"]
    if b.get("time_unit") == "ns":
        ms /= 1e6
    elif b.get("time_unit") == "us":
        ms /= 1e3
    # Micro records never pass through our harnesses' getrusage hook.
    micro.append({"kernel": kernel, "threads": threads, "median_ms": round(ms, 4),
                  "peak_rss_kb": None})

# The context block derives num_cpus and library_build_type from the same
# build probe (the shell wrapper's nproc + CMakeCache read), NOT from
# google-benchmark's context: gbench self-reports libbenchmark.so's own
# build flavor, which on systems with a debug libbenchmark stamped
# "library_build_type": "debug" into Release baselines.  The self-report is
# preserved as gbench_library_build_type so the discrepancy stays visible.
cmake_build_type = os.environ.get("NWHY_BENCH_BUILD_TYPE", "unknown")
context = {
    "date": gb.get("context", {}).get("date"),
    "num_cpus": int(os.environ.get("NWHY_BENCH_NUM_CPUS", os.cpu_count() or 1)),
    "library_build_type": cmake_build_type.lower(),
    "cmake_build_type": cmake_build_type,
    "gbench_library_build_type": gb.get("context", {}).get("library_build_type"),
}
if context["gbench_library_build_type"] not in (None, context["library_build_type"]):
    print("bench_snapshot.sh: note: google-benchmark self-reports a "
          f"'{context['gbench_library_build_type']}' libbenchmark; the stamped "
          f"library_build_type '{context['library_build_type']}' describes our "
          "binaries (CMakeCache probe), not the system library", file=sys.stderr)

# Internal consistency is non-negotiable: both fields come from one probe,
# so the exact mismatch the old merge used to commit — a non-release
# library_build_type next to cmake_build_type "Release" — now means the
# probe plumbing broke (or someone hand-edited the environment).  Refuse
# rather than freeze a baseline whose context contradicts itself.
if context["cmake_build_type"] == "Release" and context["library_build_type"] != "release":
    sys.exit("bench_snapshot.sh: refusing to write baselines — "
             f"library_build_type '{context['library_build_type']}' contradicts "
             f"cmake_build_type '{context['cmake_build_type']}'")
materialize_kernels = ("BM_MergeThreadVectors", "BM_EdgeListFromBuffers",
                       "BM_CsrFromBuffers", "BM_CsrLegacyRoundtrip")

doc = {
    "schema": "nwhy-bench-slinegraph-v1",
    "context": context,
    "construction": construction,
    "micro": [m for m in micro if m["kernel"] in materialize_kernels],
}
json.dump(doc, open(out_sline, "w"), indent=1)
open(out_sline, "a").write("\n")
print(f"bench_snapshot.sh: wrote {out_sline} "
      f"({len(construction)} construction records, {len(doc['micro'])} micro records)")

doc = {
    "schema": "nwhy-bench-traversal-v1",
    "context": context,
    "bfs": bfs,
    "cc": cc,
    "micro": [m for m in micro if m["kernel"].startswith("BM_Frontier")],
}
json.dump(doc, open(out_traversal, "w"), indent=1)
open(out_traversal, "a").write("\n")
print(f"bench_snapshot.sh: wrote {out_traversal} "
      f"({len(bfs)} bfs records, {len(cc)} cc records, {len(doc['micro'])} micro records)")

doc = {
    "schema": "nwhy-bench-io-v1",
    "context": context,
    "io": io_records,
}
json.dump(doc, open(out_io, "w"), indent=1)
open(out_io, "a").write("\n")
parse1 = next((r["median_ms"] for r in io_records
               if r["operation"] == "parse-mm" and r["threads"] == 1), None)
mmap = next((r["median_ms"] for r in io_records
             if r["operation"] == "mmap-nwcsr"), None)
ratio = f", mmap {parse1 / mmap:.1f}x vs 1-thread parse" if parse1 and mmap else ""
ooc = next((r for r in io_records if r["operation"] == "bfs-sharded-ooc"), None)
if ooc and ooc.get("peak_rss_kb") and ooc.get("bytes"):
    resident_kb = ooc["bytes"] // 1024
    ratio += (f", ooc BFS peak RSS {ooc['peak_rss_kb']} kB vs {resident_kb} kB "
              f"resident ({resident_kb / ooc['peak_rss_kb']:.2f}x headroom)")
print(f"bench_snapshot.sh: wrote {out_io} ({len(io_records)} io records{ratio})")

doc = {
    "schema": "nwhy-bench-dynamic-v1",
    "context": context,
    "dynamic": dynamic_records,
}
json.dump(doc, open(out_dynamic, "w"), indent=1)
open(out_dynamic, "a").write("\n")
inc1 = next((r["median_ms"] for r in dynamic_records
             if r["operation"] == "update-incremental" and r["batch"] == 1), None)
reb1 = next((r["median_ms"] for r in dynamic_records
             if r["operation"] == "update-rebuild" and r["batch"] == 1
             and r["threads"] == 1), None)
ratio = f", batch-1 overlay {reb1 / inc1:.0f}x vs 1-thread rebuild" if inc1 and reb1 else ""
print(f"bench_snapshot.sh: wrote {out_dynamic} ({len(dynamic_records)} dynamic records{ratio})")

doc = {
    "schema": "nwhy-bench-serve-v1",
    "context": context,
    "serve": serve_records,
}
json.dump(doc, open(out_serve, "w"), indent=1)
open(out_serve, "a").write("\n")
stats_qps = max((r["qps"] for r in serve_records if r["operation"] == "stats"), default=None)
mixed_p99 = max((r["p99_ms"] for r in serve_records if r["operation"] == "mixed"), default=None)
note = ""
if stats_qps:
    note = f", peak stats {stats_qps:.0f} qps"
if mixed_p99:
    note += f", worst mixed p99 {mixed_p99:.1f} ms"
print(f"bench_snapshot.sh: wrote {out_serve} ({len(serve_records)} serve records{note})")

doc = {
    "schema": "nwhy-bench-analytics-v1",
    "context": context,
    "betweenness": betweenness_records,
    "motif": motif_records,
}
json.dump(doc, open(out_analytics, "w"), indent=1)
open(out_analytics, "a").write("\n")
exact1 = next((r["median_ms"] for r in betweenness_records
               if r["operation"] == "betweenness-exact" and r["threads"] == 1), None)
sampled1 = next((r["median_ms"] for r in betweenness_records
                 if r["operation"] == "betweenness-sampled" and r["threads"] == 1), None)
note = f", 1-thread exact/sampled {exact1 / sampled1:.1f}x" if exact1 and sampled1 else ""
print(f"bench_snapshot.sh: wrote {out_analytics} ({len(betweenness_records)} betweenness "
      f"records, {len(motif_records)} motif records{note})")
PY
