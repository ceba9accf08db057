#!/usr/bin/env python3
"""End-to-end benchmark of the NWHy library: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Workloads: analytics-pipeline, ingest-formats, serve-mixed, dynamic-churn
(see perfbench/README.md).  The first run configures and builds the
benchmark binary from the library headers under src/ into .bench_build/
(or $CARGO_TARGET_DIR) as a Release build; later runs rebuild only what
changed.  Inputs are generated from --seed; set-up files, traces and the
server socket live under .bench_run/<workload>/.

stdout: the run context (one JSON line), a table of every metric with its
unit, the error rate and the output-check result, and as the last line the
result object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer
ones; a per-layer metric of a layer the workload never reaches reads 0.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics-pipeline", "ingest-formats", "serve-mixed", "dynamic-churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark; return the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    # Configuring an existing tree is a quick no-op, and it recovers a tree
    # whose first configure failed.
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "nwhy_perfbench")


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src", "perfbench"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git unavailable)"


def params_for(workload, size):
    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    params = dict(cfg[size]["shared"])
    params.update(cfg[size][workload])
    return params


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(bench_path) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(workdir, os.getcwd()), "--git-rev", git_revision()]
    for key, value in params_for(args.workload, args.size).items():
        cmd += ["--set", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with code {proc.returncode}")

    context = raw = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"run_context"'):
            context = json.loads(line)
        elif line.startswith('{"result"'):
            raw = json.loads(line)["result"]
    if context is None or raw is None:
        fail("benchmark binary printed no result")

    reported = raw["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = reported.get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} missing from the {args.workload} run")
            got = {"value": 0.0, "unit": unit}  # this workload never reaches that layer
        if got["unit"] != unit:
            fail(f"metric {name} reported in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    attempted, failed = raw["attempted"], raw["failed"]
    print(json.dumps(context))
    notes = raw["notes"]
    print(f"{'metric':34s} {'value':>18s}  {'unit':8s} note")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:34s} {m['value']:18.6f}  {m['unit']:8s} {notes.get(name, '')}")
    print(f"{'error_rate':34s} {failed / max(1, attempted):18.6f}  {'ratio':8s} "
          f"{failed} failed of {attempted} operations attempted")
    for key in sorted(set(notes) - set(metrics)):
        print(f"note {key}: {notes[key]}")
    check = "passed" if raw["correct"] else "FAILED: " + "; ".join(raw["check_failures"])
    print(f"output check: {check}")
    print(json.dumps({"correct": raw["correct"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
