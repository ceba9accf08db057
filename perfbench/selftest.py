#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at the tiny size, untraced and traced.

Usage (from the repository root):  python3 perfbench/selftest.py

For each run it checks that the last line is the result object with exactly
the keys correct/attempted/failed/metrics, that the output check passed, that
every metric BENCHMARK.json names is reported (and printed in the table) with
its unit, that untraced end-to-end metrics are non-zero, and that in a traced
run the per-layer self times plus unattributed_ms sum to the pass wall time.
Exits non-zero on the first run that fails a check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics-pipeline", "ingest-formats", "serve-mixed", "dynamic-churn")


def check_run(workload, trace, bench):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"output check: correct={result['correct']} failed={result['failed']}")
    if "output check: passed" not in lines or not any(l.startswith("error_rate") for l in lines):
        problems.append("table lacks the output-check line or error_rate")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ from BENCHMARK.json")
    table = {l.split()[0]: l.split() for l in lines[1:-1] if l.split()}
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        row = table.get(m["name"])
        if row is None or len(row) < 3 or row[2] != m["unit"]:
            problems.append(f"{m['name']} not printed with its unit")
        if not trace and not got.get("value", 0) > 0:
            problems.append(f"end-to-end metric {m['name']} is not positive")
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in metrics.items() if k.startswith("self_ms.")) + metrics["unattributed_ms"]
        if abs(parts - metrics["trace.pass_ms"]) > 1e-6 * max(1.0, metrics["trace.pass_ms"]):
            problems.append(f"self times sum to {parts} ms, pass is {metrics['trace.pass_ms']} ms")
        if not metrics["trace.overhead"] > 0:
            problems.append("trace.overhead not reported")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(workload, trace, bench)
            print(f"{workload:20s} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"    {p}")
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
