#!/usr/bin/env python3
"""Smoke self-test of the benchmark: run every workload at tiny size, with
tracing off and on, and assert that every metric BENCHMARK.json names is
printed with its unit, that no op failed, and that the traced run's trace
file passed `resilience trace-check`.

    python3 perfbench/smoke.py

Run from the repository root.  Exits non-zero on the first violation.
"""
import json
import subprocess
import sys


def run(workload, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        for trace, key, prefix in [(0, "end_to_end", "metric"), (1, "per_layer", "layer")]:
            lines, result = run(w["name"], trace)
            problems = []
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} failed={result['failed']}")
            if "fail_ratio 0 " not in "\n".join(lines) + " ":
                problems.append("fail_ratio is not 0")
            if set(result["metrics"]) != {m["name"] for m in bench[key]}:
                problems.append(f"metric names differ: {sorted(result['metrics'])}")
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{m['name']}: {got}")
                if not any(l.startswith(f"{prefix} {m['name']} ") and l.split()[3] == m["unit"] for l in lines):
                    problems.append(f"{m['name']} not printed with unit {m['unit']}")
            if trace and not any("trace-check ok" in l for l in lines):
                problems.append("trace-check did not pass")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:13s} trace={trace} attempted={result['attempted']:6d} {status}", flush=True)
            if problems:
                sys.exit(1)


if __name__ == "__main__":
    main()
