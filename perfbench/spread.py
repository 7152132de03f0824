#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and print, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py WORKLOAD SEED [SEED ...]

Run from the repository root after the benchmark has been built once.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, seeds = sys.argv[1], sys.argv[2:]
    bench = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(seed, " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else ("WITHIN" if spread < bounds[name] else "OVER")
        print(f"{workload} {name:16s} median {med:10.4g} spread {spread:6.3f} bound {bounds[name]} {flag}")


if __name__ == "__main__":
    main()
