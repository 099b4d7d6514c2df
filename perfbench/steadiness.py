"""Steadiness report: run the benchmark repeatedly and summarize each metric.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                    [--out report.json]

Runs `perfbench/run.py` once per workload and seed, one run at a time, from
the current directory (the root of a checkout), with BENCHMARK.json's
`run_seconds`. For every metric it prints the median, the first and third
quartiles (`statistics.quantiles(n=4)`) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. With `--out` the raw results and the summary are also
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write raw results and summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_range(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode, "run_s": elapsed, "result": result})
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if s['spread'] > bound else ''}"
            print(f"{workload:14s} {name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
