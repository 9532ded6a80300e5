"""Run every workload on a range of seeds and summarize, as the baseline.

Usage (from the root of a source checkout):

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed 0-9 (untraced), then once traced
per workload on seed 0, one after another.  For each end-to-end metric
it reports the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound.  Every result line
is kept, so a later change can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record, result = proc.stdout.strip().splitlines()[-2:]
    return {"seed": seed, "wall_s": time.monotonic() - start, **json.loads(record),
            "result": json.loads(result)}


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"],
                               "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    report = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in SEEDS]
        summary = summarize(runs, spec)
        for metric, row in summary.items():
            flag = "" if row["spread"] <= row["bound"] else "  SPREAD ABOVE BOUND"
            print(f"{name:18s} {metric:13s} median {row['median']:.5g} {row['unit']:6s} "
                  f"spread {row['spread']:.3f} (bound {row['bound']}){flag}", flush=True)
        traced = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        report[name] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
