"""casecontrol benchmark: one workload, one seed, one measured run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seeded generator in ``workloads.py`` writes the workload's input files;
the library from ``src/`` then runs in fresh worker processes (one
interpreter thread, BLAS pinned to ``BLAS_THREADS``), each pass's outputs
are checked, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  The line before it records the
environment (Python, numpy and BLAS versions, nproc, pinned threads), the
sample counts and the tail percentile.  Details and the traced spans go to
``.perfbench_work/`` in the checkout.

End-to-end metrics.  A run starts FRESH_PROCESSES worker processes one
after another; each sets up, runs one cold pass and then warm passes back
to back for its share of ``--seconds``.
  setup_s       median over the processes of the time from spawn until the
                first pass can start (interpreter start plus ``import
                casecontrol``); input generation is not included.
  cold_pass_s   median over the processes of their first pass.
  pass_p50_s    median wall time of the warm passes of all processes.
  pass_tail_s   the highest percentile of those passes that has at least
                ten samples beyond it (percentile on the record line).
  passes_per_s  warm passes divided by their total wall time.
  peak_rss_mb   largest peak resident memory of the processes.
  failed_ratio  failed over attempted passes, as the one-sided 95%
                Clopper-Pearson upper bound, so that a clean run reads as
                the resolution it had rather than 0.

Exit status is 0 when a result line was printed, 2 for bad usage or a
directory without the library sources, 1 when a worker failed or ran out
of time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BLAS_THREADS = 1
FRESH_PROCESSES = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
CONFIDENCE = 0.95
WORKER = Path(__file__).resolve().with_name("worker.py")


class BenchError(Exception):
    """The run could not produce a result."""


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of ``times`` with at
    least TAIL_BEYOND samples beyond it; the median when there are too few."""
    s = sorted(times)
    rank = len(s) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND values above it
    if rank < 1:
        return statistics.median(s), 50.0
    return s[rank - 1], 100.0 * rank / len(s)


def failure_upper_bound(failed: int, attempted: int, confidence: float = CONFIDENCE) -> float:
    """One-sided Clopper-Pearson upper confidence bound on the failure
    probability after ``failed`` failures in ``attempted`` trials."""
    if failed >= attempted:
        return 1.0

    def cdf(p):
        return sum(math.comb(attempted, i) * p ** i * (1 - p) ** (attempted - i)
                   for i in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) > 1 - confidence else (lo, mid)
    return hi


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran when
    the run started and ended, so that drift between runs can be told
    apart from changes to the program.  Recorded, never used to adjust a
    metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], env: dict, root: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns its spawn time and report."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran out of time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    expected = (root / "src" / "casecontrol" / "__init__.py").resolve()
    imported = Path(report["env"]["casecontrol"]).resolve()
    if imported != expected:
        raise BenchError(f"worker imported {imported}, not {expected}")
    report["env"]["casecontrol"] = str(imported.relative_to(root.resolve()))
    return spawned, report


def untraced_metrics(common, seconds, env, root, deadline):
    """FRESH_PROCESSES processes one after another, each a cold pass and then
    warm passes for its share of ``seconds``, so that set-up, cold and warm
    samples all spread over the whole run."""
    setups, colds, warm, reports = [], [], [], []
    for _ in range(FRESH_PROCESSES):
        spawned, report = spawn(common + ["--mode", "main",
                                          "--seconds", str(seconds / FRESH_PROCESSES)],
                                env, root, deadline)
        setups.append(report["ready"] - spawned)
        colds.append(report["cold"])
        warm += report["warm"]
        reports.append(report)
    colds = [c for c in colds if c == c]  # NaN: the pass raised
    if not warm or not colds:
        raise BenchError("every warm or every cold pass raised")
    tail_value, tail_pct = tail(warm)
    values = {
        "pass_p50_s": statistics.median(warm),
        "pass_tail_s": tail_value,
        "passes_per_s": len(warm) / sum(warm),
        "cold_pass_s": statistics.median(colds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    record = {"warm_passes": len(warm), "fresh_processes": FRESH_PROCESSES,
              "pass_tail_percentile": tail_pct, "setup_samples_s": setups,
              "cold_samples_s": colds, "warm_samples_s": warm}
    return values, reports, record


def traced_metrics(common, seconds, env, root, deadline, spans, names):
    """One process: half the time untraced, half traced."""
    _, report = spawn(common + ["--mode", "trace", "--seconds", str(seconds),
                                "--spans", str(spans)], env, root, deadline)
    if not report["untraced"] or not report["traced"]:
        raise BenchError("every untraced or every traced pass raised")
    values = {n: statistics.median(p.get(n, 0.0) for p in report["per_pass"]) for n in names}
    untraced = statistics.median(report["untraced"])
    traced = statistics.median(report["traced"])
    values.update({"trace.untraced_pass_p50_s": untraced, "trace.traced_pass_p50_s": traced,
                   "trace.overhead_s": traced - untraced})
    record = {"traced_passes": len(report["traced"]),
              "untraced_passes": len(report["untraced"]),
              "spans": str(spans.relative_to(root))}
    return values, [report], record


def measure(name: str, seed: int, seconds: int, trace: bool, root: Path,
            spec: dict, work: Path) -> tuple[dict, dict]:
    """Generate the inputs and run the workers; returns (result, record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    host_before = host_loop_s()
    files, planted = workloads.generate(name, seed)
    inputs = work / f"inputs-{name}-{seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        for fname, text in files.items():
            (inputs / fname).write_text(text, encoding="utf-8")
        env = worker_env(root)
        # compile and cache the package once so no timed process pays for it
        subprocess.run([sys.executable, "-c", "import casecontrol.cli"], cwd=root, env=env,
                       check=True, timeout=60)
        common = ["--workload", name, "--seed", str(seed), "--inputs", str(inputs)]
        kind = "per_layer" if trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if trace:
            values, reports, record = traced_metrics(
                common, seconds, env, root, deadline, work / f"spans-{name}-{seed}.npz", units)
        else:
            values, reports, record = untraced_metrics(common, seconds, env, root, deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values["failed_ratio"] = failure_upper_bound(failed, attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  env=reports[-1]["env"], blas_threads_pinned=BLAS_THREADS,
                  reference="stored" if reports[-1]["reference"] else "invariants only",
                  host_loop_s=[host_before, host_loop_s()], planted=planted,
                  failures=[m for r in reports for m in r["messages"]][:20])
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file() or not (root / "src" / "casecontrol" / "__init__.py").is_file():
        print("error: run from the root of a casecontrol checkout "
              "(BENCHMARK.json and src/casecontrol are needed)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work"
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 root, spec, work)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (work / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "warm_samples_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
