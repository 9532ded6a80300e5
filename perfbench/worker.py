"""One benchmark process: set up, run passes, report as JSON on stdout.

Started by ``run.py`` in a fresh interpreter with the library's ``src`` on
``PYTHONPATH`` and the BLAS thread count pinned.  Set-up is everything up to
the ``ready`` timestamp: interpreter start and importing the package and its
command-line module, which is what every ``casecontrol`` invocation pays.
Everything after it belongs to the benchmark (reading inputs, checking
outputs) or to a pass.

Modes:
  main   one cold pass, then warm passes until ``--seconds`` have gone by;
  trace  warm passes untraced for half of ``--seconds``, then traced for
         the other half, reporting per-layer metrics and the overhead.

``time.monotonic`` is CLOCK_MONOTONIC on Linux, shared by all processes, so
the parent can subtract its spawn time from the ``ready`` timestamp.
"""

import time

import casecontrol
import casecontrol.cli  # noqa: F401  (part of what a CLI start pays)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_MESSAGES = 20


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "casecontrol": casecontrol.__file__,
    }


def _direct(fn, *args):
    return fn(*args)


class Runner:
    """Runs and checks passes of one workload, collecting failures."""

    def __init__(self, name: str, state: dict, reference):
        self.name, self.state, self.reference = name, state, reference
        self.first_record = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, call=None) -> float:
        """One pass; returns its wall time, NaN if it raised.  ``call(f, *args)``
        makes the call when given (the traced run's pass span)."""
        self.attempted += 1
        call = call or _direct
        try:
            start = time.perf_counter()
            result = call(workloads.run_pass, self.name, casecontrol, self.state)
            elapsed = time.perf_counter() - start
        except Exception:
            self.fail([traceback.format_exc(limit=3)])
            return float("nan")
        self.verify(result)
        return elapsed

    def verify(self, result) -> None:
        try:
            record = workloads.summarize(self.name, self.state, result)
            # outputs identical to an already checked pass need no new check
            if self.first_record is not None and record == self.first_record:
                return
            problems = workloads.check(self.name, self.state, result, self.reference)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.fail(problems)
        elif self.first_record is None:
            self.first_record = record

    def fail(self, problems) -> None:
        self.failed += 1
        self.messages += problems[:MAX_MESSAGES - len(self.messages)]


def timed_loop(runner: Runner, seconds: float, call=None) -> list[float]:
    """Back-to-back passes (a closed loop with one caller) for ``seconds``;
    returns the wall times of the passes that did not raise."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t = runner.run(call)
        if t == t:
            times.append(t)
    return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--mode", choices=("main", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(args.inputs.iterdir())}
    ref_path = Path(__file__).with_name("references") / f"{args.workload}.json"
    refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    reference = refs.get("all_seeds") or refs.get("seeds", {}).get(str(args.seed))
    runner = Runner(args.workload, workloads.load(args.workload, casecontrol, files), reference)
    out = {"ready": READY, "env": environment(), "reference": reference is not None}

    if args.mode == "trace":
        untraced = timed_loop(runner, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        started = []

        def traced_call(fn, *a):
            started.append(len(started))
            return tracer.run_pass(started[-1], fn, *a)

        traced = timed_loop(runner, args.seconds / 2, traced_call)
        spans = tracer.spans_by_pass()
        out["untraced"], out["traced"] = untraced, traced
        out["per_pass"] = [tracing.pass_metrics(spans.get(i, []), tracer.counters.get(i))
                           for i in started]
        if args.spans:
            tracer.save(args.spans)
    else:
        out["cold"] = runner.run()
        out["warm"] = timed_loop(runner, args.seconds)
    out.update(attempted=runner.attempted, failed=runner.failed, messages=runner.messages,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
