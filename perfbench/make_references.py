"""Write the reference outputs that ``run.py`` checks each pass against.

Usage (from the root of a source checkout, at the commit whose outputs are
the reference):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 perfbench/make_references.py

The BLAS thread count must be the one ``run.py`` pins: whether an IRLS fit
converges can depend on the rounding of its sums.

For each synthetic workload and each seed in 0-10 this runs one pass,
requires every invariant check to hold, and stores the pass's record
(deviances, df, convergence, logit coefficients and SEs, selected edges,
fitted counts, smoothed odds-ratios and their SEs, input hashes) with
floats rounded to ``DIGITS`` significant digits, far inside the checks'
relative tolerance.  ``bundled_reproduce`` stores the names of the pinned
checks, the same for every seed.  Seeds outside the stored range are
checked against the invariants alone.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import casecontrol
import casecontrol.reproduce  # noqa: F401  (not imported by the package itself)

import run
import workloads

DIGITS = 10
SEEDS = range(11)
OUT = Path(__file__).resolve().with_name("references")


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value


def _pinned(record):
    """``record`` without the estimates of fits that did not converge, which
    the reference commit does not pin down."""
    if isinstance(record, dict):
        if record.get("converged") is False:
            return {k: record[k] for k in ("formula", "df", "converged") if k in record}
        return {k: _pinned(v) for k, v in record.items()}
    if isinstance(record, list):
        return [_pinned(v) for v in record]
    return record


def main() -> int:
    env = run.worker_env(Path.cwd())
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if any(os.environ.get(k) != env[k] for k in pins):
        print(f"error: set {', '.join(f'{k}={env[k]}' for k in pins)} as run.py does",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        seeds = [0] if name == "bundled_reproduce" else SEEDS
        records = {}
        for seed in seeds:
            files, _ = workloads.generate(name, seed)
            state = workloads.load(name, casecontrol, files)
            result = workloads.run_pass(name, casecontrol, state)
            problems = workloads.check(name, state, result, None)
            if problems:
                print(f"{name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            records[str(seed)] = _round(_pinned(workloads.summarize(name, state, result)))
        payload = ({"all_seeds": records["0"]} if name == "bundled_reproduce"
                   else {"seeds": records})
        (OUT / f"{name}.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        print(f"{name}: {len(records)} seed(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
