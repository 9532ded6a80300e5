"""Seeded inputs, one pass and the output checks of each benchmark workload.

A workload is a generator plus a pass.  The generator turns a seed into the
input files the program receives (cell-CSV text and, where needed, a model
description); nothing else about the seed reaches the program.  The pass is
one complete analysis of those inputs through the public ``casecontrol``
API.  The checks compare a pass's outputs with the references stored for
the seed (when there are any) and with invariants that hold for every seed:
the MLE conditions of each fit, recomputed here independently of the
library.

Generators use numpy only, so they run without the library installed and
give byte-identical text for the same seed and numpy version.

Synthetic tables hold the expected counts of a planted log-linear model,
rounded to integers, rather than Poisson draws.  Sampling noise would make
forward selection add a chance edge on some seeds and not others, and each
extra edge costs a full round of candidate fits; with rounded expectations
the seed moves the effect sizes but the work done stays nearly the same.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

NAMES = ("bundled_reproduce", "wide_logit", "select_smooth", "smoothed_or_wide")

# Reference tolerances.  The acceptance suite pins displayed values to
# 0.01-0.2 absolute and compares fits with atol 1e-8 / rel 1e-9; these stay
# within that while leaving room for a change of algorithm (closed-form
# fits, vectorised designs) that reorders floating-point sums.
REL_TOL = 1e-6
ABS_TOL = 1e-8
IPF_TOL = 1e-8  # casecontrol.loglinear.DEFAULT_TOL: the margin gap at convergence
SCORE_TOL = 1e-6  # max |score| at the coefficients, as in the test suite
EXPECTED_RUN_CHECKS = 278


# -- generators ----------------------------------------------------------------

def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _bits(k: int) -> np.ndarray:
    """(2^k, k) 0/1 matrix of the cells in C order (first variable most
    significant), the library's cell order."""
    idx = np.arange(2 ** k)
    return (idx[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1


def _eta(k: int, main, terms: dict, const: float = 0.0) -> np.ndarray:
    """Linear predictor per cell: ``const``, main effects ``main[i]`` and
    interactions ``terms[(i, j, ...)]`` (dummy coding)."""
    x = _bits(k)
    eta = const + x @ np.asarray(main, dtype=float)
    for term, value in terms.items():
        eta = eta + value * np.prod(x[:, list(term)], axis=1)
    return eta


def _loglinear_probs(k: int, main, terms: dict) -> np.ndarray:
    """Cell probabilities of a binary log-linear model, shape (2,)*k."""
    eta = _eta(k, main, terms)
    p = np.exp(eta - eta.max())
    return (p / p.sum()).reshape((2,) * k)


def cell_csv(variables, counts: np.ndarray) -> str:
    """Cell-CSV text in the library's canonical ``emit`` form: every cell,
    rows in C order, integer counts."""
    k = len(variables)
    flat = np.asarray(counts).reshape(-1)
    rows = [",".join(variables) + ",count"]
    for levels, count in zip(itertools.product("01", repeat=k), flat.tolist()):
        rows.append(",".join(levels) + "," + format(float(count), ".17g"))
    return "\n".join(rows) + "\n"


def _signed(rng, n, lo, hi):
    return rng.uniform(lo, hi, n) * rng.choice((-1.0, 1.0), n)


def _wide_logit(seed: int) -> tuple[dict, dict]:
    rng = _rng("wide_logit", seed)
    k = 12
    regs = tuple(f"X{i}" for i in range(1, k + 1))
    # Fixed signs and narrow magnitude ranges keep IRLS at six iterations
    # per fit on most seeds.  On some seeds a fit stalls in step halving and
    # runs to max_iter: the library rejects a step whose log-likelihood, a
    # sum of magnitude 1e5, is lower by more than 1e-12, which rounding
    # alone causes near the optimum.  That cost is the library's and shows.
    alternate = np.where(np.arange(k) % 2, -1.0, 1.0)
    # regressors: a chain of moderate dependences
    px = _loglinear_probs(
        k, rng.uniform(-0.3, 0.3, k),
        {(i, i + 1): v for i, v in enumerate(rng.uniform(0.4, 0.5, k - 1))})
    # response: planted main effects, chain interactions and X1*X2*X3
    main = alternate * rng.uniform(0.4, 0.5, k)
    pairs = {(0, 1): rng.uniform(0.5, 0.6), (1, 2): -rng.uniform(0.5, 0.6),
             (5, 6): rng.uniform(0.3, 0.4), (9, 10): -rng.uniform(0.3, 0.4)}
    triple = {(0, 1, 2): rng.uniform(0.6, 0.7)}
    p1 = 1.0 / (1.0 + np.exp(-_eta(k, main, {**pairs, **triple}, const=-0.3)))
    total = 20.0 * 2 ** (k + 1)
    joint = np.stack([px.reshape(-1) * (1 - p1), px.reshape(-1) * p1]) * total
    counts = np.rint(joint)
    planted = {
        "regressors": "chain X1-...-X12 of pairwise log-linear dependences",
        "response_main": dict(zip(regs, np.round(main, 6).tolist())),
        "response_interactions": {":".join(regs[i] for i in t): round(v, 6)
                                  for t, v in {**pairs, **triple}.items()},
        "total": float(counts.sum()),
    }
    return {"table.csv": cell_csv(("L",) + regs, counts)}, planted


# Case graph of select_smooth: two chordless 4-cycles joined by a bridge,
# plus a pendant node.  Control graph: a chain.
SELECT_CASE_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
                     (3, 4), (7, 8))
SELECT_CONTROL_EDGES = tuple((i, i + 1) for i in range(8))


def _select_smooth(seed: int) -> tuple[dict, dict]:
    rng = _rng("select_smooth", seed)
    k = 9
    regs = tuple(f"X{i}" for i in range(1, k + 1))
    # Positive interactions of nearly equal size and counts large enough
    # that every planted edge tests at p = 0 keep the selection path, and so
    # the mix of decomposable and cyclic candidate fits, the same on every
    # seed.
    case = _loglinear_probs(k, rng.uniform(-0.5, 0.5, k),
                            dict(zip(SELECT_CASE_EDGES,
                                     rng.uniform(0.9, 1.1, len(SELECT_CASE_EDGES)))))
    control = _loglinear_probs(k, rng.uniform(-0.5, 0.5, k),
                               dict(zip(SELECT_CONTROL_EDGES,
                                        rng.uniform(0.9, 1.1, len(SELECT_CONTROL_EDGES)))))
    counts = np.rint(np.stack([control * 600.0 * 2 ** k, case * 400.0 * 2 ** k]))
    planted = {
        "case_edges": [f"{regs[a]}-{regs[b]}" for a, b in SELECT_CASE_EDGES],
        "control_edges": [f"{regs[a]}-{regs[b]}" for a, b in SELECT_CONTROL_EDGES],
        "total": float(counts.sum()),
    }
    return {"table.csv": cell_csv(("L",) + regs, counts)}, planted


# Decomposable specs of smoothed_or_wide (0-based regressor indices).
WIDE_CASE_CLIQUES = ((0, 1, 2), (2, 3, 4), (4, 5), (5, 6, 7), (7, 8), (8, 9))
WIDE_CONTROL_CLIQUES = tuple((i, i + 1) for i in range(9))
WIDE_REGRESSORS = 10


def _smoothed_or_wide(seed: int) -> tuple[dict, dict]:
    rng = _rng("smoothed_or_wide", seed)
    k = WIDE_REGRESSORS
    regs = tuple(f"X{i}" for i in range(1, k + 1))

    def planted_probs(cliques):
        terms = {}
        for c in cliques:
            for r in range(2, len(c) + 1):
                for t in itertools.combinations(c, r):
                    terms.setdefault(t, float(_signed(rng, 1, 0.3, 0.9)[0]))
        return _loglinear_probs(k, rng.uniform(-0.5, 0.5, k), terms)

    case = planted_probs(WIDE_CASE_CLIQUES)
    control = planted_probs(WIDE_CONTROL_CLIQUES)
    counts = np.rint(np.stack([control * 30.0 * 2 ** k, case * 20.0 * 2 ** k]))
    model = {"case": {"generators": [[regs[i] for i in c] for c in WIDE_CASE_CLIQUES]},
             "control": {"generators": [[regs[i] for i in c] for c in WIDE_CONTROL_CLIQUES]}}
    planted = {"case_cliques": model["case"]["generators"],
               "control_cliques": model["control"]["generators"],
               "total": float(counts.sum())}
    return {"table.csv": cell_csv(("L",) + regs, counts),
            "model.json": json.dumps(model, indent=1) + "\n"}, planted


def generate(name: str, seed: int) -> tuple[dict, dict]:
    """Input files ({file name: text}) and the planted structure for a seed."""
    if name == "bundled_reproduce":
        return {}, {"table": "bundled Zatonski 64-cell table; the seed is not used"}
    return {"wide_logit": _wide_logit, "select_smooth": _select_smooth,
            "smoothed_or_wide": _smoothed_or_wide}[name](seed)


# -- passes ----------------------------------------------------------------------
#
# ``load`` prepares a pass's inputs (not timed), ``run_pass`` is one timed
# analysis, ``summarize`` turns its result into the plain record that is
# stored as a reference, and ``check`` lists every way the result is wrong.
# Calls go through module attributes (``cc.logit.fit_logit``) so that the
# traced run sees them.

WIDE_REGS = tuple(f"X{i}" for i in range(1, 13))
WIDE_FORMULAS = (
    "L : " + " + ".join(WIDE_REGS),
    "L : " + " + ".join(f"{a}*{b}" for a, b in zip(WIDE_REGS, WIDE_REGS[1:])),
    "L : X1*X2*X3 + " + " + ".join(WIDE_REGS[3:]),
    "L : (" + "+".join(WIDE_REGS) + ")^2",
)
SELECT_REGS = tuple(f"X{i}" for i in range(1, 10))
SELECT_ALPHA = 0.05
FACTOR = "X1"


def _parse_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Variables and C-order counts of complete cell-CSV text."""
    lines = text.splitlines()
    variables = tuple(lines[0].split(",")[:-1])
    counts = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    return variables, counts.reshape((2,) * len(variables))


def load(name: str, cc, files: dict) -> dict:
    if name == "bundled_reproduce":
        return {}
    variables, counts = _parse_csv(files["table.csv"])
    state = {"text": files["table.csv"], "variables": variables, "counts": counts}
    if name != "wide_logit":
        state["table"] = cc.tables.ingest(files["table.csv"])
    if name == "smoothed_or_wide":
        state["model"] = files["model.json"]
    return state


def _smooth_pass(cc, table, model):
    sm = cc.smoothing.smooth(table, model)
    given = tuple(v for v in sm.regressors if v != FACTOR)
    return sm, sm.odds_ratios(FACTOR, given), sm.odds_ratio_ses(FACTOR, given)


def run_pass(name: str, cc, state: dict):
    if name == "bundled_reproduce":
        return cc.reproduce.run_checks()
    if name == "wide_logit":
        table = cc.tables.ingest(state["text"])
        emitted = cc.tables.emit(table)
        fits = [cc.logit.fit_logit(table, cc.logit.parse_formula(f)) for f in WIDE_FORMULAS]
        ors = cc.logit.fitted_odds_ratios(fits[-1], ("L", FACTOR), WIDE_REGS[1:])
        return {"table": table, "emitted": emitted, "fits": fits, "ors": ors}
    table = state["table"]
    if name == "select_smooth":
        cases, controls = table.slice_l("L", 1), table.slice_l("L", 0)
        g_case = cc.loglinear.forward_select(cases, alpha=SELECT_ALPHA)
        g_control = cc.loglinear.forward_select(controls, alpha=SELECT_ALPHA)
        model = cc.smoothing.CaseControlModel.from_generators(
            table, cc.graphs.cliques(g_case), cc.graphs.cliques(g_control))
        sm, ors, ses = _smooth_pass(cc, table, model)
        pairs = cc.loglinear.LoglinearSpec(cases.schema, tuple(itertools.combinations(SELECT_REGS, 2)))
        return {"graphs": (g_case, g_control), "smoothed": sm, "ors": ors, "ses": ses,
                "pairwise": cc.loglinear.fit_ipf(cases, pairs)}
    model = cc.smoothing.CaseControlModel.from_json(state["model"], table)
    sm, ors, ses = _smooth_pass(cc, table, model)
    return {"smoothed": sm, "ors": ors, "ses": ses}


def _edges(graph) -> list[str]:
    return sorted(f"{a}-{b}" for a, b, _ in graph.edges)


def _fit_record(fit) -> dict:
    return {"deviance": fit.deviance, "df": fit.df, "converged": fit.converged}


def _values(mapping) -> list:
    return [mapping[key] for key in sorted(mapping)]


def summarize(name: str, state: dict, result) -> dict:
    """Plain record of a pass's inputs and outputs: what is stored as a
    reference.  Wide vectors that the invariants pin down completely (the
    2048 fitted odds-ratios of wide_logit) are left out."""
    if name == "bundled_reproduce":
        return {"checks": [[c.name, c.passed] for c in result]}
    inputs = _sha256(state["text"] + state.get("model", ""))
    if name == "wide_logit":
        return {"inputs_sha256": inputs, "emitted_sha256": _sha256(result["emitted"]),
                "fits": [{"formula": str(f.formula), "deviance": f.deviance_vs_saturated,
                          "df": f.df, "converged": f.converged,
                          "coefficients": list(f.coefficients.values()),
                          "se": list(f.se.values())} for f in result["fits"]]}
    sm = result["smoothed"]
    record = {"inputs_sha256": inputs,
              "case_fit": _fit_record(sm.case_fit), "control_fit": _fit_record(sm.control_fit),
              "odds_ratios": _values(result["ors"]), "odds_ratio_ses": _values(result["ses"])}
    if name == "select_smooth":
        record["edges"] = {"cases": _edges(result["graphs"][0]),
                           "controls": _edges(result["graphs"][1])}
        pairwise = result["pairwise"]
        record["pairwise_fit"] = {**_fit_record(pairwise),
                                  "fitted": pairwise.fitted.counts.ravel().tolist()}
    return record


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


# -- checks ----------------------------------------------------------------------

def _close(actual, expected) -> bool:
    if isinstance(expected, (bool, str, int)) or expected is None:
        return actual == expected
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and (
            actual == expected
            or abs(actual - expected) <= ABS_TOL + REL_TOL * abs(expected))
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(_close(actual[k], v) for k, v in expected.items()))
    return (isinstance(actual, list) and len(actual) == len(expected)
            and all(_close(a, e) for a, e in zip(actual, expected)))


def compare_reference(record: dict, reference: dict, path: str = "") -> list[str]:
    """Every field of ``reference`` that ``record`` misses, by path.  Only
    the fields stored are compared: a fit that did not converge at the
    reference commit is stored without its estimates."""
    out = []
    for key, expected in reference.items():
        actual = record.get(key)
        if key == "converged" and expected is False:
            continue  # converging now where the reference did not is no failure
        if isinstance(expected, dict) and isinstance(actual, dict):
            out += compare_reference(actual, expected, f"{path}{key}.")
        elif isinstance(expected, list) and expected and isinstance(expected[0], dict):
            if not isinstance(actual, list) or len(actual) != len(expected):
                out.append(f"{path}{key}: length differs from the reference")
            else:
                for i, (a, e) in enumerate(zip(actual, expected)):
                    out += compare_reference(a, e, f"{path}{key}[{i}].")
        elif not _close(actual, expected):
            out.append(f"{path}{key}: differs from the reference")
    return out


def _design(variables, terms) -> np.ndarray:
    """Dummy-coded columns, one per term (a tuple of variables; () for the
    constant), over the cells of ``variables`` in C order."""
    bits = _bits(len(variables)).astype(float)
    pos = {v: i for i, v in enumerate(variables)}
    return np.stack([np.prod(bits[:, [pos[v] for v in t]], axis=1) for t in terms], axis=1)


def _hierarchy(generators) -> list[tuple]:
    terms = {()}
    for g in generators:
        for r in range(1, len(g) + 1):
            terms.update(itertools.combinations(sorted(g), r))
    return sorted(terms, key=lambda t: (len(t), t))


def _xlogy_ratio(a, b) -> np.ndarray:
    out = np.zeros_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log(a[pos] / b[pos])
    return out


def _check_loglinear(label, observed, variables, generators, fit) -> list[str]:
    """The MLE of a hierarchical log-linear model is the one table that
    matches the observed generator margins and whose log lies in the span
    of the model's terms; deviance and df follow from it."""
    out = []
    fitted = np.asarray(fit.fitted.counts, dtype=float)
    if not fit.converged:
        out.append(f"{label}: did not converge")
    k = len(variables)
    for g in generators:
        drop = tuple(i for i, v in enumerate(variables) if v not in g)
        gap = np.max(np.abs(observed.sum(axis=drop) - fitted.sum(axis=drop)))
        if not gap <= IPF_TOL:
            out.append(f"{label}: margin {'/'.join(g)} off by {gap:.3g}")
    terms = _hierarchy(generators)
    X = _design(variables, terms)
    logm = np.log(fitted.reshape(-1))
    coef = np.linalg.lstsq(X, logm, rcond=None)[0]
    off = np.max(np.abs(X @ coef - logm))
    if not off <= 1e-8:
        out.append(f"{label}: fitted log counts leave the model by {off:.3g}")
    dev = float(2.0 * np.sum(_xlogy_ratio(observed.reshape(-1), fitted.reshape(-1))))
    if not _close(fit.deviance, dev):
        out.append(f"{label}: deviance {fit.deviance!r} != {dev!r}")
    if fit.df != 2 ** k - len(terms):
        out.append(f"{label}: df {fit.df} != {2 ** k - len(terms)}")
    return out


def _check_smoothed(state, result) -> list[str]:
    """Smoothed slice fits are MLEs; odds-ratios and delta-method SEs are
    recomputed from the fitted table and the slices' term designs."""
    sm, ors, ses = result["smoothed"], result["ors"], result["ses"]
    counts, variables = state["counts"], state["variables"]
    regs = variables[1:]
    out = []
    for label, level, fit, spec in (("control fit", 0, sm.control_fit, sm.model.control_spec),
                                    ("case fit", 1, sm.case_fit, sm.model.case_spec)):
        if spec.schema.variables != regs:
            out.append(f"{label}: regressor order {spec.schema.variables} != {regs}")
            return out
        out += _check_loglinear(label, counts[level], regs, spec.generators, fit)
        if not np.array_equal(sm.fitted_joint.counts[level], fit.fitted.counts):
            out.append(f"{label}: joint table slice differs from the slice fit")
    given = tuple(v for v in regs if v != FACTOR)
    strata = list(itertools.product((0, 1), repeat=len(given)))
    if sorted(ors) != strata or sorted(ses) != strata:
        out.append("odds-ratio strata differ from the levels of the conditioning set")
        return out
    m = sm.fitted_joint.counts  # axes: L, X1, rest
    expected_or = (m[1, 1] * m[0, 0] / (m[1, 0] * m[0, 1])).reshape(-1)
    if not _close(_values(ors), expected_or.tolist()):
        out.append("smoothed odds-ratios differ from the fitted table")
    var = np.zeros(len(strata))
    for fit, spec in ((sm.case_fit, sm.model.case_spec), (sm.control_fit, sm.model.control_spec)):
        X = _design(regs, _hierarchy(spec.generators))
        w = fit.fitted.counts.reshape(-1)
        half = 2 ** (len(regs) - 1)  # X1 is the first regressor
        D = X[half:] - X[:half]
        var += np.sum(D.T * np.linalg.solve(X.T @ (X * w[:, None]), D.T), axis=0)
    if not _close(_values(ses), np.sqrt(var).tolist()):
        out.append("smoothed odds-ratio SEs differ from the delta-method values")
    return out


def _check_logit(fit, counts, formula_text) -> list[str]:
    """Coefficients solve the score equations; SEs, deviance, df and fitted
    probabilities follow from them."""
    out = []
    label = f"fit [{formula_text}]"
    regs = fit.regressors
    y, n = counts[1].reshape(-1), counts.sum(axis=0).reshape(-1)
    occupied = n > 0
    names = list(fit.coefficients)
    terms = [() if t == "(const)" else tuple(t.split(":")) for t in names]
    X = _design(regs, terms)[occupied]
    y, n = y[occupied], n[occupied]
    beta = np.array([fit.coefficients[t] for t in names])
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    score = np.max(np.abs(X.T @ (y - n * p)))
    # a fit reported as not converged is only wrong where it converged at
    # the reference commit, which the stored references decide
    if fit.converged and not score < SCORE_TOL:
        out.append(f"{label}: score {score:.3g} at the coefficients")
    se = np.sqrt(np.diag(np.linalg.inv(X.T @ (X * (n * p * (1 - p))[:, None]))))
    if not _close([fit.se[t] for t in names], se.tolist()):
        out.append(f"{label}: SEs differ from the inverse information")
    mu = n * p
    dev = float(2.0 * np.sum(_xlogy_ratio(y, mu) + _xlogy_ratio(n - y, n - mu)))
    if not _close(fit.deviance_vs_saturated, dev):
        out.append(f"{label}: deviance {fit.deviance_vs_saturated!r} != {dev!r}")
    if fit.df != int(occupied.sum()) - len(names):
        out.append(f"{label}: df {fit.df} != {int(occupied.sum()) - len(names)}")
    cells = [tuple(c) for c in _bits(len(regs))[occupied].tolist()]
    if sorted(fit.fitted_probabilities) != cells or not _close(
            [fit.fitted_probabilities[c] for c in cells], p.tolist()):
        out.append(f"{label}: fitted probabilities differ from the coefficients")
    return out


def check(name: str, state: dict, result, reference: dict | None) -> list[str]:
    """Every way a pass's result is wrong; empty when it is right."""
    record = summarize(name, state, result)
    if name == "bundled_reproduce":
        out = [f"run_checks failed: {n}" for n, passed in record["checks"] if not passed]
        if len(record["checks"]) != EXPECTED_RUN_CHECKS:
            out.append(f"run_checks gave {len(record['checks'])} checks, "
                       f"expected {EXPECTED_RUN_CHECKS}")
        return out + compare_reference(record, reference or {})
    counts = state["counts"]
    out = []
    if name == "wide_logit":
        if result["emitted"] != state["text"]:
            out.append("emit(ingest(text)) != text")
        if not np.array_equal(result["table"].counts, counts):
            out.append("ingested counts differ from the input")
        for fit, text in zip(result["fits"], WIDE_FORMULAS):
            out += _check_logit(fit, counts, text)
        beta = result["fits"][-1].coefficients
        x = _bits(len(WIDE_REGS) - 1)
        log_or = beta[FACTOR] + x @ np.array([beta[f"{FACTOR}:{v}"] for v in WIDE_REGS[1:]])
        n = counts.sum(axis=0)
        both = ((n[1] > 0) & (n[0] > 0)).reshape(-1)
        keys = [tuple(c) for c in x[both].tolist()]
        if sorted(result["ors"]) != keys or not _close(
                [result["ors"][key] for key in keys], np.exp(log_or[both]).tolist()):
            out.append("fitted odds-ratios differ from the all-two-way coefficients")
    else:
        out += _check_smoothed(state, result)
    if name == "select_smooth":
        regs = state["variables"][1:]
        out += _check_loglinear("pairwise fit", counts[1], regs,
                                list(itertools.combinations(regs, 2)), result["pairwise"])
        for label, graph, planted in (("cases", result["graphs"][0], SELECT_CASE_EDGES),
                                      ("controls", result["graphs"][1], SELECT_CONTROL_EDGES)):
            want = sorted(f"{regs[a]}-{regs[b]}" for a, b in planted)
            if _edges(graph) != want:
                out.append(f"{label}: selected edges {_edges(graph)} != planted {want}")
    return out + compare_reference(record, reference or {})
