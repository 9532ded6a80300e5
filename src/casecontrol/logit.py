"""Logit regression of a binary response on categorical regressors.

Models are written in Wilkinson notation, e.g. ``L : V*C*R + A*E`` or
``L : (V+C+R)^2``; a formula expands to a hierarchically closed term list
plus an always-present intercept.  Fitting is grouped-binomial maximum
likelihood over the cells of the regressor classification, by iteratively
reweighted least squares with step halving.

Coding is dummy 0/1 with level 1 active: the intercept is the log odds of
the response at the all-zero regressor cell, and each term's column is the
product of its variables' levels.  The reported fit statistic is the
likelihood-ratio deviance against the saturated logit, whose df is the
number of regressor cells minus the number of model terms (intercept
included).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .special import chi2_sf
from .tables import (ContingencyTable, DataError, cross_products, strata_cells, term_columns,
                     term_masks)
from .measures import TwoByTwo, deviance_of

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


class FormulaError(ValueError):
    """Malformed formula text; the message carries the offending position."""


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[:~+*()^]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FormulaError(f"unexpected character {text[pos]!r} at position {pos}")
            break
        if m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            out.append(("int", m.group("int"), m.start("int")))
        else:
            out.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


@dataclass(frozen=True)
class LogitFormula:
    """Response name plus the hierarchically closed model terms.

    ``terms`` excludes the intercept, which is always present.  Each term is
    a tuple of variable names; the list is deduplicated and ordered by term
    size, then by first appearance of the variables in the formula.
    """

    response: str
    terms: tuple[tuple[str, ...], ...]

    @property
    def n_parameters(self) -> int:
        return len(self.terms) + 1

    def term_names(self) -> list[str]:
        return [term_name(t) for t in self.terms]

    def __str__(self):
        maximal = [t for t in self.terms
                   if not any(set(t) < set(o) for o in self.terms)]
        rhs = " + ".join("*".join(t) for t in maximal)
        return f"{self.response} : {rhs}" if rhs else f"{self.response} :"


def term_name(term: tuple[str, ...]) -> str:
    return ":".join(term)


def parse_formula(text: str) -> LogitFormula:
    """Parse ``RESP : term (+ term)*`` with ``term := var (* var)*`` or a
    parenthesized sum raised to a power, ``(a+b+c)^2``, expanding to all
    interactions up to that order.  ``~`` is accepted for ``:``; whitespace
    is insignificant.  ``RESP :`` alone is the intercept-only model."""
    tokens = _tokenize(text)
    i = 0

    def peek():
        return tokens[i]

    def take(kind, value=None):
        nonlocal i
        tk, tv, tp = tokens[i]
        if tk != kind or (value is not None and tv != value):
            want = value or kind
            raise FormulaError(f"expected {want!r} at position {tp}, found {tv or 'end of input'!r}")
        i += 1
        return tv

    response = take("name")
    tk, tv, tp = peek()
    if not (tk == "sym" and tv in (":", "~")):
        raise FormulaError(f"expected ':' or '~' at position {tp}")
    take("sym")

    appearance: dict[str, int] = {response: 0}

    def note(var):
        appearance.setdefault(var, len(appearance))
        return var

    products: list[tuple[str, ...]] = []

    def parse_group():
        take("sym", "(")
        names = [note(take("name"))]
        while peek()[:2] == ("sym", "+"):
            take("sym")
            names.append(note(take("name")))
        take("sym", ")")
        take("sym", "^")
        power_pos = peek()[2]
        power = int(take("int"))
        if power < 1:
            raise FormulaError(f"power must be >= 1 at position {power_pos}")
        for r in range(1, min(power, len(names)) + 1):
            products.extend(itertools.combinations(names, r))

    def parse_product():
        names = [note(take("name"))]
        while peek()[:2] == ("sym", "*"):
            take("sym")
            names.append(note(take("name")))
        products.append(tuple(names))

    while peek()[0] != "end":
        if peek()[:2] == ("sym", "("):
            parse_group()
        else:
            parse_product()
        if peek()[:2] == ("sym", "+"):
            take("sym")
            if peek()[0] == "end":
                raise FormulaError(f"dangling '+' at position {peek()[2]}")
            continue
        if peek()[0] != "end":
            tk, tv, tp = peek()
            raise FormulaError(f"unexpected {tv!r} at position {tp}")

    closed: set[tuple[str, ...]] = set()
    for prod in products:
        if response in prod:
            raise FormulaError(f"response {response!r} cannot appear as a regressor")
        if len(set(prod)) != len(prod):
            raise FormulaError(f"repeated variable in term {'*'.join(prod)}")
        ordered = tuple(sorted(prod, key=appearance.__getitem__))
        for r in range(1, len(ordered) + 1):
            closed.update(itertools.combinations(ordered, r))
    terms = sorted(closed, key=lambda t: (len(t), tuple(appearance[v] for v in t)))
    return LogitFormula(response=response, terms=tuple(terms))


@dataclass(frozen=True)
class LogitFit:
    """Maximum-likelihood fit of a logit model over regressor cells.

    Coefficient maps are keyed by term name (colon-joined variables, with
    ``(const)`` for the intercept).  An undefined standard error or z value
    is ``None``.  ``probabilities`` are fitted at the occupied flat C-order
    regressor cells ``cells``; equality does not compare the two arrays.
    """

    formula: LogitFormula
    regressors: tuple[str, ...]
    coefficients: dict
    se: dict
    z_obs: dict
    deviance_vs_saturated: float
    df: int
    cells: np.ndarray = field(compare=False)
    probabilities: np.ndarray = field(compare=False)
    converged: bool
    iterations: int
    message: str = field(default="", compare=False)

    @cached_property
    def fitted_probabilities(self) -> dict:
        """Probabilities keyed by regressor-cell level tuple, in C order."""
        levels = np.unravel_index(self.cells, (2,) * len(self.regressors))
        return dict(zip(zip(*[axis.tolist() for axis in levels]), self.probabilities.tolist()))

    @property
    def p_value(self) -> float:
        if self.df == 0:
            return 1.0
        return chi2_sf(self.deviance_vs_saturated, self.df)


def _terms(formula: LogitFormula, regressors) -> list[tuple[int, ...]]:
    """The intercept and the formula's terms as tuples of regressor axes."""
    idx = {v: i for i, v in enumerate(regressors)}
    for term in formula.terms:
        for v in term:
            if v not in idx:
                raise DataError(f"unknown variable {v!r} in formula")
    return [()] + [tuple(idx[v] for v in term) for term in formula.terms]


def _design(formula: LogitFormula, regressors, cells) -> np.ndarray:
    """Intercept and term columns at flat C-order indices of the regressor cells."""
    return term_columns(len(regressors), _terms(formula, regressors), cells)


def _grouped(observed: ContingencyTable, response: str):
    """Regressors and grouped binomial data (y, n) per regressor cell, the
    cells in C order of the regressors as they appear in ``observed``."""
    r_axis = observed.schema.axis(response)
    regressors = tuple(v for v in observed.variables if v != response)
    pairs = np.moveaxis(observed.counts, r_axis, -1).reshape(-1, 2)
    return regressors, pairs[:, 1], pairs[:, 0] + pairs[:, 1]


def _expit(eta):
    with np.errstate(over="ignore"):  # exp(-eta) = inf is p = 0
        return 1.0 / (1.0 + np.exp(-eta))


def _binomial_loglik(y, n, eta):
    # log-likelihood up to the constant binomial coefficients
    return float(np.sum(y * eta - n * np.logaddexp(0.0, eta)))


def fit_logit(observed: ContingencyTable, f: LogitFormula,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> LogitFit:
    """Fit a binomial logit for ``f.response`` over the cells of all other
    variables of ``observed``.

    IRLS from a zero start with step halving on likelihood decrease.
    Convergence requires the largest score component below ``tol`` and a
    relative deviance change below 1e-10.  Divergence, a step that 30
    halvings leave below the current log-likelihood (the fit keeps the
    coefficients it had) or an exhausted iteration budget returns
    ``converged=False`` with a diagnostic message.
    Regressor cells with no observations are dropped from the likelihood
    and from the saturated-model cell count.
    """
    regressors, y, n = _grouped(observed, f.response)
    if not regressors:
        raise DataError("no regressor variables in the table")
    occupied = np.flatnonzero(n > 0)
    y, n = y[occupied], n[occupied]

    X = _design(f, regressors, occupied)
    masks = term_masks(len(regressors), _terms(f, regressors))
    if X.shape[0] < X.shape[1]:
        raise DataError("more model terms than occupied regressor cells")

    beta = np.zeros(X.shape[1])
    loglik = _binomial_loglik(y, n, X @ beta)
    converged = False
    message = ""
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = X @ beta
        p = _expit(eta)
        score = X.T @ (y - n * p)
        info = cross_products(len(regressors), masks, occupied, n * p * (1.0 - p), X)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            message = "singular information matrix (separation or collinear terms)"
            break
        # step halving: never accept a likelihood decrease beyond the
        # rounding of a sum of magnitude |loglik|
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_ll = _binomial_loglik(y, n, X @ candidate)
            if cand_ll >= loglik - 1e-12 * (abs(loglik) + 1.0):
                break
            scale *= 0.5
        else:
            # every halving lowered the log-likelihood: keep beta and stop
            message = "step halving failed to increase the log-likelihood"
            break
        delta_ll = cand_ll - loglik
        beta, loglik = candidate, cand_ll
        if not np.all(np.isfinite(beta)):
            message = "diverging coefficients (separation)"
            break
        if np.max(np.abs(score)) < tol and abs(delta_ll) <= 1e-10 * (abs(loglik) + 1.0):
            converged = True
            break
    if not converged and not message:
        message = f"no convergence within {max_iter} iterations"

    eta = X @ beta
    if converged and np.max(np.abs(eta)) > 23.0:
        # fitted probabilities within 1e-10 of 0 or 1: the score vanishes
        # numerically while the MLE sits at infinity
        converged = False
        message = "fitted probabilities numerically 0 or 1 (separation)"
    p = _expit(eta)
    occupied.flags.writeable = p.flags.writeable = False  # the fit keeps both
    mu = n * p
    dev = deviance_of(np.concatenate([y, n - y]), np.concatenate([mu, n - mu]))

    info = cross_products(len(regressors), masks, occupied, n * p * (1.0 - p), X)
    try:
        variances = np.diag(np.linalg.inv(info)).tolist()
    except np.linalg.LinAlgError:
        variances = [math.nan] * X.shape[1]

    names = ["(const)"] + f.term_names()
    coefficients = dict(zip(names, beta.tolist()))
    # a singular information matrix or a negative variance leaves the SE
    # undefined, and a zero or undefined SE leaves z undefined
    se = {name: math.sqrt(v) if 0 <= v < math.inf else None
          for name, v in zip(names, variances)}
    z = {name: coefficients[name] / se[name] if se[name] else None for name in names}
    return LogitFit(
        formula=f,
        regressors=regressors,
        coefficients=coefficients,
        se=se,
        z_obs=z,
        deviance_vs_saturated=dev,
        df=len(occupied) - X.shape[1],
        cells=occupied,
        probabilities=p,
        converged=converged,
        iterations=iterations,
        message=message,
    )


def score_residuals(observed: ContingencyTable, fit: LogitFit) -> np.ndarray:
    """Score vector at the fitted coefficients, one entry per model term.

    Zero (to within convergence tolerance) at the maximum; exposed for the
    score-equation checks in the test suite."""
    regressors, y, n = _grouped(observed, fit.formula.response)
    shape = (2,) * len(regressors)
    levels = np.unravel_index(fit.cells, shape)  # in fit.regressors order
    cells = np.ravel_multi_index([levels[fit.regressors.index(v)] for v in regressors], shape)
    return _design(fit.formula, regressors, cells).T @ (y[cells] - n[cells] * fit.probabilities)


def loglik_and_gradient(observed: ContingencyTable, f: LogitFormula,
                        beta: np.ndarray) -> tuple[float, np.ndarray]:
    """Grouped-binomial log-likelihood (up to constants) and its gradient at
    an arbitrary coefficient vector, for derivative checks."""
    regressors, y, n = _grouped(observed, f.response)
    X = _design(f, regressors, np.arange(len(y)))
    beta = np.asarray(beta, dtype=float)
    eta = X @ beta
    p = _expit(eta)
    return _binomial_loglik(y, n, eta), X.T @ (y - n * p)


@dataclass(frozen=True)
class InteractionEstimate:
    estimate: float
    se: float | None
    z: float | None


def interaction_from_odds_ratios(strata) -> InteractionEstimate:
    """Log odds-ratio difference of differences across two binary modifiers.

    ``strata`` maps (m1, m2) level pairs to the four 2x2 tables.  The
    estimate is log or(1,1) - log or(1,0) - log or(0,1) + log or(0,0); its
    standard error is the square root of the summed reciprocals of all
    sixteen cells, which must all be positive.
    """
    needed = {(0, 0), (0, 1), (1, 0), (1, 1)}
    if set(strata) != needed:
        raise DataError("need exactly the four modifier-level strata")

    def log_or(t: TwoByTwo) -> float:
        if min(t.n11, t.n10, t.n01, t.n00) <= 0:
            raise DataError("interaction estimate needs all sixteen cells positive")
        return math.log((t.n11 * t.n00) / (t.n10 * t.n01))

    est = (log_or(strata[(1, 1)]) - log_or(strata[(1, 0)])
           - log_or(strata[(0, 1)]) + log_or(strata[(0, 0)]))
    cells = [c for t in strata.values() for c in (t.n11, t.n10, t.n01, t.n00)]
    se = math.sqrt(sum(1.0 / c for c in cells))
    return InteractionEstimate(est, se, est / se)


def fitted_odds_ratios(fit: LogitFit, pair: tuple[str, str], given,
                       rel_tol: float = 1e-6) -> dict:
    """Odds-ratios of (response, factor) from the fitted probabilities, one
    entry per level combination of ``given``.

    ``given`` may omit regressors; the ratio must then be constant over the
    omitted ones (as it is when they enter without interacting with the
    factor), otherwise this raises.  Keys are level tuples in the order of
    ``given`` as listed.
    """
    response, factor = pair
    if response != fit.formula.response:
        raise DataError(f"fit is for response {fit.formula.response!r}")
    if factor not in fit.regressors:
        raise DataError(f"factor {factor!r} not among the regressors")
    given = tuple(given)
    for v in given:
        if v not in fit.regressors or v == factor or given.count(v) > 1:
            raise DataError(f"bad conditioning variable {v!r}")

    k = len(fit.regressors)
    p, seen = np.zeros(1 << k), np.zeros(1 << k, dtype=bool)
    p[fit.cells], seen[fit.cells] = fit.probabilities, True
    hi, lo = strata_cells(k, fit.regressors.index(factor), map(fit.regressors.index, given))
    # the pairs with both cells occupied, stratum by stratum, each in C order
    occupied = seen[hi] & seen[lo]
    stratum, hi, lo = np.nonzero(occupied)[0], hi[occupied], lo[occupied]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (p[hi] / (1 - p[hi])) / (p[lo] / (1 - p[lo]))
    ratio[~np.isfinite(ratio)] = np.nan  # None: a zero denominator (1 - p1) p0
    # consecutive pairs of a stratum agree when both are None or both are
    # numbers within rel_tol, as math.isclose reads it
    prev, cur = ratio[:-1], ratio[1:]
    agree = ((np.abs(cur - prev) <= rel_tol * np.maximum(np.abs(cur), np.abs(prev)))
             | np.isnan(cur) & np.isnan(prev))
    varies = np.flatnonzero((stratum[1:] == stratum[:-1]) & ~agree) + 1
    keys = list(itertools.product((0, 1), repeat=len(given)))
    if varies.size:
        key = keys[stratum[varies[np.argmin(hi[varies])]]]
        raise DataError(
            f"odds-ratio varies within conditioning stratum {key}; condition on more variables")
    last = np.diff(stratum, append=-1) != 0
    return {keys[s]: None if math.isnan(r) else r
            for s, r in zip(stratum[last].tolist(), ratio[last].tolist())}
