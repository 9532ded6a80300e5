"""Hierarchical log-linear models for binary contingency tables.

A model is named by its generating class: the maximal interaction sets,
which for a graphical model are the cliques of its concentration graph.
Fitting is by iterative proportional fitting (IPF), which cyclically
rescales the table to match each generator margin and converges to the
maximum-likelihood fitted counts.

Conventions used throughout:
  deviance  = 2 sum n log(n / m),  with 0 log 0 = 0;
  df        = cells - number of distinct generator subsets (incl. empty);
  structural zeros are preserved (a zero generator margin pins its cells
  at zero) and df is not adjusted for sampling zeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .measures import deviance_of, pearson_of
from .special import chi2_sf
from .tables import ContingencyTable, DataError, Schema, term_columns

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000


def _terms(schema: Schema, generators) -> tuple[tuple[int, ...], ...]:
    """The hierarchical expansion: every distinct subset of the generators,
    the empty set included, as a tuple of axes, ordered by size and then
    by axes."""
    terms = {()}
    for g in generators:
        axes = sorted(schema.axis(v) for v in g)
        for r in range(1, len(axes) + 1):
            terms.update(itertools.combinations(axes, r))
    return tuple(sorted(terms, key=lambda t: (len(t), t)))


@dataclass(frozen=True)
class LoglinearSpec:
    """A generating class: nonempty variable subsets, none contained in another.

    Construction reduces the generators to the minimal representation,
    orders them deterministically and expands them into ``terms``.
    """

    schema: Schema
    generators: tuple[tuple[str, ...], ...]
    terms: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = [frozenset(g) for g in self.generators]
        if not gens or any(not g for g in gens):
            raise DataError("generators must be nonempty")
        # the expansion looks up, and so checks, every variable name
        object.__setattr__(self, "terms", _terms(self.schema, gens))
        minimal = [g for g in gens if not any(g < other for other in gens)]
        dedup = sorted({tuple(sorted(g)) for g in minimal}, key=lambda g: (len(g), g))
        object.__setattr__(self, "generators", tuple(dedup))

    def n_parameters(self) -> int:
        """Free parameters of the hierarchical expansion: all distinct
        subsets of the generators, including the empty set."""
        return len(self.terms)

    def df(self) -> int:
        return 2 ** len(self.schema) - self.n_parameters()

    def to_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}


@dataclass(frozen=True)
class LoglinearFit:
    fitted: ContingencyTable
    deviance: float
    pearson_chi2: float
    df: int
    iterations: int
    converged: bool
    max_margin_gap: float

    @property
    def p_value(self) -> float:
        if self.df == 0:
            return 1.0
        return chi2_sf(self.deviance, self.df)


def _margin_axes(schema: Schema, names) -> tuple[int, ...]:
    return tuple(sorted(schema.axis(n) for n in names))


def fit_ipf(observed: ContingencyTable, spec: LoglinearSpec,
            tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> LoglinearFit:
    """Fit a hierarchical log-linear model by iterative proportional fitting.

    Cycles through the generator margins, rescaling the working table to
    match each observed margin, until the largest absolute margin gap falls
    below ``tol``.  Non-convergence within ``max_iter`` cycles returns a fit
    flagged ``converged=False`` rather than raising.
    """
    if observed.schema != spec.schema:
        raise DataError("observed table and spec use different schemas")
    if tol <= 0:
        raise DataError("tol must be positive")
    if observed.total <= 0:
        raise DataError("cannot fit an empty table")

    obs = observed.counts
    k = obs.ndim
    gen_axes = [_margin_axes(spec.schema, g) for g in spec.generators]
    drop_axes = [tuple(i for i in range(k) if i not in axes) for axes in gen_axes]
    obs_margins = [obs.sum(axis=drop, keepdims=True) for drop in drop_axes]

    fit = np.ones_like(obs)
    gap = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        for om, drop in zip(obs_margins, drop_axes):
            fm = fit.sum(axis=drop, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(fm > 0, om / np.where(fm > 0, fm, 1.0), 0.0)
            fit = fit * ratio
        gap = max(
            float(np.max(np.abs(om - fit.sum(axis=drop, keepdims=True))))
            for om, drop in zip(obs_margins, drop_axes)
        )
        if gap < tol:
            break
    converged = gap < tol

    return LoglinearFit(
        fitted=ContingencyTable(spec.schema, fit, zero_total=float(fit.sum()) == 0.0),
        deviance=deviance_of(obs, fit),
        pearson_chi2=pearson_of(obs, fit),
        df=spec.df(),
        iterations=iterations,
        converged=converged,
        max_margin_gap=gap,
    )


# -- closed-form case/control estimator -------------------------------------

@dataclass(frozen=True)
class CaseControlClosedForm:
    """Per-slice fitted tables over the three regressors."""

    cases: ContingencyTable
    controls: ContingencyTable


def fit_closed_form_casecontrol(observed: ContingencyTable,
                                response: str = "L") -> CaseControlClosedForm:
    """Closed-form joint estimate from a four-variable case-control table.

    The case slice (response = 1) is left saturated: fitted counts equal the
    observed ones.  The control slice is fitted with the joint margin of the
    first two regressors independent of the third,

        m[j, k, l] = n[j, k, +] * n[+, +, l] / n_total,

    which coincides with IPF under the generators {first two} and {third}.
    Regressors are taken in schema order.
    """
    if len(observed.schema) != 4:
        raise DataError("closed form needs the response plus exactly three regressors")
    observed.schema.axis(response)
    regressors = tuple(v for v in observed.variables if v != response)

    cases = observed.slice_l(response, 1)
    controls = observed.slice_l(response, 0)
    if controls.total <= 0:
        raise DataError("control slice is empty")

    arr = controls.counts
    jk = arr.sum(axis=2)
    l_margin = arr.sum(axis=(0, 1))
    fitted = jk[:, :, None] * l_margin[None, None, :] / controls.total
    return CaseControlClosedForm(
        cases=ContingencyTable(Schema(regressors), cases.counts),
        controls=ContingencyTable(Schema(regressors), fitted),
    )


# -- sequential deviance decomposition --------------------------------------

def independence_spec(schema: Schema, stmt: graphs.IndependenceStatement) -> LoglinearSpec:
    """Log-linear spec whose only constraint is a _||_ b | c; the schema must
    consist of exactly a + b + c."""
    names = set(schema.variables)
    if stmt.a | stmt.b | stmt.c != names:
        raise DataError("statement variables must cover the margin exactly")
    return LoglinearSpec(schema, (tuple(stmt.a | stmt.c), tuple(stmt.b | stmt.c)))


def independence_test(observed: ContingencyTable, stmt: graphs.IndependenceStatement,
                      tol: float = DEFAULT_TOL) -> tuple[float, int]:
    """Likelihood-ratio statistic and df for a _||_ b | c in the margin of
    the variables it mentions."""
    margin = observed.marginalize(stmt.a | stmt.b | stmt.c)
    spec = independence_spec(margin.schema, stmt)
    fit = fit_ipf(margin, spec, tol=tol)
    return fit.deviance, fit.df


def deviance_decomposition(observed: ContingencyTable,
                           sequence) -> list[tuple[float, int]]:
    """Evaluate a sequence of (statement, margin) independence tests.

    Each step tests its statement in the stated margin of ``observed``.
    For a telescoping sequence (each margin drops the previous step's b
    variables, and each conditioning set is the next margin minus a) the
    step statistics add up to the deviance of the joint independence model;
    the property is exercised in the tests, not enforced here.
    """
    steps = list(sequence)
    if not steps:
        raise DataError("empty sequence")
    prev_margin: set | None = None
    out = []
    for stmt, margin in steps:
        margin = set(margin)
        if stmt.a | stmt.b | stmt.c != margin:
            raise DataError(f"step {stmt} does not match its margin {sorted(margin)}")
        if prev_margin is not None and not margin <= prev_margin:
            raise DataError("each margin must be contained in the previous one")
        prev_margin = margin
        out.append(independence_test(observed.marginalize(margin), stmt))
    return out


def peel_sequence(response: str, order) -> list[tuple[graphs.IndependenceStatement, set]]:
    """Telescoping sequence testing ``response`` against variables peeled in
    ``order``: response _||_ x1 | rest, then the same in the margin without
    x1, and so on down to the final unconditional step."""
    order = list(order)
    seq = []
    remaining = list(order)
    for var in order:
        remaining.remove(var)
        stmt = graphs.IndependenceStatement(
            frozenset({response}), frozenset({var}), frozenset(remaining))
        seq.append((stmt, {response, var, *remaining}))
    return seq


# -- forward selection of concentration graphs ------------------------------

def clique_spec(schema: Schema, graph: graphs.MixedGraph) -> LoglinearSpec:
    """Generating class of a concentration graph: its maximal cliques."""
    return LoglinearSpec(schema, tuple(graphs.cliques(graph)))


def forward_select(observed: ContingencyTable, alpha: float, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> graphs.MixedGraph:
    """Greedy forward selection within the class of concentration graphs.

    Starts from the edgeless graph; at each round fits every single-edge
    extension via the cliques of the candidate graph and adds the edge with
    the smallest deviance-difference p-value, provided it is below ``alpha``.
    Ties break on the lexicographically smallest edge.  ``tol`` and
    ``max_iter`` apply to every candidate fit.  Candidate evaluations are
    independent, so the loop is trivially parallelizable; the reduction
    order used here is deterministic either way.
    """
    if not 0 < alpha < 1:
        raise DataError("alpha must lie in (0, 1)")
    nodes = observed.variables
    edges: set[tuple[str, str]] = set()

    def fit_for(edge_set):
        g = graphs.full_line_graph(nodes, edge_set)
        fit = fit_ipf(observed, clique_spec(observed.schema, g), tol=tol, max_iter=max_iter)
        return fit.deviance, fit.df

    current_dev, current_df = fit_for(edges)
    all_pairs = [tuple(sorted(p)) for p in itertools.combinations(nodes, 2)]
    while True:
        best = None
        for edge in sorted(all_pairs):
            if edge in edges:
                continue
            dev, df = fit_for(edges | {edge})
            ddf = current_df - df
            drop = max(current_dev - dev, 0.0)
            p = chi2_sf(drop, ddf) if ddf > 0 else 1.0
            if best is None or (p, edge) < (best[0], best[1]):
                best = (p, edge, dev, df)
        if best is None or best[0] >= alpha:
            break
        edges.add(best[1])
        current_dev, current_df = best[2], best[3]
    return graphs.full_line_graph(nodes, edges)


# -- variances of fitted log-count contrasts --------------------------------

def term_design(schema: Schema, generators) -> np.ndarray:
    """Design matrix of the hierarchical expansion: one row per cell in
    lexicographic order, one dummy-coded column per distinct generator
    subset (a column of ones for the empty set).

    Columns are bit masks of the flat cell index (``tables.term_columns``).
    """
    return term_columns(len(schema), _terms(schema, generators),
                        np.arange(2 ** len(schema)))


def contrast_variances(fit: LoglinearFit, spec: LoglinearSpec, hi, lo) -> np.ndarray:
    """Asymptotic variances of the fitted log-count contrasts
    log m[hi] - log m[lo], one per pair of flat C-order cell indices.

    With X the term design, W = diag(fitted) and D = X[hi] - X[lo], the
    variances are the diagonal of D (X'WX)^-1 D', computed without forming
    the cells-by-cells covariance X (X'WX)^-1 X'.  The contrasts sum to
    zero, where the Poisson and multinomial sampling schemes agree.  A
    contrast that touches a fitted zero has an undefined log and gives NaN;
    the others stay estimable from the positive cells, for which a
    pseudo-inverse of a singular X'WX is as good as the inverse.
    """
    hi, lo = np.asarray(hi), np.asarray(lo)
    X = term_design(spec.schema, spec.generators)
    w = fit.fitted.counts.ravel()
    info = X.T @ (X * w[:, None])
    D = X[hi] - X[lo]
    var = np.sum(D * np.linalg.lstsq(info, D.T, rcond=None)[0].T, axis=1)
    var[(w[hi] == 0) | (w[lo] == 0)] = np.nan
    return var
