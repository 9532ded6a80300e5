"""Hierarchical log-linear models for binary contingency tables.

A model is named by its generating class: the maximal interaction sets,
which for a graphical model are the cliques of its concentration graph.
Fitting is by iterative proportional fitting (IPF), which cyclically
rescales the table to match each generator margin and converges to the
maximum-likelihood fitted counts.  A conditional-independence model
a _||_ b | c is decomposable and is fitted in closed form instead
(``measures.independence_fit``).

Conventions used throughout:
  deviance  = 2 sum n log(n / m),  with 0 log 0 = 0;
  df        = cells - number of distinct generator subsets (incl. empty);
  structural zeros are preserved (a zero generator margin pins its cells
  at zero) and df is not adjusted for sampling zeros.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .measures import deviance_of, independence_fit, pearson_of
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
    first two regressors independent of the third, whose MLE has the closed
    form m[j, k, l] = n[j, k, +] * n[+, +, l] / n_total.  Regressors are
    taken in schema order.
    """
    if len(observed.schema) != 4:
        raise DataError("closed form needs the response plus exactly three regressors")
    observed.schema.axis(response)
    cases = observed.slice_l(response, 1)
    controls = observed.slice_l(response, 0)
    if controls.total <= 0:
        raise DataError("control slice is empty")
    return CaseControlClosedForm(
        cases=ContingencyTable(cases.schema, cases.counts),
        controls=ContingencyTable(controls.schema,
                                  independence_fit(controls.counts, (0, 1), (2,))),
    )


# -- sequential deviance decomposition --------------------------------------

def independence_test(observed: ContingencyTable,
                      stmt: graphs.IndependenceStatement) -> tuple[float, int]:
    """Likelihood-ratio statistic and df for a _||_ b | c in the margin of
    the variables it mentions, against the closed-form fit n(ac) n(bc) / n(c)
    on 2^|c| (2^|a| - 1) (2^|b| - 1) df."""
    margin = observed.marginalize(stmt.a | stmt.b | stmt.c)
    if margin.total <= 0:
        raise DataError("cannot fit an empty table")
    axes = margin.schema.axis
    fitted = independence_fit(margin.counts, [axes(v) for v in stmt.a],
                              [axes(v) for v in stmt.b])
    df = 2 ** len(stmt.c) * (2 ** len(stmt.a) - 1) * (2 ** len(stmt.b) - 1)
    return deviance_of(margin.counts, fitted), df


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
        out.append(independence_test(observed, stmt))
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

    Starts from the edgeless graph; at each round tests every single-edge
    extension against the current graph and adds the edge with the smallest
    deviance-difference p-value, provided it is below ``alpha``.  Ties break
    on the lexicographically smallest edge.

    A candidate's deviance is not refitted on the whole table.  The graph is
    split by a complete separator S (the empty set when it is disconnected)
    into pieces P_1..P_r, one per component of G - S with S added back, and

        dev(V) = sum dev(P_i) + 2 [H(V) - sum H(P_i) + (r - 1) H(S)],

    with H(A) = sum n log n over the observed margin of A (Frydenberg &
    Lauritzen 1989).  Pieces are split again until they are complete, with
    deviance 0, or prime; a prime piece is fitted by ``fit_ipf`` in its own
    margin, with ``tol`` and ``max_iter``.  Adding u-v lowers df by the
    number of complete subsets of the common neighbourhood of u and v, the
    empty set included.  Entropies and piece deviances are memoized, keyed
    by node set and the edges inside it, for the length of one call; a
    candidate re-evaluates only the pieces that its edge touches.

    A prime piece that has not been fitted counts first as deviance 0, which
    bounds its candidate's p-value from below.  The piece is fitted only if
    that bound is below ``alpha`` and below the best exact (p, edge) of the
    round, so the selected graph is the one that fitting every candidate
    would give.

    Prime-piece fits that stop at ``max_iter`` before reaching ``tol`` rank
    candidates by unconverged deviances; one ``RuntimeWarning`` per call
    gives their count.
    """
    if not 0 < alpha < 1:
        raise DataError("alpha must lie in (0, 1)")
    if tol <= 0:
        raise DataError("tol must be positive")
    if observed.total <= 0:
        raise DataError("cannot fit an empty table")
    nodes = observed.variables
    axis = {n: i for i, n in enumerate(nodes)}
    pieces = _Pieces(observed, tol, max_iter)
    everything = (1 << len(nodes)) - 1
    adj = [0] * len(nodes)  # neighbours of each axis, as a bit mask
    edges: set[tuple[str, str]] = set()

    current_dev, _ = pieces.deviance(everything, adj)
    all_pairs = sorted(tuple(sorted(p)) for p in itertools.combinations(nodes, 2))
    while True:
        best, bounded = None, []
        for edge in all_pairs:
            if edge in edges:
                continue
            u, v = axis[edge[0]], axis[edge[1]]
            ddf = _complete_subsets(adj[u] & adj[v], adj)
            cand = adj.copy()
            cand[u] |= 1 << v
            cand[v] |= 1 << u
            dev, exact = pieces.deviance(everything, cand, fit=False)
            p = chi2_sf(max(current_dev - dev, 0.0), ddf)
            if not exact:
                bounded.append((p, edge, ddf, cand))
            elif best is None or (p, edge) < best[:2]:
                best = (p, edge, dev, cand)
        # lower bounds on p, from unfitted prime pieces counted as deviance 0
        for p, edge, ddf, cand in sorted(bounded):
            if p >= alpha or best is not None and (p, edge) > best[:2]:
                break
            dev, _ = pieces.deviance(everything, cand)
            p = chi2_sf(max(current_dev - dev, 0.0), ddf)
            if best is None or (p, edge) < best[:2]:
                best = (p, edge, dev, cand)
        if best is None or best[0] >= alpha:
            break
        _, edge, current_dev, adj = best
        edges.add(edge)
    if pieces.unconverged:
        warnings.warn(f"forward selection: {pieces.unconverged} of {pieces.fits} piece fits"
                      f" did not converge after {max_iter} sweeps", RuntimeWarning,
                      stacklevel=2)
    return graphs.full_line_graph(nodes, edges)


def _bits(mask: int):
    """Set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _complete_subsets(mask: int, adj) -> int:
    """Number of complete subsets of the graph induced on ``mask``, the
    empty set included.  Each stack entry is the set of vertices that can
    extend one complete subset, all of them above its largest vertex."""
    count, stack = 0, [mask]
    while stack:
        extend = stack.pop()
        count += 1
        for v in _bits(extend):
            extend ^= 1 << v
            stack.append(extend & adj[v])
    return count


def _components(mask: int, adj) -> list[int]:
    """Connected components of the graph induced on ``mask``."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        mask &= ~comp
    return comps


def _split(mask: int, adj):
    """A complete separator S of the graph induced on ``mask``, smallest
    first, and the pieces C + S, one per component C of the graph less S;
    None when no complete set separates the graph."""
    queue = [(0, mask)]  # complete subsets, each with its possible extensions
    for sep, extend in queue:  # the queue grows while it is read
        comps = _components(mask & ~sep, adj)
        if len(comps) > 1:
            return sep, [c | sep for c in comps]
        for v in _bits(extend):
            extend ^= 1 << v
            queue.append((sep | 1 << v, extend & adj[v]))
    return None


class _Pieces:
    """Entropies H(A) = sum n log n of the margins of one observed table and
    deviances of graphical models in them, memoized in plain containers that
    live as long as the instance.  ``fits`` and ``unconverged`` count the
    prime-piece fits and those that stopped at ``max_iter``."""

    def __init__(self, observed: ContingencyTable, tol: float, max_iter: int):
        self.observed = observed
        self.tol = tol
        self.max_iter = max_iter
        self.entropies: dict[int, float] = {}
        self.deviances: dict[int, float] = {}
        self.fits = self.unconverged = 0

    def entropy(self, mask: int) -> float:
        if mask not in self.entropies:
            counts = self.observed.counts
            drop = tuple(i for i in range(counts.ndim) if not mask >> i & 1)
            margin = np.asarray(counts.sum(axis=drop))  # a 0-d total for mask 0
            self.entropies[mask] = 0.5 * deviance_of(margin, np.ones_like(margin))
        return self.entropies[mask]

    def deviance(self, mask: int, adj, fit: bool = True) -> tuple[float, bool]:
        """Deviance of the graph induced on ``mask``, in the margin of
        ``mask``, and whether it is exact.  Without ``fit`` a prime piece
        that has not been fitted yet counts as 0, which gives a lower bound."""
        # the key packs the node set and each node's neighbours in it into one int
        key, complete, rest, width = mask, True, mask, len(adj)
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            key |= (adj[v] & mask) << width * (v + 1)
            complete = complete and adj[v] & mask | low == mask
        if key in self.deviances:
            return self.deviances[key], True
        if complete:
            dev, exact = 0.0, True
        elif (split := _split(mask, adj)) is None:
            if not fit:
                return 0.0, False
            dev, exact = self._fit_prime(mask, adj), True
        else:
            sep, parts = split
            devs = [self.deviance(part, adj, fit) for part in parts]
            dev = sum(d for d, _ in devs) + 2.0 * (
                self.entropy(mask) - sum(self.entropy(part) for part in parts)
                + (len(parts) - 1) * self.entropy(sep))
            exact = all(e for _, e in devs)
        if exact:
            self.deviances[key] = dev
        return dev, exact

    def _fit_prime(self, mask: int, adj) -> float:
        names = self.observed.variables
        pairs = [(names[v], names[w]) for v in _bits(mask) for w in _bits(adj[v] & mask) if w > v]
        margin = self.observed.marginalize([names[v] for v in _bits(mask)])
        spec = clique_spec(margin.schema, graphs.full_line_graph(margin.variables, pairs))
        fit = fit_ipf(margin, spec, tol=self.tol, max_iter=self.max_iter)
        self.fits += 1
        self.unconverged += not fit.converged
        return fit.deviance


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
