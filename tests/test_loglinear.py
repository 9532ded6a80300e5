import gc
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import (
    ContingencyTable,
    DataError,
    IndependenceStatement,
    LoglinearSpec,
    Schema,
    deviance_decomposition,
    fit_closed_form_casecontrol,
    fit_ipf,
    forward_select,
    from_cells,
    peel_sequence,
    independence_test,
)
from casecontrol import graphs, loglinear
from casecontrol.graphs import full_line_graph
from casecontrol.measures import deviance_of, independence_fit, pearson_of
from casecontrol.loglinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _complete_subsets,
    _Pieces,
    clique_spec,
)
from casecontrol.special import chi2_sf
from casecontrol.tables import term_columns

from conftest import table_strategy


def spec_for(table, *gens):
    return LoglinearSpec(table.schema, tuple(tuple(g) for g in gens))


# -- spec construction ---------------------------------------------------------

def test_spec_minimal_representation(study):
    spec = spec_for(study, ("L", "V"), ("V",), ("L",), ("C",))
    assert spec.generators == (("C",), ("L", "V"))


def test_spec_rejects_empty_and_unknown(study):
    with pytest.raises(DataError):
        spec_for(study)
    with pytest.raises(DataError):
        spec_for(study, ())
    with pytest.raises(DataError, match="unknown variable"):
        spec_for(study, ("L", "S"))


def test_parameter_count():
    schema = Schema(("A", "B", "C"))
    spec = LoglinearSpec(schema, (("A", "B"), ("C",)))
    # subsets: {}, A, B, AB, C
    assert spec.n_parameters() == 5
    assert spec.df() == 3


# -- IPF basics ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(table_strategy(min_vars=2, max_vars=2, min_count=1))
def test_independence_fit_closed_form_2x2(t):
    fit = fit_ipf(t, spec_for(t, ("A",), ("B",)))
    closed = independence_fit(t.counts, (0,), (1,))
    n = t.total
    for (i, j), _ in t.cells():
        row = t.marginalize({"A"}).cell({"A": i})
        col = t.marginalize({"B"}).cell({"B": j})
        assert fit.fitted.cell({"A": i, "B": j}) == pytest.approx(row * col / n, rel=1e-10)
        assert closed[i, j] == pytest.approx(row * col / n, rel=1e-10)


def test_saturated_fit_has_zero_deviance(study):
    spec = spec_for(study, tuple(study.variables))
    fit = fit_ipf(study, spec)
    assert fit.deviance == pytest.approx(0.0, abs=1e-10)
    assert fit.df == 0
    assert fit.p_value == 1.0


def test_age_separation_model(study):
    obs = study.marginalize({"L", "V", "C", "R", "A"})
    fit = fit_ipf(obs, spec_for(obs, ("L", "V", "C", "R"), ("A", "C", "L")))
    assert fit.converged
    assert fit.deviance == pytest.approx(4.7, abs=0.1)
    assert fit.df == 12
    # a couple of fitted counts against the reference estimates
    assert fit.fitted.cell({"V": 0, "A": 0, "C": 0, "R": 0, "L": 0}) == pytest.approx(43.24, abs=0.01)
    assert fit.fitted.cell({"V": 1, "A": 1, "C": 1, "R": 0, "L": 1}) == pytest.approx(10.46, abs=0.01)


def test_cases_clique_model(cases):
    fit = fit_ipf(cases, spec_for(cases, ("V", "C", "R"), ("C", "A"), ("E",)))
    assert fit.deviance == pytest.approx(16.2, abs=0.1)
    assert fit.df == 21


def test_controls_clique_model(controls):
    fit = fit_ipf(controls, spec_for(controls, ("V", "C"), ("A", "E"), ("E", "R")))
    assert fit.deviance == pytest.approx(17.9, abs=0.1)
    assert fit.df == 23


def test_vodka_region_separation_variants(study):
    obs5 = study.marginalize({"L", "V", "C", "R", "A"})
    fit5 = fit_ipf(obs5, spec_for(obs5, ("V", "C", "L", "A"), ("R", "C", "L", "A")))
    assert fit5.deviance == pytest.approx(11.0, abs=0.1)
    assert fit5.df == 8
    obs4 = study.marginalize({"L", "V", "C", "R"})
    fit4 = fit_ipf(obs4, spec_for(obs4, ("V", "C", "L"), ("R", "C", "L")))
    assert fit4.deviance == pytest.approx(10.7, abs=0.1)
    assert fit4.df == 4
    assert fit4.p_value == pytest.approx(0.03, abs=0.005)


def test_fit_requires_matching_schema(study, cases):
    spec = spec_for(cases, ("V", "C"))
    with pytest.raises(DataError, match="different schemas"):
        fit_ipf(study, spec)


def test_nonconvergence_is_flagged_not_raised(study):
    # a non-decomposable model cannot settle in a single sweep
    obs = study.marginalize({"L", "V", "C"})
    spec = LoglinearSpec(obs.schema, (("L", "V"), ("V", "C"), ("C", "L")))
    fit = fit_ipf(obs, spec, tol=1e-12, max_iter=1)
    assert not fit.converged
    assert fit.max_margin_gap > 1e-12
    full = fit_ipf(obs, spec, tol=1e-12)
    assert full.converged


@settings(max_examples=40, deadline=None)
@given(t=table_strategy(min_vars=4, max_vars=4, min_count=0), data=st.data())
def test_generator_margins_match_observed(t, data):
    variables = list(t.variables)
    n_gens = data.draw(st.integers(1, 3))
    gens = tuple(
        tuple(data.draw(st.sets(st.sampled_from(variables), min_size=1, max_size=3)))
        for _ in range(n_gens))
    fit = fit_ipf(t, LoglinearSpec(t.schema, gens))
    assert fit.converged
    assert fit.max_margin_gap < 1e-8
    for g in gens:
        obs_m = t.marginalize(set(g))
        fit_m = fit.fitted.marginalize(set(g))
        assert np.allclose(obs_m.counts, fit_m.counts, atol=1e-8)
    assert fit.fitted.total == pytest.approx(t.total, rel=1e-8)
    assert fit.deviance >= -1e-12


def test_margin_preservation_four_to_six_variables():
    rng = np.random.default_rng(7)
    names = "ABCDEF"
    for k in (4, 5, 6):
        schema = Schema(tuple(names[:k]))
        counts = rng.integers(0, 30, size=2 ** k).astype(float)
        counts[0] += 1  # ensure positive total
        t = ContingencyTable(schema, counts)
        gens = tuple(
            tuple(rng.choice(list(schema.variables), size=rng.integers(1, k), replace=False))
            for _ in range(3))
        fit = fit_ipf(t, LoglinearSpec(schema, gens))
        assert fit.max_margin_gap < 1e-8
        for g in gens:
            assert np.allclose(t.marginalize(set(g)).counts,
                               fit.fitted.marginalize(set(g)).counts, atol=1e-8)


def test_structural_zero_margins_preserved():
    # no observations at B=1: the fitted table keeps that margin at zero
    t = from_cells(("A", "B"), {(0, 0): 5.0, (1, 0): 7.0})
    fit = fit_ipf(t, spec_for(t, ("A",), ("B",)))
    assert fit.fitted.cell({"A": 0, "B": 1}) == 0.0
    assert fit.fitted.cell({"A": 1, "B": 1}) == 0.0
    assert np.isfinite(fit.deviance)


def test_empty_table_rejected():
    t = from_cells(("A", "B"), {(0, 0): 1.0}).condition({"A": 1})
    with pytest.raises(DataError, match="empty"):
        fit_ipf(t, LoglinearSpec(t.schema, (("B",),)))


def parent_fit_ipf(observed, spec, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """IPF with a full margin pass for the gap check after every sweep: the
    loop that the shared first margin replaced, kept verbatim."""
    obs = observed.counts
    k = obs.ndim
    gen_axes = [loglinear._margin_axes(spec.schema, g) for g in spec.generators]
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

    return loglinear.LoglinearFit(
        fitted=ContingencyTable(spec.schema, fit, zero_total=float(fit.sum()) == 0.0),
        deviance=deviance_of(obs, fit),
        pearson_chi2=pearson_of(obs, fit),
        df=spec.df(),
        iterations=iterations,
        converged=converged,
        max_margin_gap=gap,
    )


@st.composite
def ipf_cases(draw):
    """A 3-7 variable table with integer or real counts and many zeros, a
    model of random generators, often with a cycle, a tolerance and a sweep
    budget."""
    k = draw(st.integers(3, 7))
    cell = (st.integers(0, 40).map(float) if draw(st.booleans())
            else st.floats(0, 1e6, allow_subnormal=False) | st.just(0.0))
    counts = draw(st.lists(cell, min_size=2 ** k, max_size=2 ** k).filter(lambda xs: sum(xs) > 0))
    t = ContingencyTable(Schema(tuple("ABCDEFG"[:k])), np.array(counts))
    gens = draw(st.lists(st.sets(st.sampled_from(t.variables), min_size=1, max_size=k - 1),
                         min_size=1, max_size=4))
    if draw(st.booleans()):  # a chordless cycle of pairs: IPF needs many sweeps
        cycle = draw(st.permutations(t.variables))[:draw(st.integers(3, k))]
        gens += [{u, v} for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    return (t, LoglinearSpec(t.schema, tuple(tuple(sorted(g)) for g in gens)),
            draw(st.sampled_from((1e-4, 1e-8, 1e-11))),
            draw(st.sampled_from((1, 2, 3, 50, 10000))))


@settings(max_examples=100, deadline=None)
@given(ipf_cases())
def test_fit_ipf_matches_the_full_gap_pass_byte_for_byte(case):
    t, spec, tol, max_iter = case
    fit, ref = fit_ipf(t, spec, tol, max_iter), parent_fit_ipf(t, spec, tol, max_iter)
    assert fit.fitted.counts.tobytes() == ref.fitted.counts.tobytes()
    assert fit.fitted.zero_total == ref.fitted.zero_total
    assert (fit.iterations, fit.converged, fit.df) == (ref.iterations, ref.converged, ref.df)
    for name in ("max_margin_gap", "deviance", "pearson_chi2"):
        assert repr(getattr(fit, name)) == repr(getattr(ref, name)), name


# -- closed-form case-control estimator -----------------------------------------

def test_closed_form_control_estimates(study):
    closed = fit_closed_form_casecontrol(study.marginalize({"L", "V", "C", "R"}))
    expected = {
        (0, 0, 0): 77.8, (1, 0, 0): 4.6, (0, 1, 0): 22.4, (1, 1, 0): 3.2,
        (0, 0, 1): 193.2, (1, 0, 1): 11.4, (0, 1, 1): 55.6, (1, 1, 1): 7.8,
    }
    for (v, c, r), value in expected.items():
        assert closed.controls.cell({"V": v, "C": c, "R": r}) == pytest.approx(value, abs=0.05)


def test_closed_form_cases_are_saturated(study, cases):
    closed = fit_closed_form_casecontrol(study.marginalize({"L", "V", "C", "R"}))
    assert closed.cases == cases.marginalize({"V", "C", "R"})


def test_closed_form_matches_ipf(study):
    lvcr = study.marginalize({"L", "V", "C", "R"})
    closed = fit_closed_form_casecontrol(lvcr)
    controls = lvcr.slice_l("L", 0)
    fit = fit_ipf(controls, spec_for(controls, ("V", "C"), ("R",)), tol=1e-12)
    assert np.allclose(closed.controls.counts, fit.fitted.counts, atol=1e-8)


def test_closed_form_requires_four_variables(study):
    with pytest.raises(DataError):
        fit_closed_form_casecontrol(study)
    with pytest.raises(DataError, match="empty"):
        empty_ctrl = from_cells(("L", "A", "B", "C"), {(1, 0, 0, 0): 4.0})
        fit_closed_form_casecontrol(empty_ctrl)



@settings(max_examples=100, deadline=None)
@given(t=table_strategy(min_vars=4, max_vars=4, max_count=20))
def test_closed_form_is_the_explicit_formula(t):
    cases, controls = t.slice_l("A", 1), t.slice_l("A", 0)
    if cases.total == 0 or controls.total == 0:
        with pytest.raises(DataError, match="empty" if controls.total == 0 else "positive"):
            fit_closed_form_casecontrol(t, response="A")
        return
    closed = fit_closed_form_casecontrol(t, response="A")
    n = controls.counts
    formula = n.sum(axis=2)[:, :, None] * n.sum(axis=(0, 1))[None, None, :] / controls.total
    assert closed.controls.variables == ("B", "C", "D")
    np.testing.assert_allclose(closed.controls.counts, formula, rtol=1e-14, atol=0)
    assert closed.cases == cases


# -- deviance decomposition -------------------------------------------------------

def test_cases_education_decomposition(cases):
    seq = peel_sequence("E", ("A", "R", "V", "C"))
    steps = deviance_decomposition(cases, seq)
    expected = [(5.3, 8), (3.7, 4), (2.9, 2), (1.2, 1)]
    for (dev, df), (edev, edf) in zip(steps, expected):
        assert dev == pytest.approx(edev, abs=0.1)
        assert df == edf
    # the steps add up to the joint independence deviance
    joint = independence_test(
        cases, IndependenceStatement(
            frozenset("E"), frozenset({"A", "R", "V", "C"})))
    assert sum(d for d, _ in steps) == pytest.approx(joint[0], abs=1e-6)
    assert sum(df for _, df in steps) == joint[1]


def test_cases_age_step(cases):
    # the complementary step: A _||_ V,R | C after dropping E
    vcra = cases.marginalize({"V", "C", "R", "A"})
    dev, df = independence_test(
        vcra, IndependenceStatement(frozenset("A"), frozenset({"V", "R"}), frozenset("C")))
    assert dev == pytest.approx(3.0, abs=0.1)
    assert df == 6


def test_single_step_decomposition_equals_direct_fit(cases):
    stmt = IndependenceStatement(frozenset("E"), frozenset({"V", "C"}), frozenset({"R", "A"}))
    steps = deviance_decomposition(cases, [(stmt, set("EVCRA"))])
    fit = fit_ipf(cases, spec_for(cases, ("E", "R", "A"), ("V", "C", "R", "A")))
    assert steps[0][0] == pytest.approx(fit.deviance, rel=1e-9, abs=1e-12)
    assert steps[0][1] == fit.df


@settings(max_examples=30, deadline=None)
@given(t=table_strategy(min_vars=4, max_vars=4, min_count=1), data=st.data())
def test_peel_decomposition_telescopes(t, data):
    response = data.draw(st.sampled_from(list(t.variables)))
    others = [v for v in t.variables if v != response]
    order = data.draw(st.permutations(others))
    steps = deviance_decomposition(t, peel_sequence(response, order))
    joint, joint_df = independence_test(
        t, IndependenceStatement(frozenset({response}), frozenset(others)))
    assert sum(d for d, _ in steps) == pytest.approx(joint, rel=1e-6, abs=1e-6)
    assert sum(df for _, df in steps) == joint_df


@st.composite
def table_and_statement(draw):
    """A 2-6 variable table with many zero cells, a statement a _||_ b | c
    over some of its variables, and some c-strata of the table emptied."""
    t = draw(table_strategy(min_vars=2, max_vars=6, max_count=5))
    names = t.variables
    roles = draw(st.lists(st.sampled_from("abc-"), min_size=len(names), max_size=len(names))
                 .filter(lambda r: "a" in r and "b" in r))
    a, b, c = (frozenset(v for v, r in zip(names, roles) if r == role) for role in "abc")
    c_axes = [names.index(v) for v in sorted(c)]
    counts = t.counts.copy()
    strata = st.tuples(*(st.integers(0, 1) for _ in c_axes))
    for levels in draw(st.lists(strata, max_size=2 ** len(c_axes))) if c_axes else ():
        index = [slice(None)] * len(names)
        for axis, level in zip(c_axes, levels):
            index[axis] = level
        counts[tuple(index)] = 0.0
    table = ContingencyTable(t.schema, counts, zero_total=counts.sum() == 0)
    return table, IndependenceStatement(a, b, c)


@settings(max_examples=200, deadline=None)
@given(table_and_statement())
def test_independence_test_matches_ipf_reference(case):
    """The closed-form deviance and df against an IPF fit of {a,c}{b,c} in
    the margin of the statement."""
    t, stmt = case
    margin = t.marginalize(stmt.a | stmt.b | stmt.c)
    spec = LoglinearSpec(margin.schema, (tuple(stmt.a | stmt.c), tuple(stmt.b | stmt.c)))
    if margin.total == 0:
        with pytest.raises(DataError, match="empty"):
            independence_test(t, stmt)
        with pytest.raises(DataError, match="empty"):
            fit_ipf(margin, spec)
        return
    dev, df = independence_test(t, stmt)
    ref = fit_ipf(margin, spec)
    assert ref.converged
    assert dev == pytest.approx(ref.deviance, rel=1e-9, abs=1e-9)
    assert df == ref.df
    axes = margin.schema.axis
    fitted = independence_fit(margin.counts, [axes(v) for v in stmt.a], [axes(v) for v in stmt.b])
    np.testing.assert_allclose(fitted, ref.fitted.counts, rtol=1e-9, atol=1e-9)


def exactly_independent(rng, total=8e6):
    """A float (A, B, C) table of the given total with A _||_ C | B exact in
    real arithmetic; rounding leaves its deviance within about 1e-8 of 0."""
    pab = rng.dirichlet(np.ones(4)).reshape(2, 2)
    pcb = rng.uniform(0.05, 0.95, 2)
    p = pab[:, :, None] * np.stack([1 - pcb, pcb], axis=1)[None]
    return ContingencyTable(Schema(("A", "B", "C")), total * p)


def check_clamped(t, stmt):
    """The deviance is >= 0, and a positive one is the raw sum unchanged."""
    dev, _ = independence_test(t, stmt)
    margin = t.marginalize(stmt.a | stmt.b | stmt.c)
    axes = margin.schema.axis
    raw = deviance_of(margin.counts, independence_fit(
        margin.counts, [axes(v) for v in stmt.a], [axes(v) for v in stmt.b]))
    assert repr(dev) == (repr(raw) if raw > 0 else "0.0")
    return raw


def test_independence_deviance_rounding_residue_reads_zero():
    rng = np.random.default_rng(5)
    stmt = IndependenceStatement(frozenset("A"), frozenset("C"), frozenset("B"))
    raws = [check_clamped(exactly_independent(rng), stmt) for _ in range(100)]
    assert min(raws) < 0  # the residue this clamps does occur


@settings(max_examples=150, deadline=None)
@given(table_and_statement())
def test_independence_deviance_is_never_negative(case):
    t, stmt = case
    if t.marginalize(stmt.a | stmt.b | stmt.c).total > 0:
        check_clamped(t, stmt)


def test_closed_form_fits_run_no_ipf(study, cases, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_ipf called")

    monkeypatch.setattr(loglinear, "fit_ipf", refuse)
    fit_closed_form_casecontrol(study.marginalize({"L", "V", "C", "R"}))
    deviance_decomposition(cases, peel_sequence("E", ("A", "R", "V", "C")))


def test_decomposition_rejects_bad_sequences(cases):
    stmt = IndependenceStatement(frozenset("E"), frozenset("A"), frozenset({"V", "C", "R"}))
    with pytest.raises(DataError, match="margin"):
        deviance_decomposition(cases, [(stmt, {"E", "A"})])
    with pytest.raises(DataError, match="empty"):
        deviance_decomposition(cases, [])
    grow = [
        (IndependenceStatement(frozenset("E"), frozenset("A"), frozenset("V")), {"E", "A", "V"}),
        (stmt, {"E", "A", "V", "C", "R"}),
    ]
    with pytest.raises(DataError, match="contained"):
        deviance_decomposition(cases, grow)


# -- forward selection ---------------------------------------------------------------

def edge_names(g):
    return sorted(f"{a}-{b}" for a, b, _ in g.edges)


def test_forward_select_cases(cases):
    g = forward_select(cases, alpha=0.2)
    assert edge_names(g) == ["A-C", "C-R", "C-V", "R-V"]


def test_forward_select_controls(controls):
    g = forward_select(controls, alpha=0.2)
    assert edge_names(g) == ["A-E", "C-V", "E-R"]


def test_forward_select_independent_simulation():
    rng = np.random.default_rng(20240817)
    k, n = 5, 100_000
    probs = [0.3, 0.5, 0.6, 0.4, 0.45]
    counts = np.zeros((2,) * k)
    draws = rng.random((n, k)) < probs
    for row in draws.astype(int):
        counts[tuple(row)] += 1
    t = ContingencyTable(Schema(tuple("ABCDE")), counts)
    g = forward_select(t, alpha=0.001)
    assert edge_names(g) == []


def test_forward_select_warns_once_of_unconverged_piece_fits(study):
    with pytest.warns(RuntimeWarning) as record:
        forward_select(study, alpha=0.2, max_iter=1)
    assert [str(w.message) for w in record] == [
        "forward selection: 14 of 14 piece fits did not converge after 1 sweeps"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forward_select(study, alpha=0.2)


def test_forward_select_alpha_validation(cases):
    with pytest.raises(DataError):
        forward_select(cases, alpha=0.0)
    with pytest.raises(DataError):
        forward_select(cases, alpha=1.0)


def test_forward_select_rejects_bad_tol_and_empty_table(cases):
    with pytest.raises(DataError, match="tol"):
        forward_select(cases, alpha=0.2, tol=0.0)
    empty = ContingencyTable(cases.schema, np.zeros_like(cases.counts), zero_total=True)
    with pytest.raises(DataError, match="empty"):
        forward_select(empty, alpha=0.2)


# -- selection from clique-separator pieces ---------------------------------------------

GRAPH_KINDS = ("random", "complete", "edgeless", "cycle", "cycle+chords", "forest")


@st.composite
def table_and_graph(draw, max_count=20):
    """A 3-7 variable table with zero cells allowed and a concentration graph
    on its variables: arbitrary, complete, edgeless, a chordless cycle through
    every node (with or without random chords), or a forest."""
    t = draw(table_strategy(min_vars=3, max_vars=7, max_count=max_count))
    k = len(t.variables)
    kind = draw(st.sampled_from(GRAPH_KINDS))
    pairs = list(itertools.combinations(range(k), 2))
    cycle = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
    if kind == "complete":
        chosen = set(pairs)
    elif kind == "edgeless":
        chosen = set()
    elif kind == "cycle":
        chosen = cycle
    elif kind == "forest":
        chosen = {(draw(st.integers(0, j - 1)), j) for j in range(1, k) if draw(st.booleans())}
    else:
        chosen = {p for p in pairs if draw(st.booleans())}
        if kind == "cycle+chords":
            chosen |= cycle
    names = t.variables
    return t, full_line_graph(names, [(names[a], names[b]) for a, b in chosen])


def _adjacency(g, names):
    adj = [0] * len(names)
    for a, b, _ in g.edges:
        i, j = names.index(a), names.index(b)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


@settings(max_examples=150, deadline=None)
@given(table_and_graph())
def test_piece_deviance_and_df_drop_match_full_table_ipf(case):
    """The clique-separator recursion against the reference it replaces: an
    IPF fit of the whole table under the cliques of the graph.  Without
    fitting prime pieces the recursion gives a lower bound."""
    t, g = case
    names = t.variables
    adj = _adjacency(g, names)
    full = (1 << len(names)) - 1
    bound, _ = _Pieces(t, 1e-10, 10_000).deviance(full, adj, fit=False)
    dev, exact = _Pieces(t, 1e-10, 10_000).deviance(full, adj)
    assert exact
    assert bound <= dev + 1e-9
    ref = fit_ipf(t, clique_spec(t.schema, g), tol=1e-10)
    if ref.converged:
        assert dev == pytest.approx(ref.deviance, rel=1e-6, abs=1e-7)
    present = {(a, b) for a, b, _ in g.edges}
    for a, b in itertools.combinations(names, 2):
        if (a, b) in present:
            continue
        larger = full_line_graph(names, present | {(a, b)})
        i, j = names.index(a), names.index(b)
        drop = _complete_subsets(adj[i] & adj[j], adj)
        assert drop == (clique_spec(t.schema, g).df()
                        - clique_spec(t.schema, larger).df())


def _full_refit_select(observed, alpha, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rounds=None):
    """The earlier ``forward_select``: every candidate refitted on the whole
    table by IPF.  Kept verbatim but for ``rounds``, which records each
    round's candidate p-values."""
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
        ps = []
        for edge in sorted(all_pairs):
            if edge in edges:
                continue
            dev, df = fit_for(edges | {edge})
            ddf = current_df - df
            drop = max(current_dev - dev, 0.0)
            p = chi2_sf(drop, ddf) if ddf > 0 else 1.0
            ps.append(p)
            if best is None or (p, edge) < (best[0], best[1]):
                best = (p, edge, dev, df)
        if rounds is not None:
            rounds.append(sorted(ps))
        if best is None or best[0] >= alpha:
            break
        edges.add(best[1])
        current_dev, current_df = best[2], best[3]
    return graphs.full_line_graph(nodes, edges)


@settings(max_examples=60, deadline=None)
@given(table_strategy(min_vars=3, max_vars=7), st.sampled_from((0.01, 0.05, 0.2, 0.5)))
def test_forward_select_matches_full_refit_loop(t, alpha):
    """Same graph as refitting every candidate on the whole table.  The one
    exception is a round whose two smallest p-values agree to 1e-9: two
    edges that are tied in exact arithmetic, where rounding in the full-table
    IPF, not the data, decides which of them the earlier loop took."""
    rounds = []
    ref = _full_refit_select(t, alpha, rounds=rounds)
    got = forward_select(t, alpha)
    if got != ref:
        assert any(len(ps) > 1 and ps[1] - ps[0] <= 1e-9 * ps[1] for ps in rounds)


def test_selection_fits_only_the_prime_pieces_that_can_win(study, cases, controls, monkeypatch):
    """Slices of the bundled table select by margin sums alone; the whole
    table fits some cyclic pieces, none of them twice."""
    margins = []

    def recording(observed, spec, **kwargs):
        margins.append((observed.variables, spec.generators))
        return fit_ipf(observed, spec, **kwargs)

    monkeypatch.setattr(loglinear, "fit_ipf", recording)
    forward_select(cases, alpha=0.2)
    forward_select(controls, alpha=0.2)
    assert margins == []
    forward_select(study, alpha=0.2)
    assert margins
    assert len(set(margins)) == len(margins)


def test_forward_select_leaves_no_reference_cycle(cases):
    gc.collect()
    gc.disable()
    try:
        forward_select(cases, alpha=0.2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_clique_spec_matches_graph(cases):
    g = full_line_graph(cases.variables, [("V", "C"), ("V", "R"), ("C", "R"), ("C", "A")])
    spec = clique_spec(cases.schema, g)
    assert spec.generators == (("E",), ("A", "C"), ("C", "R", "V"))
    assert spec.df() == 21


# -- design helper ----------------------------------------------------------------------

def test_term_design_shapes():
    schema = Schema(("A", "B", "C"))
    cells = np.arange(8)
    X = term_columns(3, LoglinearSpec(schema, (("A", "B"), ("C",))).terms, cells)
    assert X.shape == (8, 5)
    # saturated design is square and invertible
    Xs = term_columns(3, LoglinearSpec(schema, (("A", "B", "C"),)).terms, cells)
    assert Xs.shape == (8, 8)
    assert np.linalg.matrix_rank(Xs) == 8
