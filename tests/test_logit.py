import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import (
    ContingencyTable,
    DataError,
    LoglinearSpec,
    TwoByTwo,
    fit_ipf,
    fit_logit,
    fitted_odds_ratios,
    from_cells,
    interaction_from_odds_ratios,
    parse_formula,
    Schema,
    two_by_two,
)
from casecontrol import logit
from casecontrol.logit import FormulaError, loglik_and_gradient, score_residuals
from casecontrol.tables import superset_sums, term_masks

from conftest import table_strategy


# -- formula parsing -------------------------------------------------------------

def term_set(formula):
    return {":".join(t) for t in formula.terms}


def test_parse_three_way_plus_interaction():
    f = parse_formula("L : V*C*R + A*E")
    assert f.response == "L"
    assert term_set(f) == {"V", "C", "R", "A", "E",
                           "V:C", "V:R", "C:R", "A:E", "V:C:R"}
    assert f.n_parameters == 11


def test_parse_squared_group():
    f = parse_formula("L : (V+C+R)^2")
    assert term_set(f) == {"V", "C", "R", "V:C", "V:R", "C:R"}
    assert "V:C:R" not in term_set(f)


def test_parse_intercept_only():
    f = parse_formula("L :")
    assert f.terms == ()
    assert f.n_parameters == 1


def test_parse_tilde_and_whitespace():
    assert parse_formula("L~V*C").terms == parse_formula("  L :  V * C ").terms


def test_parse_closure_is_deduplicated():
    f = parse_formula("L : V*C + C*V + V + C")
    assert term_set(f) == {"V", "C", "V:C"}


def test_parse_term_order_is_deterministic():
    f = parse_formula("L : V*C*R + C*A + A*E + E*R")
    assert f.term_names() == ["V", "C", "R", "A", "E", "V:C", "V:R", "C:R",
                              "C:A", "R:E", "A:E", "V:C:R"]


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaError, match="position"):
        parse_formula("L V")
    with pytest.raises(FormulaError, match="position"):
        parse_formula("L : V +")
    with pytest.raises(FormulaError, match="position"):
        parse_formula("L : (V+C")
    with pytest.raises(FormulaError, match="response"):
        parse_formula("L : L*V")
    with pytest.raises(FormulaError, match="repeated"):
        parse_formula("L : V*V")


def test_unknown_variable_at_bind_time(study):
    f = parse_formula("L : V*S")
    with pytest.raises(DataError, match="unknown variable"):
        fit_logit(study, f)


# -- reference fits ----------------------------------------------------------------

ADDITIVE_BLOCKS = {
    # term: (coefficient, se)
    "(const)": (-3.37, 0.42), "V": (1.32, 0.71), "C": (0.29, 0.50),
    "R": (0.34, 0.32), "V:C": (2.08, None), "V:R": (1.30, 0.83),
    "C:R": (0.50, 0.58), "V:C:R": (-3.39, 1.32), "A": (2.36, 0.43),
    "E": (1.96, 0.38), "A:E": (-1.87, 0.49),
}


def test_fit_additive_blocks_model(study):
    fit = fit_logit(study, parse_formula("L : V*C*R + A*E"))
    assert fit.converged
    assert fit.deviance_vs_saturated == pytest.approx(21.4, abs=0.1)
    assert fit.df == 21
    for term, (coef, se) in ADDITIVE_BLOCKS.items():
        assert fit.coefficients[term] == pytest.approx(coef, abs=0.02), term
        if se is not None:
            assert fit.se[term] == pytest.approx(se, abs=0.02), term
    assert fit.z_obs["V:C:R"] == pytest.approx(-2.56, abs=0.05)
    assert fit.z_obs["A:E"] == pytest.approx(-3.79, abs=0.05)


def test_fit_clique_terms_model(study):
    fit = fit_logit(study, parse_formula("L : V*C*R + C*A + A*E + E*R"))
    assert fit.deviance_vs_saturated == pytest.approx(19.8, abs=0.1)
    assert fit.df == 19
    assert fit.coefficients["V:C:R"] == pytest.approx(-3.34, abs=0.02)
    assert fit.se["V:C:R"] == pytest.approx(1.32, abs=0.02)
    assert fit.z_obs["V:C:R"] == pytest.approx(-2.53, abs=0.05)
    assert fit.coefficients["C:A"] == pytest.approx(-0.59, abs=0.02)
    assert fit.coefficients["R:E"] == pytest.approx(0.04, abs=0.02)


def test_goodness_of_fit_models(study):
    no_triple = fit_logit(study.marginalize({"L", "V", "C", "R"}),
                          parse_formula("L : (V+C+R)^2"))
    assert no_triple.deviance_vs_saturated == pytest.approx(9.2, abs=0.1)
    assert no_triple.df == 1

    plus_age = fit_logit(study.marginalize({"L", "V", "C", "R", "A"}),
                         parse_formula("L : V*C*R + A"))
    assert plus_age.deviance_vs_saturated == pytest.approx(4.1, abs=0.1)
    assert plus_age.df == 7

    plus_edu = fit_logit(study.marginalize({"L", "V", "C", "R", "E"}),
                         parse_formula("L : V*C*R + E"))
    assert plus_edu.deviance_vs_saturated == pytest.approx(10.1, abs=0.1)
    assert plus_edu.df == 7


def test_saturated_logit_reproduces_counts(study):
    lvcr = study.marginalize({"L", "V", "C", "R"})
    fit = fit_logit(lvcr, parse_formula("L : V*C*R"))
    assert fit.df == 0
    assert fit.deviance_vs_saturated == pytest.approx(0.0, abs=1e-8)
    # the three-factor term equals the log odds-ratio difference of differences
    assert fit.coefficients["V:C:R"] == pytest.approx(-3.52, abs=0.01)


def test_intercept_only_fit(study):
    fit = fit_logit(study.marginalize({"L", "V"}), parse_formula("L :"))
    p = study.marginalize({"L"}).cell({"L": 1}) / study.total
    for prob in fit.fitted_probabilities.values():
        assert prob == pytest.approx(p, rel=1e-8)


def test_logit_equals_equivalent_loglinear(study):
    # terms {V*C*R, A*E} for L correspond to the log-linear model with
    # generators {L,V,C,R}, {L,A,E} and the saturated regressor margin
    logit_fit = fit_logit(study, parse_formula("L : V*C*R + A*E"))
    spec = LoglinearSpec(study.schema,
                         (("L", "V", "C", "R"), ("L", "A", "E"), ("V", "C", "R", "A", "E")))
    ll_fit = fit_ipf(study, spec, tol=1e-12, max_iter=100_000)
    assert logit_fit.deviance_vs_saturated == pytest.approx(ll_fit.deviance, abs=1e-6)
    assert logit_fit.df == ll_fit.df


def test_score_equations_hold_at_optimum(study):
    fit = fit_logit(study, parse_formula("L : V*C*R + A*E"))
    score = score_residuals(study, fit)
    assert np.max(np.abs(score)) < 1e-6


def test_gradient_matches_finite_differences(study):
    f = parse_formula("L : V*C + A")
    fit = fit_logit(study, f)
    names = ["(const)"] + f.term_names()
    beta_hat = np.array([fit.coefficients[n] for n in names])
    rng = np.random.default_rng(11)
    points = [beta_hat] + [rng.normal(scale=0.8, size=beta_hat.size) for _ in range(5)]
    h = 1e-6
    for beta in points:
        _, grad = loglik_and_gradient(study, f, beta)
        for j in range(beta.size):
            e = np.zeros_like(beta)
            e[j] = h
            up, _ = loglik_and_gradient(study, f, beta + e)
            dn, _ = loglik_and_gradient(study, f, beta - e)
            fd = (up - dn) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(grad[j] - fd) / scale < 1e-5


def test_separation_is_flagged():
    t = from_cells(("L", "X"), {(1, 1): 30.0, (0, 0): 30.0, (1, 0): 0.0, (0, 1): 0.0})
    fit = fit_logit(t, parse_formula("L : X"))
    assert not fit.converged
    assert "separation" in fit.message


def test_iteration_budget_exhaustion(study):
    fit = fit_logit(study, parse_formula("L : V*C*R + A*E"), max_iter=2)
    assert not fit.converged
    assert "convergence" in fit.message


# -- interaction estimate ------------------------------------------------------------

def vodka_strata(study):
    return {(c, r): two_by_two(study, "L", "V", given={"C": c, "R": r})
            for c in (0, 1) for r in (0, 1)}


def test_interaction_from_stratified_tables(study):
    est = interaction_from_odds_ratios(vodka_strata(study))
    assert est.estimate == pytest.approx(-3.52, abs=0.01)
    assert est.se == pytest.approx(1.22, abs=0.01)
    assert est.z == pytest.approx(-2.9, abs=0.05)


def test_interaction_consistency_with_deviance(study):
    est = interaction_from_odds_ratios(vodka_strata(study))
    fit = fit_logit(study.marginalize({"L", "V", "C", "R"}), parse_formula("L : (V+C+R)^2"))
    assert abs(est.z) == pytest.approx(math.sqrt(fit.deviance_vs_saturated), abs=0.2)


def test_interaction_identical_strata_is_zero():
    t = TwoByTwo(12, 7, 9, 30)
    est = interaction_from_odds_ratios({k: t for k in [(0, 0), (0, 1), (1, 0), (1, 1)]})
    assert est.estimate == pytest.approx(0.0, abs=1e-12)
    assert est.z == pytest.approx(0.0, abs=1e-12)


def test_interaction_needs_positive_cells():
    good = TwoByTwo(2, 3, 4, 5)
    bad = TwoByTwo(0, 3, 4, 5)
    strata = {(0, 0): good, (0, 1): good, (1, 0): good, (1, 1): bad}
    with pytest.raises(DataError, match="positive"):
        interaction_from_odds_ratios(strata)
    with pytest.raises(DataError, match="strata"):
        interaction_from_odds_ratios({(0, 0): good})


# -- fitted odds-ratio tables -----------------------------------------------------------

def test_fitted_ors_additive_age_model(study):
    fit = fit_logit(study.marginalize({"L", "V", "C", "R", "A"}),
                    parse_formula("L : V*C*R + A"))
    ors = fitted_odds_ratios(fit, ("L", "V"), ("C", "R", "A"))
    expected = {(0, 0): 3.1, (1, 0): 27.3, (0, 1): 14.4, (1, 1): 3.8}
    for (c, r), value in expected.items():
        assert ors[(c, r, 0)] == pytest.approx(value, abs=0.1)
        assert ors[(c, r, 1)] == pytest.approx(value, abs=0.1)
    # additive A: constant across its levels, so conditioning may omit it
    collapsed = fitted_odds_ratios(fit, ("L", "V"), ("C", "R"))
    for (c, r), value in expected.items():
        assert collapsed[(c, r)] == pytest.approx(ors[(c, r, 0)], rel=1e-9)


def test_fitted_ors_blocks_model(study):
    fit = fit_logit(study, parse_formula("L : V*C*R + A*E"))
    ors = fitted_odds_ratios(fit, ("L", "V"), ("C", "R", "A", "E"))
    expected = {(0, 0): 3.8, (1, 0): 30.1, (0, 1): 13.7, (1, 1): 3.7}
    for (c, r), value in expected.items():
        for a in (0, 1):
            for e in (0, 1):
                assert ors[(c, r, a, e)] == pytest.approx(value, abs=0.1)


def test_fitted_ors_saturated_match_observed(study):
    lvcr = study.marginalize({"L", "V", "C", "R"})
    fit = fit_logit(lvcr, parse_formula("L : V*C*R"))
    ors = fitted_odds_ratios(fit, ("L", "V"), ("C", "R"))
    from casecontrol import odds_ratio
    for (c, r), value in ors.items():
        observed = odds_ratio(two_by_two(lvcr, "L", "V", given={"C": c, "R": r}))
        assert value == pytest.approx(observed, rel=1e-8)


def test_fitted_ors_reject_varying_stratum(study):
    fit = fit_logit(study.marginalize({"L", "V", "C"}), parse_formula("L : V*C"))
    with pytest.raises(DataError, match="varies"):
        fitted_odds_ratios(fit, ("L", "V"), ())
    with pytest.raises(DataError, match="factor"):
        fitted_odds_ratios(fit, ("L", "S"), ())


def test_irls_converges_through_loglik_rounding(study, monkeypatch):
    # Near the optimum a Newton step gains less than the rounding of a
    # log-likelihood of magnitude 1e5.  Make every evaluation come out a
    # few ulps of |ll| lower than the one before (adverse rounding): step
    # halving must not take that for a decrease, or IRLS stalls at max_iter.
    exact = logit._binomial_loglik
    calls = []

    def rounded(y, n, eta):
        ll = exact(y, n, eta)
        calls.append(ll)
        return ll - 4 * len(calls) * np.spacing(abs(ll))

    monkeypatch.setattr(logit, "_binomial_loglik", rounded)
    big = type(study)(study.schema, study.counts * 1000.0)
    fit = fit_logit(big, parse_formula("L : V*C*R + A*E"))
    assert min(abs(ll) for ll in calls) > 1e5
    assert fit.converged
    assert fit.iterations < 20


def test_step_halving_never_accepts_a_rejected_step(study, monkeypatch):
    # Evaluate the start and the first iteration exactly, then reject every
    # later candidate: the fit must keep the first iteration's coefficients
    # and log-likelihood, and say why it stopped.
    exact = logit._binomial_loglik
    calls = 0
    budget = math.inf

    def reject_after_budget(y, n, eta):
        nonlocal calls
        calls += 1
        return exact(y, n, eta) if calls <= budget else -math.inf

    monkeypatch.setattr(logit, "_binomial_loglik", reject_after_budget)
    f = parse_formula("L : V*C*R + A*E")
    one_step = fit_logit(study, f, max_iter=1)
    budget, calls = calls, 0
    fit = fit_logit(study, f)
    assert calls == budget + 30
    assert not fit.converged
    assert fit.iterations == 2
    assert fit.message == "step halving failed to increase the log-likelihood"
    assert fit.coefficients == one_step.coefficients
    assert fit.deviance_vs_saturated == one_step.deviance_vs_saturated


# -- the flat cell index ---------------------------------------------------------------

def per_cell_design(formula, regressors, cells):
    """Dummy-coded design built one cell at a time from level tuples."""
    idx = {v: i for i, v in enumerate(regressors)}
    X = np.ones((len(cells), formula.n_parameters))
    for j, term in enumerate(formula.terms, start=1):
        cols = [idx[v] for v in term]
        for i, cell in enumerate(cells):
            X[i, j] = float(all(cell[c] == 1 for c in cols))
    return X


@st.composite
def formulas(draw):
    k = draw(st.integers(1, 7))
    regressors = tuple("ABCDEFG"[:k])
    products = draw(st.lists(st.lists(st.sampled_from(regressors), min_size=1, max_size=k,
                                      unique=True).map("*".join), max_size=4))
    if draw(st.booleans()):
        group = draw(st.lists(st.sampled_from(regressors), min_size=1, unique=True))
        products.append(f"({'+'.join(group)})^{draw(st.integers(1, 3))}")
    return regressors, parse_formula("L : " + " + ".join(products))


@settings(max_examples=80, deadline=None)
@given(drawn=formulas(), data=st.data())
def test_design_matches_per_cell_loop(drawn, data):
    regressors, f = drawn
    k = len(regressors)
    levels = list(itertools.product((0, 1), repeat=k))
    cells = data.draw(st.lists(st.integers(0, 2 ** k - 1), unique=True, min_size=1)
                      .map(sorted))
    X = logit._design(f, regressors, np.array(cells))
    assert np.array_equal(X, per_cell_design(f, regressors, [levels[i] for i in cells]))
    assert np.array_equal(logit._design(f, regressors, np.arange(2 ** k)),
                          per_cell_design(f, regressors, levels))


@settings(max_examples=80, deadline=None)
@given(drawn=formulas(), data=st.data())
def test_lattice_information_matches_dense_product(drawn, data):
    regressors, f = drawn
    cells = 2 ** len(regressors)
    w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=cells,
                                    max_size=cells)))
    X = logit._design(f, regressors, np.arange(cells))
    masks = term_masks(len(regressors), logit._terms(f, regressors))
    np.testing.assert_allclose(superset_sums(w)[masks[:, None] | masks[None, :]],
                               X.T @ (X * w[:, None]),
                               rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None)
@given(t=table_strategy(min_vars=2, max_vars=5, max_count=3), data=st.data())
def test_grouped_data_matches_cell_lookups(t, data):
    response = data.draw(st.sampled_from(t.variables))
    regressors, y, n = logit._grouped(t, response)
    assert regressors == tuple(v for v in t.variables if v != response)
    cells = list(itertools.product((0, 1), repeat=len(regressors)))
    at = [dict(zip(regressors, c)) for c in cells]
    y_cell = [t.cell({**a, response: 1}) for a in at]
    n_cell = [t.cell({**a, response: 0}) + yc for a, yc in zip(at, y_cell)]
    assert y.tolist() == y_cell
    assert n.tolist() == n_cell
    fit = fit_logit(t, parse_formula(f"{response} :"))
    assert list(fit.fitted_probabilities) == [c for c, nc in zip(cells, n_cell) if nc > 0]


# -- fitted odds-ratios over flat strata -----------------------------------------------

def per_cell_odds_ratios(fit, pair, given, rel_tol=1e-6):
    """Fitted odds-ratios by a walk over the fitted cells, one at a time.

    As in the 2x2 convention, a ratio with a zero denominator (1 - p1) p0,
    or otherwise not finite, is None, and one whose numerator p1 (1 - p0)
    alone vanishes is 0; None next to a number within one stratum varies."""
    fi = fit.regressors.index(pair[1])
    gi = [fit.regressors.index(v) for v in given]
    out = {}
    for cell, p1 in fit.fitted_probabilities.items():
        if cell[fi] != 1:
            continue
        base = tuple(0 if i == fi else lv for i, lv in enumerate(cell))
        if base not in fit.fitted_probabilities:
            continue
        p0 = fit.fitted_probabilities[base]
        try:
            ratio = (p1 / (1 - p1)) / (p0 / (1 - p0))
        except ZeroDivisionError:
            ratio = None if (1 - p1) * p0 == 0 else 0.0
        if ratio is not None and not math.isfinite(ratio):
            ratio = None
        key = tuple(cell[i] for i in gi)
        if key in out and ((out[key] is None) != (ratio is None) or ratio is not None
                           and not math.isclose(out[key], ratio, rel_tol=rel_tol)):
            raise DataError(
                f"odds-ratio varies within conditioning stratum {key}; condition on more variables")
        out[key] = ratio
    return out


@st.composite
def logit_problems(draw):
    """A table over L and 1-5 regressors with many empty cells, a formula, a
    factor and a conditioning list in random order that may omit regressors."""
    regressors = "ABCDE"[:draw(st.integers(1, 5))]
    cells = 2 ** (len(regressors) + 1)
    counts = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 30]), min_size=cells,
                           max_size=cells).filter(any))
    t = ContingencyTable(Schema(("L", *regressors)), np.array(counts, float))
    products = draw(st.lists(st.lists(st.sampled_from(regressors), min_size=1, unique=True)
                             .map("*".join), max_size=3))
    factor = draw(st.sampled_from(regressors))
    others = [v for v in regressors if v != factor]
    given_ = draw(st.permutations(others))[:draw(st.integers(0, len(others)))]
    return t, parse_formula("L : " + " + ".join(products)), factor, tuple(given_)


@settings(max_examples=300, deadline=None)
@given(problem=logit_problems(), rel_tol=st.sampled_from([1e-6, 1e-2]), data=st.data())
def test_fitted_odds_ratios_match_per_cell_walk(problem, rel_tol, data):
    t, f, factor, given_ = problem
    try:
        fit = fit_logit(t, f)
    except DataError:
        return  # more terms than occupied cells
    # separation drives fitted probabilities to exactly 0 or 1; set a few so
    snapped = data.draw(st.dictionaries(st.sampled_from(range(len(fit.cells))),
                                        st.sampled_from([0.0, 1.0]), max_size=3))
    probabilities = fit.probabilities.copy()
    probabilities[list(snapped)] = list(snapped.values())
    fit = replace(fit, probabilities=probabilities)
    try:
        expected = per_cell_odds_ratios(fit, ("L", factor), given_, rel_tol)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            fitted_odds_ratios(fit, ("L", factor), given_, rel_tol)
        assert str(raised.value) == str(exc)
        return
    ors = fitted_odds_ratios(fit, ("L", factor), given_, rel_tol)
    assert list(ors) == sorted(ors)  # strata in C order of ``given``
    assert repr(sorted(ors.items())) == repr(sorted(expected.items()))


@settings(max_examples=100, deadline=None)
@given(problem=logit_problems())
def test_fitted_probabilities_keep_the_level_tuple_mapping(problem):
    t, f, _, _ = problem
    try:
        fit = fit_logit(t, f)
    except DataError:
        return  # more terms than occupied cells
    _, _, n = logit._grouped(t, "L")
    levels = list(itertools.product((0, 1), repeat=len(fit.regressors)))
    # the mapping fits stored before: occupied cells' level tuples in C order
    stored = dict(zip([levels[i] for i in np.flatnonzero(n > 0).tolist()],
                      fit.probabilities.tolist()))
    assert repr(list(fit.fitted_probabilities.items())) == repr(list(stored.items()))


def test_fitted_odds_ratios_at_probabilities_0_and_1(study):
    fit = fit_logit(study.marginalize({"L", "V", "C"}), parse_formula("L : V*C"))

    def ors(probabilities, given_):
        # {(V, C) levels: probability} on the flat cells 2 V + C
        cells = np.array([2 * v + c for v, c in probabilities], dtype=np.int64)
        return fitted_odds_ratios(
            replace(fit, cells=cells, probabilities=np.array(list(probabilities.values()))),
            ("L", "V"), given_)

    # p1 = 1 or p0 = 0: zero denominator (1 - p1) p0, so None; p0 = 1 alone gives 0
    assert ors({(0, 0): 0.5, (1, 0): 1.0, (0, 1): 0.0, (1, 1): 0.5}, ("C",)) == {
        (0,): None, (1,): None}
    assert ors({(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.2}, ("C",)) == {
        (0,): 0.0, (1,): 0.25}
    # None next to a number in one stratum varies; unoccupied pairs are skipped
    with pytest.raises(DataError, match=r"varies within conditioning stratum \(\)"):
        ors({(0, 0): 0.5, (1, 0): 1.0, (0, 1): 0.5, (1, 1): 0.2}, ())
    assert ors({(0, 0): 0.5, (1, 0): 1.0, (1, 1): 0.2}, ()) == {(): None}
    assert ors({(0, 0): 0.5, (0, 1): 0.2}, ()) == {}
    with pytest.raises(DataError, match="bad conditioning variable 'C'"):
        ors(fit.fitted_probabilities, ("C", "C"))


def test_fitted_odds_ratio_of_a_stratum_is_its_last_pair(study):
    fit = fit_logit(study.marginalize({"L", "V", "C", "R", "A"}),
                    parse_formula("L : V*C*R + A"))
    full = fitted_odds_ratios(fit, ("L", "V"), ("R", "A", "C"))
    collapsed = fitted_odds_ratios(fit, ("L", "V"), ("R", "C"))
    assert list(collapsed) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the omitted A varies fastest in C order of the cells, so A=1 comes last
    assert collapsed == {(r, c): full[(r, 1, c)] for r, c in collapsed}
    assert collapsed != {(r, c): full[(r, 0, c)] for r, c in collapsed}


# -- undefined standard errors and numpy warnings ------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_negative_variance_gives_no_se_and_no_warning():
    # separation drives A:B towards infinity, and rounding leaves the inverse
    # information matrix with negative diagonal entries except at C
    t = ContingencyTable(Schema(("L", "A", "B", "C")),
                         np.array([0, 0, 1, 2, 3, 0, 0, 0, 0, 0, 3, 0, 3, 1, 0, 3], float))
    fit = fit_logit(t, parse_formula("L : A*B + C"))
    assert not fit.converged
    assert fit.se["A"] is None and fit.z_obs["A"] is None
    assert fit.z_obs["C"] == fit.coefficients["C"] / fit.se["C"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probabilities_underflow_to_zero_without_a_warning(study):
    # exp(-eta) overflows to inf at eta = -1000: p is 0, the gradient finite
    f = parse_formula("L : V")
    loglik, grad = loglik_and_gradient(study, f, np.array([-1000.0, 0.0]))
    assert math.isfinite(loglik) and np.all(np.isfinite(grad))
    assert grad[0] == study.slice_l("L", 1).total


@settings(max_examples=150, deadline=None)
@given(problem=logit_problems())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fits_raise_no_numpy_warnings_and_ses_are_finite(problem):
    t, f, _, _ = problem
    try:
        fit = fit_logit(t, f)
    except DataError:
        return  # more terms than occupied cells
    for name, se in fit.se.items():
        assert se is None or 0 <= se < math.inf
        z = fit.z_obs[name]
        assert z == (fit.coefficients[name] / se if se else None)
