import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import (
    CaseControlModel,
    ContingencyTable,
    DataError,
    Schema,
    check_or_collapsibility,
    check_rr_collapsibility,
    from_cells,
    log_or_se,
    mixing_artifact_demo,
    odds_ratio,
    relative_risk,
    smooth,
    two_by_two,
)
from casecontrol.tables import term_columns

SMOOTHED_ORS = {(0, 0): 4.7, (1, 0): 15.1, (0, 1): 12.1, (1, 1): 5.4}


@pytest.fixture(scope="module")
def lvcr(study):
    return study.marginalize({"L", "V", "C", "R"})


@pytest.fixture(scope="module")
def model4(lvcr):
    return CaseControlModel.from_generators(
        lvcr, case_generators=[("V", "C", "R")],
        control_generators=[("V", "C"), ("R",)])


@pytest.fixture(scope="module")
def model6(study):
    return CaseControlModel.from_generators(
        study,
        case_generators=[("V", "C", "R"), ("C", "A"), ("E",)],
        control_generators=[("V", "C"), ("A", "E"), ("E", "R")])


def test_model_json_round_trip(study, model6):
    again = CaseControlModel.from_json(model6.to_json(), study)
    assert again == model6
    with pytest.raises(DataError, match="generator"):
        CaseControlModel.from_json("{}", study)


@pytest.mark.parametrize("generators", [
    "VCR", ["VC", "R"], [["V", ["C"]]], [["V", 1]], None, {"V": "C"},
])
def test_model_json_generator_lists_are_never_split(study, generators):
    # a string generator would fit singletons, a nested list would not hash
    text = json.dumps({"case": {"generators": [["V", "C", "R"]]},
                       "control": {"generators": generators}})
    with pytest.raises(DataError, match="generator"):
        CaseControlModel.from_json(text, study)


def test_model_totals(model6):
    assert model6.case_total == 204.0
    assert model6.control_total == 376.0


def test_smooth_three_regressors(lvcr, model4):
    est = smooth(lvcr, model4)
    expected_controls = {
        (0, 0, 0): 77.8, (1, 0, 0): 4.6, (0, 1, 0): 22.4, (1, 1, 0): 3.2,
        (0, 0, 1): 193.2, (1, 0, 1): 11.4, (0, 1, 1): 55.6, (1, 1, 1): 7.8,
    }
    for (v, c, r), value in expected_controls.items():
        actual = est.fitted_joint.cell({"L": 0, "V": v, "C": c, "R": r})
        assert actual == pytest.approx(value, abs=0.05)
    ors = est.odds_ratios("V", ("C", "R"))
    for key, value in SMOOTHED_ORS.items():
        assert ors[key] == pytest.approx(value, abs=0.05)


def test_smooth_preserves_slice_totals(lvcr, model4):
    est = smooth(lvcr, model4)
    assert est.fitted_joint.slice_l("L", 0).total == pytest.approx(376.0, rel=1e-8)
    assert est.fitted_joint.slice_l("L", 1).total == pytest.approx(204.0, rel=1e-8)


def test_smooth_five_regressors_matches_reference_counts(study, model6):
    est = smooth(study, model6)
    # spot checks; the full 64-cell comparison runs in the acceptance suite
    assert est.fitted_joint.cell(
        {"L": 0, "V": 0, "C": 0, "R": 0, "A": 0, "E": 0}) == pytest.approx(23.79, abs=0.05)
    assert est.fitted_joint.cell(
        {"L": 1, "V": 0, "C": 0, "R": 0, "A": 0, "E": 0}) == pytest.approx(0.85, abs=0.05)
    ors = est.odds_ratios("V", ("C", "R", "A", "E"))
    for (c, r), value in SMOOTHED_ORS.items():
        for a, e in itertools.product((0, 1), repeat=2):
            assert ors[(c, r, a, e)] == pytest.approx(value, abs=0.05)


def test_smooth_saturated_specs_reproduce_observed(lvcr):
    model = CaseControlModel.from_generators(
        lvcr, case_generators=[("V", "C", "R")], control_generators=[("V", "C", "R")])
    est = smooth(lvcr, model)
    ors = est.odds_ratios("V", ("C", "R"))
    for (c, r), value in ors.items():
        observed = odds_ratio(two_by_two(lvcr, "L", "V", given={"C": c, "R": r}))
        assert value == pytest.approx(observed, rel=1e-10)


def test_smoothed_ses_are_smaller_than_saturated(lvcr, model4):
    est = smooth(lvcr, model4)
    ses = est.odds_ratio_ses("V", ("C", "R"))
    for c, r in itertools.product((0, 1), repeat=2):
        saturated = log_or_se(two_by_two(lvcr, "L", "V", given={"C": c, "R": r}))
        assert ses[(c, r)] < saturated


def test_smoothed_se_equals_margin_formula(lvcr, model4):
    # under the control structure {V,C}+{R} the control part of the
    # log odds-ratio depends only on the (V, C) margin
    est = smooth(lvcr, model4)
    ses = est.odds_ratio_ses("V", ("C", "R"))
    controls = lvcr.slice_l("L", 0)
    cases = lvcr.slice_l("L", 1)
    for c, r in itertools.product((0, 1), repeat=2):
        var = 0.0
        for v in (0, 1):
            var += 1.0 / cases.cell({"V": v, "C": c, "R": r})
            var += 1.0 / controls.marginalize({"V", "C"}).cell({"V": v, "C": c})
        assert ses[(c, r)] == pytest.approx(math.sqrt(var), rel=1e-6)


def test_control_spec_independencies_hold_exactly(study, model6):
    # {V,C}+{A,E}+{E,R} implies V _||_ A and V _||_ E given the rest
    est = smooth(study, model6)
    controls = est.fitted_joint.slice_l("L", 0)
    for other in ("A", "E"):
        rest = [v for v in ("C", "R", "A", "E") if v != other]
        for levels in itertools.product((0, 1), repeat=3):
            given = dict(zip(rest, levels))
            tt = two_by_two(controls, "V", other, given=given)
            value = odds_ratio(tt)
            if value is not None:
                assert value == pytest.approx(1.0, abs=1e-8)


def test_fitted_exposure_rates_stable_over_age_and_education(study, model6):
    # both selected structures separate V from A, E given C, R, so within
    # each fitted slice the exposure rate cannot move with age group or
    # education; risks built from these slices are therefore unchanged by
    # collapsing over A and E.  (Mixed-table response rates are
    # retrospective quantities and carry no such stability: only the
    # odds-ratio transfers across the sampling design.)
    est = smooth(study, model6)
    for level in (0, 1):
        fitted = est.fitted_joint.slice_l("L", level)
        for c, r in itertools.product((0, 1), repeat=2):
            rates = []
            for a, e in itertools.product((0, 1), repeat=2):
                at = {"C": c, "R": r, "A": a, "E": e}
                pair = fitted.condition(at)
                rates.append(pair.cell({"V": 1}) / pair.total)
            assert all(x == pytest.approx(rates[0], rel=1e-8) for x in rates)


def test_smooth_requires_indicator(study, model6):
    with pytest.raises(DataError, match="unknown variable"):
        smooth(study, model6, indicator="Z")


# -- smoothed odds-ratio standard errors --------------------------------------------

def _with_cells(t, at, value):
    counts = t.counts.copy()
    counts[tuple(at[v] for v in t.variables)] = value
    return ContingencyTable(t.schema, counts)


def test_contrast_touching_fitted_zero_is_none(lvcr):
    # a zero case cell under the saturated case spec is a fitted zero; its
    # stratum's log odds-ratio is undefined, the others still estimable
    t = _with_cells(lvcr, {"L": 1, "V": 1, "C": 1, "R": 1}, 0.0)
    model = CaseControlModel.from_generators(
        t, case_generators=[("V", "C", "R")], control_generators=[("V", "C"), ("R",)])
    est = smooth(t, model)
    cases = t.slice_l("L", 1)
    controls = t.slice_l("L", 0).marginalize({"V", "C"})
    for rest in (("C", "R"), ("R", "C")):
        ses = est.odds_ratio_ses("V", rest)
        for levels, se in ses.items():
            at = dict(zip(rest, levels))
            if at == {"C": 1, "R": 1}:
                assert se is None
                continue
            var = sum(1.0 / cases.cell({**at, "V": v})
                      + 1.0 / controls.cell({"V": v, "C": at["C"]}) for v in (0, 1))
            assert se == pytest.approx(math.sqrt(var), rel=1e-9)
    ses = est.odds_ratio_ses("C", ("R", "V"))
    assert ses[(1, 1)] is None
    assert all(se is not None for key, se in ses.items() if key != (1, 1))


def test_all_zero_stratum_gives_none(lvcr):
    t = lvcr
    for lv, v in itertools.product((0, 1), repeat=2):
        t = _with_cells(t, {"L": lv, "V": v, "C": 1, "R": 1}, 0.0)
    model = CaseControlModel.from_generators(
        t, case_generators=[("V", "C", "R")], control_generators=[("V", "C", "R")])
    est = smooth(t, model)
    ors = est.odds_ratios("V", ("C", "R"))
    ses = est.odds_ratio_ses("V", ("C", "R"))
    assert ors[(1, 1)] is None and ses[(1, 1)] is None
    for (c, r) in ((0, 0), (0, 1), (1, 0)):
        tt = two_by_two(t, "L", "V", given={"C": c, "R": r})
        assert ors[(c, r)] == odds_ratio(tt)
        # both slices saturated: the delta-method SE is the reciprocal-sum one
        assert ses[(c, r)] == pytest.approx(log_or_se(tt), rel=1e-9)


def test_odds_ratio_arguments_are_checked(lvcr, model4):
    est = smooth(lvcr, model4)
    for method in (est.odds_ratios, est.odds_ratio_ses):
        with pytest.raises(DataError, match="factor 'Z'"):
            method("Z", ("V", "C", "R"))
        with pytest.raises(DataError, match="conditioning set"):
            method("V", ("C",))
        with pytest.raises(DataError, match="conditioning set"):
            method("V", ("C", "C", "R"))


def _loop_term_design(schema, generators):
    """The hierarchical design built cell by cell: the reference layout."""
    subsets = {()}
    for g in generators:
        g = tuple(sorted(g, key=schema.axis))
        for r in range(1, len(g) + 1):
            subsets.update(itertools.combinations(g, r))
    ordered = sorted(subsets, key=lambda s: (len(s), tuple(schema.axis(v) for v in s)))
    cells = list(itertools.product((0, 1), repeat=len(schema)))
    X = np.ones((len(cells), len(ordered)))
    for j, term in enumerate(ordered):
        axes = [schema.axis(v) for v in term]
        for i, cell in enumerate(cells):
            X[i, j] = float(all(cell[ax] == 1 for ax in axes))
    return X


def _dense_ses(est, factor, rest):
    """Reference SEs: quadratic forms c' X (X'WX)^-1 X' c against each
    slice's full cells-by-cells covariance of fitted log counts."""
    schema = est.model.case_spec.schema
    covs = []
    for fit, spec in ((est.case_fit, est.model.case_spec),
                      (est.control_fit, est.model.control_spec)):
        X = _loop_term_design(spec.schema, spec.generators)
        w = fit.fitted.counts.ravel()
        covs.append(X @ np.linalg.solve(X.T @ (X * w[:, None]), X.T))
    k = len(schema)

    def flat(at):
        return sum(2 ** (k - 1 - schema.axis(v)) * lvl for v, lvl in at.items())

    out = {}
    for levels in itertools.product((0, 1), repeat=len(rest)):
        at = dict(zip(rest, levels))
        c = np.zeros(2 ** k)
        c[flat({**at, factor: 1})], c[flat({**at, factor: 0})] = 1.0, -1.0
        out[levels] = math.sqrt(sum(float(c @ cov @ c) for cov in covs))
    return out


@st.composite
def generating_classes(draw, regs):
    """A chordless cycle (not decomposable) plus main effects, or cliques
    added in running-intersection order (decomposable)."""
    order = draw(st.permutations(regs))
    if draw(st.booleans()):
        size = draw(st.integers(3, len(regs)))
        return [(order[i], order[(i + 1) % size]) for i in range(size)] + [(v,) for v in regs]
    gens = [(order[0],)]
    for v in order[1:]:
        base = draw(st.sampled_from(gens))
        keep = draw(st.lists(st.sampled_from(base), max_size=2, unique=True))
        gens.append((*keep, v))
    return gens


@st.composite
def smoothing_problems(draw):
    k = draw(st.integers(3, 7))
    regs = tuple(f"X{i}" for i in range(1, k + 1))
    variables = list(regs)
    variables.insert(draw(st.integers(0, k)), "L")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(1, 40, size=(2,) * (k + 1)).astype(float)
    t = ContingencyTable(Schema(tuple(variables)), counts)
    model = CaseControlModel.from_generators(
        t, draw(generating_classes(regs)), draw(generating_classes(regs)))
    factor = draw(st.sampled_from(regs))
    rest = tuple(draw(st.permutations([v for v in regs if v != factor])))
    return t, model, factor, rest


@settings(max_examples=40, deadline=None)
@given(smoothing_problems())
def test_smoothed_ses_match_dense_covariance(problem):
    t, model, factor, rest = problem
    est = smooth(t, model)
    ses = est.odds_ratio_ses(factor, rest)
    reference = _dense_ses(est, factor, rest)
    assert list(ses) == list(reference)
    for key, value in reference.items():
        assert ses[key] == pytest.approx(value, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(smoothing_problems())
def test_term_design_matches_cell_loop(problem):
    _, model, _, _ = problem
    for spec in (model.case_spec, model.control_spec):
        k = len(spec.schema)
        X = term_columns(k, spec.terms, np.arange(2 ** k))
        assert np.array_equal(X, _loop_term_design(spec.schema, spec.generators))


@settings(max_examples=40, deadline=None)
@given(smoothing_problems())
def test_smoothed_odds_ratios_match_two_by_two(problem):
    t, model, factor, rest = problem
    est = smooth(t, model)
    ors = est.odds_ratios(factor, rest)
    assert list(ors) == list(itertools.product((0, 1), repeat=len(rest)))
    for levels, value in ors.items():
        tt = two_by_two(est.fitted_joint, "L", factor, given=dict(zip(rest, levels)))
        assert value == odds_ratio(tt)


# -- odds-ratio collapsibility -------------------------------------------------

def test_education_age_collapses_over_region(controls):
    rep = check_or_collapsibility(controls, "E", "A", "R", alpha=0.05)
    assert rep.conditional[0] == pytest.approx(7.2, abs=0.05)
    assert rep.conditional[1] == pytest.approx(7.5, abs=0.05)
    assert rep.marginal == pytest.approx(7.1, abs=0.05)
    # the condition that holds is A _||_ R | E
    assert rep.which_condition == "b_indep_over_given_a"
    assert rep.condition_tests["b_indep_over_given_a"]["p"] > 0.05
    assert rep.condition_tests["a_indep_over_given_b"]["p"] < 0.05


def test_education_region_marginal_or(controls):
    rep = check_or_collapsibility(controls, "E", "R", "A", alpha=0.05)
    assert rep.marginal == pytest.approx(0.5, abs=0.05)
    assert rep.which_condition == "b_indep_over_given_a"


def analytic_a_indep_c_given_b(n=1e6):
    """pi(A,B,C) = f(A|B) f(B,C): A _||_ C | B by construction."""
    p_a1_given_b = {0: 0.2, 1: 0.7}
    p_bc = {(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.15, (1, 1): 0.35}
    cells = {}
    for (b, c), pbc in p_bc.items():
        for a in (0, 1):
            pa = p_a1_given_b[b] if a else 1 - p_a1_given_b[b]
            cells[(a, b, c)] = n * pbc * pa
    return from_cells(("A", "B", "C"), cells)


def test_analytic_construction_is_exactly_collapsible():
    t = analytic_a_indep_c_given_b()
    rep = check_or_collapsibility(t, "A", "B", "C")
    assert rep.collapsible
    assert rep.which_condition in ("a_indep_over_given_b", "both")
    assert rep.conditional[0] == pytest.approx(rep.marginal, rel=1e-10)
    assert rep.condition_tests["a_indep_over_given_b"]["deviance"] <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(500, 2000), min_size=4, max_size=4),
       st.lists(st.integers(500, 2000), min_size=4, max_size=4))
def test_large_count_exact_independence_holds_exactly(x, y):
    """n(a, b, c) = x(a, b) y(b, c) in integers of about 1e6, so A _||_ C | B
    holds exactly; its deviance stays below the exact-mode threshold."""
    counts = np.array(x, float).reshape(2, 2, 1) * np.array(y, float).reshape(1, 2, 2)
    t = ContingencyTable(Schema(("A", "B", "C")), counts)
    rep = check_or_collapsibility(t, "A", "B", "C")
    assert rep.condition_tests["a_indep_over_given_b"]["deviance"] <= 1e-8
    assert rep.which_condition in ("a_indep_over_given_b", "both")
    assert rep.collapsible


def test_collapsibility_undefined_ratios_reported():
    t = from_cells(("A", "B", "C"),
                   {(1, 1, 0): 4.0, (0, 0, 0): 5.0, (1, 0, 0): 3.0,
                    (0, 1, 1): 2.0, (1, 1, 1): 2.0, (0, 0, 1): 6.0, (1, 0, 1): 1.0})
    rep = check_or_collapsibility(t, "A", "B", "C")
    assert rep.conditional[0] is None
    assert not rep.collapsible



@pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, -0.5, 1.5, math.inf])
@pytest.mark.parametrize("check", [check_or_collapsibility, check_rr_collapsibility])
def test_collapsibility_alpha_outside_unit_interval_is_an_error(controls, check, alpha):
    with pytest.raises(DataError, match=r"^alpha must lie in \(0, 1\)$"):
        check(controls, "E", "A", "R", alpha=alpha)
    assert check(controls, "E", "A", "R", alpha=0.05).which_condition != "neither"


# -- relative-risk collapsibility -------------------------------------------------

def analytic_b_indep_c(n=1e6):
    """pi(A,B,C) with B _||_ C and A dependent on both."""
    p_b1, p_c1 = 0.4, 0.3
    risk = {(0, 0): 0.1, (1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.5}
    cells = {}
    for b, c in itertools.product((0, 1), repeat=2):
        pbc = (p_b1 if b else 1 - p_b1) * (p_c1 if c else 1 - p_c1)
        cells[(1, b, c)] = n * pbc * risk[(b, c)]
        cells[(0, b, c)] = n * pbc * (1 - risk[(b, c)])
    return from_cells(("A", "B", "C"), cells)


def test_rr_mixture_identity_in_report():
    t = analytic_b_indep_c()
    rep = check_rr_collapsibility(t, "A", "B", "C")
    assert rep.which_condition in ("b_indep_over", "both")
    assert rep.condition_tests["mixture_identity_residual"] == pytest.approx(0.0, abs=1e-9)


def test_or_collapsible_but_not_rr_collapsible():
    # search distributions with B _||_ C | A: odds-ratio collapsibility is
    # guaranteed, relative-risk collapsibility generally fails
    witness = None
    for pa in (0.3, 0.5):
        for pb_hi in (0.6, 0.8):
            for pc_hi in (0.55, 0.75):
                cells = {}
                for a in (0, 1):
                    p_a = pa if a else 1 - pa
                    pb1 = pb_hi if a else 0.25
                    pc1 = pc_hi if a else 0.2
                    for b, c in itertools.product((0, 1), repeat=2):
                        pb = pb1 if b else 1 - pb1
                        pc = pc1 if c else 1 - pc1
                        cells[(a, b, c)] = 1e6 * p_a * pb * pc
                t = from_cells(("A", "B", "C"), cells)
                rep_or = check_or_collapsibility(t, "A", "B", "C")
                rep_rr = check_rr_collapsibility(t, "A", "B", "C")
                if rep_or.collapsible and not rep_rr.collapsible:
                    witness = (t, rep_or, rep_rr)
                    break
    assert witness is not None
    _, rep_or, rep_rr = witness
    assert rep_or.which_condition == "b_indep_over_given_a"
    assert rep_rr.conditional[0] != pytest.approx(rep_rr.marginal, rel=1e-3)


# -- mixing artifact ------------------------------------------------------------------

def test_mixing_artifact_on_study_data(study):
    rep = mixing_artifact_demo(study, ("V", "A"), ("C", "R"))
    stratum = rep.strata[(0, 1)]  # regular smokers, urban
    assert stratum["control"] == pytest.approx(0.738, abs=0.01)
    assert stratum["case"] == pytest.approx(1.332, abs=0.01)
    assert stratum["mixed"] == pytest.approx(2.844, abs=0.01)
    assert stratum["mixed"] > 2 * max(stratum["control"], stratum["case"])


def test_mixing_rates_match_combined_column(study):
    # V=1 share in the combined table, by age, among urban regular smokers
    mixed = study.marginalize({"V", "C", "R", "A", "E"})
    young = mixed.condition({"C": 0, "R": 1, "A": 0}).marginalize({"V"})
    old = mixed.condition({"C": 0, "R": 1, "A": 1}).marginalize({"V"})
    assert young.cell({"V": 1}) / young.total == pytest.approx(0.096, abs=0.0005)
    assert old.cell({"V": 1}) / old.total == pytest.approx(0.232, abs=0.0005)


def test_mixing_no_artifact_when_indicator_is_independent():
    rng_free = {}
    for l, x, y in itertools.product((0, 1), repeat=3):
        p = (0.3 if l else 0.7) * (0.4 if x else 0.6) * (0.55 if y else 0.45)
        rng_free[(l, x, y)] = 1000 * p
    t = from_cells(("L", "X", "Y"), rng_free)
    rep = mixing_artifact_demo(t, ("X", "Y"), ())
    vals = rep.strata[()]
    assert vals["control"] == pytest.approx(1.0, rel=1e-9)
    assert vals["case"] == pytest.approx(1.0, rel=1e-9)
    assert vals["mixed"] == pytest.approx(1.0, rel=1e-9)


def test_mixing_downstream_indicator_leaves_mixture_independent():
    # X _||_ Y by construction; L generated downstream as a collider.
    # Collapsing over L cannot manufacture dependence, while conditioning
    # on it does.
    cells = {}
    for x, y in itertools.product((0, 1), repeat=2):
        p_xy = (0.45 if x else 0.55) * (0.35 if y else 0.65)
        p_l1 = 0.8 if x == y else 0.15
        cells[(1, x, y)] = 1e6 * p_xy * p_l1
        cells[(0, x, y)] = 1e6 * p_xy * (1 - p_l1)
    t = from_cells(("L", "X", "Y"), cells)
    rep = mixing_artifact_demo(t, ("X", "Y"), ())
    vals = rep.strata[()]
    assert vals["mixed"] == pytest.approx(1.0, abs=1e-10)
    assert abs(math.log(vals["case"])) > 1.0
    assert abs(math.log(vals["control"])) > 1.0
    assert abs(math.log(vals["mixed"])) <= max(
        abs(math.log(vals["case"])), abs(math.log(vals["control"])))
