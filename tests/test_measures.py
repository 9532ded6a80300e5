import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import (
    ContingencyTable,
    DataError,
    Schema,
    TwoByTwo,
    dependence_sign,
    from_cells,
    log_or_se,
    odds_ratio,
    pairwise_report,
    relative_risk,
    risk_difference,
    rr_mixture_weights,
    two_by_two,
)
from casecontrol.measures import (
    chi_squares,
    deviance_of,
    independence_fit,
    margin_scaled,
    pearson_r,
)

from conftest import table_strategy

VODKA_MARGIN = TwoByTwo(n11=88, n10=27, n01=116, n00=349)

positive_cells = st.floats(0.5, 500.0)


def positive_two_by_two():
    return st.builds(TwoByTwo, positive_cells, positive_cells, positive_cells, positive_cells)


# -- single measures -----------------------------------------------------------

def test_odds_ratio_vodka_margin():
    assert odds_ratio(VODKA_MARGIN) == pytest.approx(9.81, abs=0.01)


def test_odds_ratio_independence():
    assert odds_ratio(TwoByTwo(10, 10, 10, 10)) == 1.0


def test_odds_ratio_zero_denominator_is_undefined():
    assert odds_ratio(TwoByTwo(5, 0, 3, 2)) is None
    assert odds_ratio(TwoByTwo(5, 1, 0, 2)) is None


def test_odds_ratio_zero_numerator_is_zero(study):
    # the rural regular-smoker low-education stratum has no exposed cases,
    # so its odds-ratio is exactly 0 (rendered '-' by the CLI)
    tt = two_by_two(study, "L", "V", given={"C": 0, "R": 0, "E": 0})
    assert tt.n11 == 0
    assert odds_ratio(tt) == 0.0


def test_log_or_se_vodka_margin():
    assert log_or_se(VODKA_MARGIN) == pytest.approx(0.245, abs=0.001)


def test_log_or_se_unit_cells():
    assert log_or_se(TwoByTwo(1, 1, 1, 1)) == 2.0


def test_log_or_se_zero_cell_undefined():
    assert log_or_se(TwoByTwo(0, 1, 1, 1)) is None


def test_relative_risk_vodka_margin():
    # response rate 88/115 among exposed vs 116/465 among unexposed
    assert relative_risk(VODKA_MARGIN) == pytest.approx(3.07, abs=0.01)


def test_relative_risk_independence():
    assert relative_risk(TwoByTwo(10, 10, 10, 10)) == 1.0


def test_relative_risk_rate_comparison():
    # rates of 68% vs 22% across the factor
    assert relative_risk(TwoByTwo(68, 32, 22, 78)) == pytest.approx(3.09, abs=0.01)


def test_relative_risk_undefined_cases():
    assert relative_risk(TwoByTwo(0, 0, 3, 2)) is None
    assert relative_risk(TwoByTwo(2, 3, 0, 5)) is None


def test_risk_difference_range():
    assert risk_difference(VODKA_MARGIN) == pytest.approx(88 / 115 - 116 / 465)


def test_dependence_sign_examples():
    assert dependence_sign(VODKA_MARGIN) == "positive"
    assert dependence_sign(TwoByTwo(10, 10, 10, 10)) == "zero"
    assert dependence_sign(TwoByTwo(1, 9, 9, 1)) == "negative"
    assert dependence_sign(TwoByTwo(0, 0, 3, 2)) == "undefined"


def test_sign_agreement_randomized():
    # the three positive-dependence criteria classify identically
    rng = np.random.default_rng(20240817)
    for _ in range(10_000):
        t = TwoByTwo(*rng.integers(1, 200, size=4).astype(float))
        sign = dependence_sign(t)
        odr = odds_ratio(t)
        rr = relative_risk(t)
        rd = risk_difference(t)
        by_or = "positive" if odr > 1 else ("negative" if odr < 1 else "zero")
        by_rr = "positive" if rr > 1 else ("negative" if rr < 1 else "zero")
        by_rd = "positive" if rd > 0 else ("negative" if rd < 0 else "zero")
        assert sign == by_or == by_rr == by_rd


# -- pairwise reports ------------------------------------------------------------

def test_pairwise_report_lv(study):
    rep = pairwise_report(study, "L", "V")
    assert rep.odds_ratio == pytest.approx(9.8, abs=0.05)
    assert rep.lr_chi2 == pytest.approx(104.5, abs=0.05)
    assert rep.pearson_chi2 == pytest.approx(107.6, abs=0.05)
    assert rep.pearson_r == pytest.approx(0.43, abs=0.005)


def test_pairwise_report_la(study):
    rep = pairwise_report(study, "L", "A")
    assert rep.odds_ratio == pytest.approx(3.8, abs=0.05)
    assert rep.pearson_r == pytest.approx(0.30, abs=0.005)


def test_pairwise_report_symmetry(study):
    ab = pairwise_report(study, "L", "E")
    ba = pairwise_report(study, "E", "L")
    assert ab.lr_chi2 == pytest.approx(ba.lr_chi2, rel=1e-12)
    assert ab.pearson_chi2 == pytest.approx(ba.pearson_chi2, rel=1e-12)
    assert abs(ab.pearson_r) == pytest.approx(abs(ba.pearson_r), rel=1e-12)
    assert ab.odds_ratio == pytest.approx(ba.odds_ratio, rel=1e-12)


def test_pairwise_report_requires_distinct(study):
    with pytest.raises(DataError):
        two_by_two(study, "L", "L")


@settings(max_examples=300, deadline=None)
@given(positive_two_by_two())
def test_pearson_chi2_is_n_r_squared(t):
    _, pearson = chi_squares(t)
    assert pearson == pytest.approx(t.total * pearson_r(t) ** 2, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(positive_two_by_two(),
       st.floats(0.05, 20), st.floats(0.05, 20), st.floats(0.05, 20), st.floats(0.05, 20))
def test_odds_ratio_margin_invariance(t, f0, f1, r0, r1):
    scaled = margin_scaled(t, factor_scale=(f0, f1), response_scale=(r0, r1))
    assert odds_ratio(scaled) == pytest.approx(odds_ratio(t), rel=1e-9)


def test_lr_chi2_rounding_residue_reads_zero():
    # exactly independent in real arithmetic: rounding alone moves the
    # statistic off 0, and a negative residue reads 0
    rng = np.random.default_rng(5)
    raws = []
    for r, c in rng.uniform(0.1, 0.9, (100, 2)):
        t = TwoByTwo(8e6 * r * c, 8e6 * r * (1 - c), 8e6 * (1 - r) * c, 8e6 * (1 - r) * (1 - c))
        obs = np.array([[t.n11, t.n10], [t.n01, t.n00]])
        raws.append(deviance_of(obs, independence_fit(obs, (0,), (1,))))
        assert repr(chi_squares(t)[0]) == (repr(raws[-1]) if raws[-1] > 0 else "0.0")
    assert min(raws) < 0


SUBNORMAL = TwoByTwo(n11=1e6, n10=1e6, n01=1e6, n00=5e-324)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_count_keeps_its_lr_chi2():
    # n / m underflows to 0 at the subnormal cell, whose term n log(n / m)
    # is about -4e-321; the statistic is the three other terms
    obs = np.array([[SUBNORMAL.n11, SUBNORMAL.n10], [SUBNORMAL.n01, SUBNORMAL.n00]])
    fitted = independence_fit(obs, (0,), (1,))
    reference = 2 * sum(n * (math.log(n) - math.log(m))
                        for n, m in zip(obs.ravel().tolist(), fitted.ravel().tolist()))
    assert deviance_of(obs, fitted) == pytest.approx(reference, rel=1e-12)
    assert chi_squares(SUBNORMAL)[0] == pytest.approx(1046496.2875290958, rel=1e-12)
    # the subnormal term alone is 2 n (log n - log m): neither -inf nor 0
    alone = deviance_of(np.array([5e-324, 0.0]), np.array([1e6, 1.0]))
    assert alone == pytest.approx(2 * 5e-324 * (math.log(5e-324) - math.log(1e6)), rel=1e-2)
    assert alone < 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_deviance_of_is_unchanged_where_no_ratio_underflows(data):
    # every ratio of two of these lies within [1e-300, 1e300]
    size = data.draw(st.integers(1, 16))
    obs = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]) | st.floats(1e-150, 1e150),
                                      min_size=size, max_size=size)))
    fitted = np.array(data.draw(st.lists(st.floats(1e-150, 1e150), min_size=size,
                                         max_size=size)))
    pos = obs > 0
    old = float(2.0 * np.sum(obs[pos] * np.log(obs[pos] / fitted[pos])))
    assert repr(deviance_of(obs, fitted)) == repr(old)


def test_log_or_se_is_none_when_the_sum_overflows():
    # 1 / 5e-324 overflows to inf
    assert log_or_se(SUBNORMAL) is None
    assert log_or_se(TwoByTwo(1e-300, 1.0, 1.0, 1.0)) == pytest.approx(1e150)


def test_relative_risk_is_not_margin_invariant():
    # doubling the response-level-1 column changes the risks but not the odds-ratio
    t = TwoByTwo(10, 40, 5, 45)
    scaled = margin_scaled(t, response_scale=(1.0, 2.0))
    assert odds_ratio(scaled) == pytest.approx(odds_ratio(t), rel=1e-12)
    assert relative_risk(scaled) != pytest.approx(relative_risk(t), rel=1e-3)


# -- relative-risk mixture weights ------------------------------------------------

def analytic_table(p_b, p_c, risk, n=1e6, dependent=False):
    """Distribution over (A, B, C) with B _||_ C unless ``dependent``."""
    cells = {}
    for b in (0, 1):
        for c in (0, 1):
            p_bc = (p_b if b else 1 - p_b) * (p_c if c else 1 - p_c)
            if dependent:
                p_bc *= 1.25 if b == c else 0.75
            p_a1 = risk[(b, c)]
            cells[(1, b, c)] = n * p_bc * p_a1
            cells[(0, b, c)] = n * p_bc * (1 - p_a1)
    return from_cells(("A", "B", "C"), cells)


RISKS = {(0, 0): 0.10, (1, 0): 0.30, (0, 1): 0.20, (1, 1): 0.44}


def stratum_rr(t, c_level):
    return relative_risk(two_by_two(t, "A", "B", given={"C": c_level}))


def test_rr_mixture_identity_exact():
    t = analytic_table(0.3, 0.4, RISKS)
    alpha, beta = rr_mixture_weights(t, "A", "B", "C")
    assert alpha >= 0 and beta >= 0
    mixture = (alpha * stratum_rr(t, 1) + beta * stratum_rr(t, 0)) / (alpha + beta)
    marginal = relative_risk(two_by_two(t, "A", "B"))
    assert mixture == pytest.approx(marginal, rel=1e-9)


def test_rr_mixture_degenerate_stratum():
    # all mass at C=0: the other stratum gets weight zero and the mixture
    # reduces to the C=0 conditional relative risk
    t = analytic_table(0.3, 0.0, RISKS)
    alpha, beta = rr_mixture_weights(t, "A", "B", "C")
    assert alpha == 0.0
    marginal = relative_risk(two_by_two(t, "A", "B"))
    assert stratum_rr(t, 0) == pytest.approx(marginal, rel=1e-12)


def test_rr_mixture_identity_fails_without_independence():
    t = analytic_table(0.3, 0.4, RISKS, dependent=True)
    alpha, beta = rr_mixture_weights(t, "A", "B", "C")
    mixture = (alpha * stratum_rr(t, 1) + beta * stratum_rr(t, 0)) / (alpha + beta)
    marginal = relative_risk(two_by_two(t, "A", "B"))
    assert abs(mixture - marginal) > 1e-4


def test_rr_mixture_undefined_weights():
    # empty (B=0, C=1) stratum with mass at C=1 leaves alpha undefined
    cells = {(1, 1, 1): 5.0, (0, 1, 1): 5.0, (1, 0, 0): 2.0, (0, 0, 0): 8.0,
             (1, 1, 0): 3.0, (0, 1, 0): 7.0}
    t = from_cells(("A", "B", "C"), cells)
    assert rr_mixture_weights(t, "A", "B", "C") is None


@pytest.mark.parametrize("a, b, c", [("A", "B", "A"), ("A", "B", "B"), ("A", "A", "C")])
def test_rr_mixture_needs_three_distinct_variables(a, b, c):
    t = analytic_table(0.3, 0.4, RISKS)
    with pytest.raises(DataError, match="three distinct variables"):
        rr_mixture_weights(t, a, b, c)


@settings(max_examples=200, deadline=None)
@given(t=table_strategy(min_vars=3, max_vars=5, max_count=4), data=st.data())
def test_2x2_and_mixture_weights_match_cell_lookups(t, data):
    a, b, c = data.draw(st.permutations(t.variables))[:3]
    m = t.marginalize({a, b})
    expected = TwoByTwo(n11=m.cell({a: 1, b: 1}), n10=m.cell({a: 0, b: 1}),
                        n01=m.cell({a: 1, b: 0}), n00=m.cell({a: 0, b: 0}))
    assert two_by_two(t, a, b) == expected
    m = t.marginalize({a, b, c})
    weights = []
    for level in (1, 0):
        p_c = m.marginalize({c}).cell({c: level}) / m.total
        n0, n1 = (m.cell({a: lv, b: 0, c: level}) for lv in (0, 1))
        weights.append(0.0 if p_c == 0 else None if n0 + n1 == 0 else p_c * (n1 / (n0 + n1)))
    assert rr_mixture_weights(t, a, b, c) == (None if None in weights else tuple(weights))
