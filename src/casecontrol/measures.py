"""Dependence measures for 2x2 tables and pairwise margins.

Measures that can be undefined (odds-ratio with an empty denominator, the
standard error of a log odds-ratio with an empty cell) return ``None``
rather than raising: an undefined value is a reportable outcome, not a
failure.  No continuity corrections are applied anywhere.

The sign of a dependence is the same whichever of the three classical
criteria is used (odds-ratio vs 1, relative risk vs 1, risk difference
vs 0); ``dependence_sign`` relies on that equivalence and the test suite
checks it over randomized tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tables import CellAddress, ContingencyTable, DataError


@dataclass(frozen=True)
class TwoByTwo:
    """Counts of a response-by-factor table.

    ``n11``: factor present, response present;  ``n10``: factor present,
    response absent;  ``n01``: factor absent, response present;  ``n00``:
    factor absent, response absent.  Counts may be non-integer (fitted
    tables); the total must be positive.
    """

    n11: float
    n10: float
    n01: float
    n00: float

    def __post_init__(self):
        cells = (self.n11, self.n10, self.n01, self.n00)
        if any(c < 0 for c in cells):
            raise DataError("cell counts must be nonnegative")
        if sum(cells) <= 0:
            raise DataError("table total must be positive")

    @property
    def total(self) -> float:
        return self.n11 + self.n10 + self.n01 + self.n00


def two_by_two(t: ContingencyTable, response: str, factor: str,
               given: CellAddress | None = None) -> TwoByTwo:
    """Extract the response-by-factor 2x2 margin, optionally within a stratum."""
    if response == factor:
        raise DataError("response and factor must differ")
    if given:
        t = t.condition(given)
    m = t.marginalize({response, factor})
    (n00, n10), (n01, n11) = m.counts.transpose(
        m.schema.axis(response), m.schema.axis(factor)).tolist()
    return TwoByTwo(n11=n11, n10=n10, n01=n01, n00=n00)


def odds_ratio(t: TwoByTwo) -> float | None:
    """Cross-product ratio (n11 n00) / (n10 n01); None when the denominator is 0.

    A zero numerator with a positive denominator gives 0, matching the
    convention that only division by zero is undefined.
    """
    denom = t.n10 * t.n01
    if denom == 0:
        return None
    return (t.n11 * t.n00) / denom


def log_or_se(t: TwoByTwo) -> float | None:
    """Delta-method standard error of log odds-ratio: sqrt of summed reciprocals.

    Undefined (None) if any cell is empty.
    """
    cells = (t.n11, t.n10, t.n01, t.n00)
    if any(c == 0 for c in cells):
        return None
    return math.sqrt(sum(1.0 / c for c in cells))


def relative_risk(t: TwoByTwo) -> float | None:
    """Ratio of response rates across factor levels.

    risk(factor=1) / risk(factor=0), with risks taken as the response rate
    within each factor level.  Undefined when either factor margin is empty
    or the factor=0 risk is zero.
    """
    m1 = t.n11 + t.n10
    m0 = t.n01 + t.n00
    if m1 == 0 or m0 == 0:
        return None
    r1 = t.n11 / m1
    r0 = t.n01 / m0
    if r0 == 0:
        return None
    return r1 / r0


def risk_difference(t: TwoByTwo) -> float | None:
    """Difference of response rates across factor levels, in [-1, 1]."""
    m1 = t.n11 + t.n10
    m0 = t.n01 + t.n00
    if m1 == 0 or m0 == 0:
        return None
    return t.n11 / m1 - t.n01 / m0


def dependence_sign(t: TwoByTwo) -> str:
    """Sign of the dependence: 'positive', 'zero', 'negative' or 'undefined'.

    Requires all four margins positive; the sign is that of the cross-product
    difference n11 n00 - n10 n01, which agrees with the odds-ratio, relative
    risk and risk difference classifications whenever those are defined.
    """
    margins = (t.n11 + t.n10, t.n01 + t.n00, t.n11 + t.n01, t.n10 + t.n00)
    if any(m == 0 for m in margins):
        return "undefined"
    diff = t.n11 * t.n00 - t.n10 * t.n01
    if diff > 0:
        return "positive"
    if diff < 0:
        return "negative"
    return "zero"


def pearson_r(t: TwoByTwo) -> float:
    """Correlation coefficient of the two binary variables (phi)."""
    m1 = t.n11 + t.n10
    m0 = t.n01 + t.n00
    c1 = t.n11 + t.n01
    c0 = t.n10 + t.n00
    denom = math.sqrt(m1 * m0 * c1 * c0)
    if denom == 0:
        return 0.0
    return (t.n11 * t.n00 - t.n10 * t.n01) / denom


def deviance_of(observed: np.ndarray, fitted: np.ndarray) -> float:
    """2 sum n log(n / m) with 0 log 0 = 0; infinite where n > 0 = m."""
    obs = observed.ravel()
    fit = fitted.ravel()
    pos = obs > 0
    if np.any(fit[pos] == 0):
        return math.inf
    return float(2.0 * np.sum(obs[pos] * np.log(obs[pos] / fit[pos])))


def pearson_of(observed: np.ndarray, fitted: np.ndarray) -> float:
    """sum (n - m)^2 / m over the cells with m > 0; infinite where n > 0 = m."""
    obs = observed.ravel()
    fit = fitted.ravel()
    pos = fit > 0
    if np.any(obs[~pos] > 0):
        return math.inf
    return float(np.sum((obs[pos] - fit[pos]) ** 2 / fit[pos]))


def independence_fit(counts: np.ndarray, a_axes, b_axes) -> np.ndarray:
    """Fitted counts of a _||_ b | c, with c every axis of ``counts`` outside
    ``a_axes`` and ``b_axes``: n(ac) n(bc) / n(c), and 0 where n(c) = 0.

    The model is decomposable, so this closed form is its maximum-likelihood
    fit (Bishop, Fienberg & Holland 1975, ch. 3) and no iteration is needed.
    """
    n_ac = counts.sum(axis=tuple(b_axes), keepdims=True)
    n_bc = counts.sum(axis=tuple(a_axes), keepdims=True)
    n_c = n_ac.sum(axis=tuple(a_axes), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n_c > 0, n_ac * n_bc / n_c, 0.0)


def chi_squares(t: TwoByTwo) -> tuple[float, float]:
    """(likelihood-ratio, Pearson) chi-square statistics for independence of
    factor (rows) and response (columns)."""
    obs = np.array([[t.n11, t.n10], [t.n01, t.n00]])
    fit = independence_fit(obs, (0,), (1,))
    return deviance_of(obs, fit), pearson_of(obs, fit)


@dataclass(frozen=True)
class MeasureReport:
    """All pairwise measures for one response/factor margin.

    Full precision is retained here; display rounding (one decimal for
    odds-ratios and chi-squares, two for correlations) happens in the CLI.
    """

    response: str
    factor: str
    odds_ratio: float | None
    log_or_se: float | None
    relative_risk: float | None
    risk_difference: float | None
    pearson_r: float
    lr_chi2: float
    pearson_chi2: float

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "factor": self.factor,
            "odds_ratio": self.odds_ratio,
            "log_or_se": self.log_or_se,
            "relative_risk": self.relative_risk,
            "risk_difference": self.risk_difference,
            "pearson_r": self.pearson_r,
            "lr_chi2": self.lr_chi2,
            "pearson_chi2": self.pearson_chi2,
        }


def pairwise_report(t: ContingencyTable, a: str, b: str,
                    given: CellAddress | None = None) -> MeasureReport:
    """Measures on the (a, b) margin with ``a`` as response and ``b`` as factor."""
    tt = two_by_two(t, response=a, factor=b, given=given)
    lr, pearson = chi_squares(tt)
    return MeasureReport(
        response=a,
        factor=b,
        odds_ratio=odds_ratio(tt),
        log_or_se=log_or_se(tt),
        relative_risk=relative_risk(tt),
        risk_difference=risk_difference(tt),
        pearson_r=pearson_r(tt),
        lr_chi2=lr,
        pearson_chi2=pearson,
    )


def rr_mixture_weights(t: ContingencyTable, a: str, b: str, c: str
                       ) -> tuple[float, float] | None:
    """Weights (alpha, beta) expressing the marginal relative risk of (a, b)
    as a weighted average of the risks conditional on c.

    alpha = P(c=1) P(a=1 | b=0, c=1) and beta = P(c=0) P(a=1 | b=0, c=0).
    When b and c are independent in ``t``,

        rr(a|b) = (alpha rr(a|b, c=1) + beta rr(a|b, c=0)) / (alpha + beta)

    holds exactly.  The weights are computed regardless of whether the
    independence holds; None if a required conditional probability has an
    empty denominator.
    """
    m = t.marginalize({a, b, c})
    if len(m.variables) != 3:
        raise DataError("mixture weights need three distinct variables")
    n = m.total
    # x[a, b=0, c]: the response counts at the factor's reference level
    x = m.counts.transpose([m.schema.axis(v) for v in (a, b, c)])[:, 0].tolist()
    weights = []
    # a stratum with no mass contributes weight 0; its conditional
    # probability is then never needed
    for count, a0, a1 in zip(m.marginalize({c}).counts.tolist(), *x):
        p_c = count / n
        if p_c != 0 and a0 + a1 == 0:
            return None
        weights.append(0.0 if p_c == 0 else p_c * (a1 / (a0 + a1)))
    beta, alpha = weights
    return alpha, beta


def margin_scaled(t: TwoByTwo, factor_scale: tuple[float, float] = (1.0, 1.0),
                  response_scale: tuple[float, float] = (1.0, 1.0)) -> TwoByTwo:
    """Rescale factor rows / response columns by positive constants.

    The odds-ratio is invariant under this operation; the relative risk is
    not.  Used by tests to pin down that distinction.
    """
    f0, f1 = factor_scale
    r0, r1 = response_scale
    if min(f0, f1, r0, r1) <= 0:
        raise DataError("scales must be positive")
    return TwoByTwo(
        n11=t.n11 * f1 * r1,
        n10=t.n10 * f1 * r0,
        n01=t.n01 * f0 * r1,
        n00=t.n00 * f0 * r0,
    )
