"""Chi-square upper-tail probabilities via the regularized incomplete gamma.

Series and continued-fraction evaluation in the style of Numerical Recipes
(gser/gcf), accurate to about 1e-14 relative over the range exercised here;
the project only needs 1e-10.  ``math.lgamma`` supplies the normalisation.
"""

from __future__ import annotations

import math

_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 500


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized P(a, x) by series; best for x < a + 1."""
    ap = a
    summand = 1.0 / a
    total = summand
    for _ in range(_ITMAX):
        ap += 1.0
        summand *= x / ap
        total += summand
        if abs(summand) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized Q(a, x) by Lentz continued fraction; for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_series(a, x), 1.0)
    return max(1.0 - _gamma_cf(a, x), 0.0)


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return max(1.0 - _gamma_series(a, x), 0.0)
    return min(_gamma_cf(a, x), 1.0)


def chi2_sf(x: float, df: float) -> float:
    """P(X >= x) for X chi-square with ``df`` degrees of freedom; NaN for a
    NaN statistic."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return gammainc_upper(0.5 * df, 0.5 * x)
