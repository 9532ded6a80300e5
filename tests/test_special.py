import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from casecontrol import special
from casecontrol.special import chi2_sf, gammainc_lower, gammainc_upper

GRID_A = [0.5, 1.0, 1.5, 2.0, 3.5, 6.0, 10.5, 25.0, 100.0]
GRID_X = [1e-8, 0.01, 0.3, 1.0, 2.5, 7.0, 15.0, 40.0, 120.0, 400.0]


@pytest.mark.parametrize("a", GRID_A)
@pytest.mark.parametrize("x", GRID_X)
def test_gammainc_matches_scipy(a, x):
    assert gammainc_lower(a, x) == pytest.approx(sp.gammainc(a, x), abs=1e-12)
    assert gammainc_upper(a, x) == pytest.approx(sp.gammaincc(a, x), abs=1e-12)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 8, 12, 19, 21, 23])
@pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 4.7, 9.2, 16.2, 21.4, 35.0, 80.0])
def test_chi2_sf_matches_scipy(df, x):
    assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.25, 200), x=st.floats(0, 500))
def test_complementarity_and_bounds(a, x):
    lo = gammainc_lower(a, x)
    up = gammainc_upper(a, x)
    assert 0.0 <= lo <= 1.0
    assert 0.0 <= up <= 1.0
    assert lo + up == pytest.approx(1.0, abs=1e-12)


def test_chi2_sf_monotone_in_x():
    values = [chi2_sf(x, 5) for x in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_domain_errors():
    with pytest.raises(ValueError):
        gammainc_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -1.0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    assert math.isclose(chi2_sf(-3.0, 4), 1.0)


def test_chi2_sf_of_nan_is_nan_at_once(monkeypatch):
    def no_gamma(a, x):
        raise AssertionError("nan reached the incomplete gamma")

    monkeypatch.setattr(special, "gammainc_upper", no_gamma)
    for df in (1, 2, 7):
        assert math.isnan(chi2_sf(math.nan, df))
