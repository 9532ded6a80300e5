"""Case-control synthesis: separate independence structures per sample.

Cases and controls are samples from two different populations, so their
regressor tables are fitted separately, each under its own log-linear
structure, and the fitted slices are recombined into a joint table.  Odds
ratios read off that table are smoothed: they borrow strength from the
margins that the independence structures justify, which is what shrinks
their standard errors relative to the saturated fit.

Standard errors of smoothed log odds-ratios are delta-method values
propagated through the model fit (contrast variance against the inverse
information of each slice's log-linear fit), not the plain reciprocal-sum
formula applied to fitted cells; the latter does not reflect the borrowing
and can exceed the saturated standard error.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .loglinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LoglinearFit,
    LoglinearSpec,
    fit_ipf,
    contrast_variances,
    independence_test,
)
from .graphs import IndependenceStatement
from .special import chi2_sf
from .tables import ContingencyTable, DataError, Schema, json_names


@dataclass(frozen=True)
class CaseControlModel:
    """Separate generating classes for the case and control populations.

    Both specs live on the regressor schema (the case/control indicator
    excluded); the totals record the size of each sample.
    """

    case_spec: LoglinearSpec
    control_spec: LoglinearSpec
    case_total: float
    control_total: float

    def __post_init__(self):
        if self.case_spec.schema != self.control_spec.schema:
            raise DataError("case and control specs must share the regressor schema")
        if self.case_total <= 0 or self.control_total <= 0:
            raise DataError("sample totals must be positive")

    @classmethod
    def from_generators(cls, observed: ContingencyTable, case_generators,
                        control_generators, indicator: str = "L") -> "CaseControlModel":
        regressors = Schema(tuple(v for v in observed.variables if v != indicator))
        observed.schema.axis(indicator)
        return cls(
            case_spec=LoglinearSpec(regressors, tuple(tuple(g) for g in case_generators)),
            control_spec=LoglinearSpec(regressors, tuple(tuple(g) for g in control_generators)),
            case_total=observed.slice_l(indicator, 1).total,
            control_total=observed.slice_l(indicator, 0).total,
        )

    @classmethod
    def from_json(cls, text: str, observed: ContingencyTable,
                  indicator: str = "L") -> "CaseControlModel":
        payload = json.loads(text)
        message = "model JSON needs case/control 'generators' lists of variable-name lists"
        try:
            case_gens = payload["case"]["generators"]
            control_gens = payload["control"]["generators"]
        except (TypeError, KeyError):
            raise DataError(message) from None
        return cls.from_generators(observed, json_names(case_gens, message, nested=True),
                                   json_names(control_gens, message, nested=True), indicator)

    def to_json(self) -> str:
        return json.dumps({"case": self.case_spec.to_dict(),
                           "control": self.control_spec.to_dict()}, indent=2)


@dataclass(frozen=True)
class SmoothedEstimates:
    """Joint fitted table plus per-slice fit metadata.

    ``fitted_joint`` carries the indicator variable in its observed
    position; slice totals are preserved by IPF, so the control slice sums
    to ``control_total`` and the case slice to ``case_total``.
    """

    indicator: str
    model: CaseControlModel
    fitted_joint: ContingencyTable
    case_fit: LoglinearFit
    control_fit: LoglinearFit

    @property
    def regressors(self) -> tuple[str, ...]:
        return self.model.case_spec.schema.variables

    def _axis_order(self, schema: Schema, factor: str, given) -> list[int]:
        """Axes of ``factor`` and then of ``given`` in ``schema``, after
        checking that ``given`` lists every other regressor once."""
        given = tuple(given)
        if factor not in self.regressors:
            raise DataError(f"factor {factor!r} is not a regressor of the model")
        expect = set(self.regressors) - {factor}
        if len(given) != len(expect) or set(given) != expect:
            raise DataError(f"conditioning set must be exactly {sorted(expect)}")
        return [schema.axis(v) for v in (factor, *given)]

    def odds_ratios(self, factor: str, given) -> dict:
        """Smoothed odds-ratios of (indicator, factor) per ``given`` stratum.

        ``given`` must list the remaining regressors (any order); keys are
        their level tuples.  Ratios with an empty denominator are None.
        """
        joint = self.fitted_joint
        order = [joint.schema.axis(self.indicator),
                 *self._axis_order(joint.schema, factor, given)]
        # m[response, factor, stratum], strata in C order of ``given``
        m = np.moveaxis(joint.counts, order, range(len(order))).reshape(2, 2, -1)
        denom = m[0, 1] * m[1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (m[1, 1] * m[0, 0]) / denom
        values = [None if d == 0 else r for r, d in zip(ratio.tolist(), denom.tolist())]
        return dict(zip(itertools.product((0, 1), repeat=len(order) - 2), values))

    def odds_ratio_ses(self, factor: str, given) -> dict:
        """Delta-method standard errors of the smoothed log odds-ratios.

        The log odds-ratio splits into one two-cell contrast per slice,
        log m[factor=1] - log m[factor=0] within the stratum; the slices
        are independent samples, so the contrast variances add.  A stratum
        whose contrast touches a fitted zero in either slice is None.
        """
        schema = self.model.case_spec.schema
        axes = self._axis_order(schema, factor, given)
        k = len(schema)
        strides = 1 << (k - 1 - np.array(axes))
        keys = list(itertools.product((0, 1), repeat=k - 1))
        lo = np.array(keys, dtype=np.int64).reshape(len(keys), k - 1) @ strides[1:]
        hi = lo + strides[0]
        var = (contrast_variances(self.case_fit, self.model.case_spec, hi, lo)
               + contrast_variances(self.control_fit, self.model.control_spec, hi, lo))
        ses = [None if math.isnan(v) else math.sqrt(v) for v in var.tolist()]
        return dict(zip(keys, ses))


def smooth(observed: ContingencyTable, m: CaseControlModel,
           indicator: str = "L", tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER) -> SmoothedEstimates:
    """Fit each indicator slice under its spec and recombine.

    The case slice (indicator = 1) is fitted under ``m.case_spec``, the
    control slice under ``m.control_spec``; fitted slices are stacked back
    into a table over the original schema.
    """
    observed.schema.axis(indicator)
    expected = {v for v in observed.variables if v != indicator}
    if set(m.case_spec.schema.variables) != expected:
        raise DataError("model regressors do not match the observed table")
    case_fit = fit_ipf(observed.slice_l(indicator, 1).marginalize(m.case_spec.schema.variables),
                       m.case_spec, tol=tol, max_iter=max_iter)
    control_fit = fit_ipf(observed.slice_l(indicator, 0).marginalize(m.control_spec.schema.variables),
                          m.control_spec, tol=tol, max_iter=max_iter)

    axis = observed.schema.axis(indicator)
    joint = np.zeros(observed.counts.shape)
    index: list = [slice(None)] * len(observed.variables)
    regressors = m.case_spec.schema.variables
    # reorder slice axes back into the observed variable order
    order = [regressors.index(v) for v in observed.variables if v != indicator]
    for level, fit in ((0, control_fit), (1, case_fit)):
        index[axis] = level
        joint[tuple(index)] = np.moveaxis(fit.fitted.counts, order, range(len(order)))
    return SmoothedEstimates(
        indicator=indicator,
        model=m,
        fitted_joint=ContingencyTable(observed.schema, joint),
        case_fit=case_fit,
        control_fit=control_fit,
    )


# -- collapsibility ----------------------------------------------------------

@dataclass(frozen=True)
class CollapsibilityReport:
    """Outcome of a simple-collapsibility check for a pair over one variable.

    ``conditional`` maps the level of the collapsed variable to the
    conditional measure; ``which_condition`` names the sufficient condition
    that holds ('a_indep_over_given_b', 'b_indep_over_given_a', 'both',
    'b_indep_over' for the relative-risk variant, or 'neither').  On
    observed data the verdict is a statistical statement: the deviances and
    p-values of the condition tests ride along so reports never reduce to a
    bare boolean.
    """

    measure: str
    pair: tuple[str, str]
    over: str
    conditional: dict
    marginal: float | None
    collapsible: bool
    which_condition: str
    condition_tests: dict

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "pair": list(self.pair),
            "over": self.over,
            "conditional": {str(k): v for k, v in self.conditional.items()},
            "marginal": self.marginal,
            "collapsible": self.collapsible,
            "which_condition": self.which_condition,
            "condition_tests": self.condition_tests,
        }


def _condition_test(t: ContingencyTable, a: str, b: str, *given: str) -> dict:
    stmt = IndependenceStatement(frozenset({a}), frozenset({b}), frozenset(given))
    dev, df = independence_test(t, stmt)
    return {"statement": str(stmt), "deviance": dev, "df": df,
            "p": chi2_sf(dev, df) if df > 0 else 1.0}


def _close(x, y, rel_tol):
    if x is None or y is None:
        return False
    return math.isclose(x, y, rel_tol=rel_tol, abs_tol=rel_tol)


def _report(measure: str, pair: tuple[str, str], over: str, conditional: dict,
            marginal, tests: dict, conditions: tuple[str, str], rel_tol: float,
            alpha: float | None) -> CollapsibilityReport:
    """Verdict shared by the collapsibility checks: which of the two
    sufficient ``conditions`` hold (exactly, or as tests at ``alpha``) and
    whether conditional and marginal measures agree within ``rel_tol``."""

    def holds(test):
        if alpha is None:
            return test["deviance"] <= rel_tol
        return test["p"] > alpha

    held = [name for name in conditions if holds(tests[name])]
    which = "both" if len(held) == 2 else (held[0] if held else "neither")
    collapsible = (_close(conditional[0], conditional[1], rel_tol)
                   and _close(conditional[0], marginal, rel_tol))
    return CollapsibilityReport(
        measure=measure, pair=pair, over=over,
        conditional=conditional, marginal=marginal,
        collapsible=collapsible, which_condition=which, condition_tests=tests,
    )


def check_or_collapsibility(t: ContingencyTable, a: str, b: str, over: str,
                            rel_tol: float = 1e-8, alpha: float | None = None
                            ) -> CollapsibilityReport:
    """Check simple collapsibility of the (a, b) odds-ratio over ``over``.

    Sufficient condition: a _||_ over | b or b _||_ over | a.  With
    ``alpha`` unset the conditions are read as exact statements (zero
    deviance up to ``rel_tol``), appropriate for analytically constructed
    tables; with ``alpha`` set they are likelihood-ratio tests at that
    level.  The verdict ``collapsible`` states whether conditional and
    marginal odds-ratios agree within ``rel_tol``.
    """
    m = t.marginalize({a, b, over})
    conditional = {
        lvl: measures.odds_ratio(measures.two_by_two(m, a, b, given={over: lvl}))
        for lvl in (0, 1)
    }
    marginal = measures.odds_ratio(measures.two_by_two(m, a, b))
    conditions = ("a_indep_over_given_b", "b_indep_over_given_a")
    tests = dict(zip(conditions, (_condition_test(m, a, over, b), _condition_test(m, b, over, a))))
    return _report("odds_ratio", (a, b), over, conditional, marginal, tests, conditions,
                   rel_tol, alpha)


def check_rr_collapsibility(t: ContingencyTable, a: str, b: str, over: str,
                            rel_tol: float = 1e-8, alpha: float | None = None
                            ) -> CollapsibilityReport:
    """Check simple collapsibility of the (a, b) relative risk over ``over``.

    Sufficient condition: a _||_ over | b or b _||_ over (note the second
    is marginal, unlike the odds-ratio case).  The report also carries the
    mixture identity: with weights (alpha, beta) from
    ``measures.rr_mixture_weights`` the marginal relative risk equals the
    weighted average of the conditional ones whenever b _||_ over; the
    residual of that identity is included.
    """
    m = t.marginalize({a, b, over})
    conditional = {
        lvl: measures.relative_risk(measures.two_by_two(m, a, b, given={over: lvl}))
        for lvl in (0, 1)
    }
    marginal = measures.relative_risk(measures.two_by_two(m, a, b))
    conditions = ("a_indep_over_given_b", "b_indep_over")
    tests = dict(zip(conditions, (_condition_test(m, a, over, b), _condition_test(m, b, over))))
    weights = measures.rr_mixture_weights(m, a, b, over)
    residual = None
    if weights is not None and None not in conditional.values() and marginal is not None:
        alpha_w, beta_w = weights
        if alpha_w + beta_w > 0:
            mixture = (alpha_w * conditional[1] + beta_w * conditional[0]) / (alpha_w + beta_w)
            residual = mixture - marginal
    tests["mixture_identity_residual"] = residual
    return _report("relative_risk", (a, b), over, conditional, marginal, tests, conditions,
                   rel_tol, alpha)


# -- sample-mixing artifact ---------------------------------------------------

@dataclass(frozen=True)
class MixingReport:
    """(a, b | given) association in each indicator slice and in the mixture.

    Case-control sampling fixes the indicator by design, so dependences
    seen after collapsing it can be artifacts of mixing two populations;
    this report makes the comparison explicit per stratum.  Each stratum
    maps to odds-ratios under keys 'control', 'case', 'mixed'.
    """

    pair: tuple[str, str]
    given: tuple[str, ...]
    indicator: str
    strata: dict

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "given": list(self.given),
            "indicator": self.indicator,
            "strata": {str(k): v for k, v in self.strata.items()},
        }


def mixing_artifact_demo(observed: ContingencyTable, pair: tuple[str, str],
                         given, indicator: str = "L") -> MixingReport:
    """Compare the (a, b) association within indicator slices to the one in
    the indicator-collapsed table, per stratum of ``given``."""
    a, b = pair
    observed.schema.axis(indicator)
    given = tuple(given)
    control = observed.slice_l(indicator, 0)
    case = observed.slice_l(indicator, 1)
    mixed = observed.marginalize(set(observed.variables) - {indicator})
    strata = {}
    for levels in itertools.product((0, 1), repeat=len(given)):
        at = dict(zip(given, levels))
        strata[levels] = {
            "control": measures.odds_ratio(measures.two_by_two(control, a, b, given=at)),
            "case": measures.odds_ratio(measures.two_by_two(case, a, b, given=at)),
            "mixed": measures.odds_ratio(measures.two_by_two(mixed, a, b, given=at)),
        }
    return MixingReport(pair=pair, given=given, indicator=indicator, strata=strata)
