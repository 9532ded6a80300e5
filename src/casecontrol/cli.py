"""Command-line front end.

One subcommand per analysis: ingestion, marginals, dependence measures,
log-linear and logit fits, case-control smoothing, forward selection,
graph queries, collapsibility checks, and ``reproduce``, which re-derives
every pinned number of the bundled study analysis.

Exit codes: 0 success, 1 data or model error, 2 usage error.  Output is
deterministic for fixed input and flags: no timestamps, stable key order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import data as bundled
from . import graphs, loglinear, logit, measures, reproduce, smoothing, tables

# Module operations each subcommand drives, directly or one call deep; the
# test suite checks that every public operation is reachable from at least
# one command.
COMMAND_OPERATIONS = {
    "ingest": ["tables.ingest", "tables.emit"],
    "marginal": ["tables.ingest", "tables.ContingencyTable.marginalize",
                 "tables.ContingencyTable.condition", "tables.emit"],
    "measure": ["measures.pairwise_report", "measures.two_by_two", "measures.odds_ratio",
                "measures.log_or_se", "measures.relative_risk", "measures.risk_difference",
                "measures.dependence_sign", "measures.rr_mixture_weights",
                "smoothing.mixing_artifact_demo"],
    "fit-loglinear": ["loglinear.fit_ipf", "loglinear.fit_closed_form_casecontrol"],
    "fit-logit": ["logit.parse_formula", "logit.fit_logit", "logit.fitted_odds_ratios"],
    "smooth": ["smoothing.smooth", "loglinear.fit_ipf", "loglinear.contrast_variances"],
    "select": ["loglinear.forward_select", "graphs.cliques"],
    "graph-check": ["graphs.find_collision_vs", "graphs.is_markov_equivalent_to_concentration",
                    "graphs.separates", "graphs.implied_independencies",
                    "graphs.marginalize_graph", "graphs.cliques",
                    "graphs.concentration_skeleton"],
    "collapse": ["smoothing.check_or_collapsibility", "smoothing.check_rr_collapsibility",
                 "loglinear.independence_test"],
    "reproduce": ["reproduce.run_checks", "loglinear.deviance_decomposition",
                  "logit.interaction_from_odds_ratios", "tables.ContingencyTable.cell"],
}


class UsageError(Exception):
    pass


def _bounded(cast, ok, expected: str):
    """argparse ``type=``: ``cast`` the text and keep it only when ``ok``,
    so that a value out of range is a usage error (exit 2)."""
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_TOL = _bounded(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_MAX_ITER = _bounded(int, lambda n: n >= 1, "an integer >= 1")
_ALPHA = _bounded(float, lambda a: 0 < a < 1, "a level in (0, 1)")


def _fmt(value, decimals=1):
    """Display rounding: '-' for undefined values."""
    if value is None:
        return "-"
    return f"{value:.{decimals}f}"


def _read_table(args) -> tables.ContingencyTable:
    if getattr(args, "data", None):
        text = Path(args.data).read_text(encoding="utf-8")
        t = tables.ingest(text)
    else:
        t = bundled.bundled_table()
    if getattr(args, "slice", None):
        t = t.condition(_parse_address(args.slice))
    return t


def _parse_address(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad assignment {part!r}, expected NAME=0 or NAME=1")
        name, _, level = part.partition("=")
        if level.strip() not in ("0", "1"):
            raise UsageError(f"bad level in {part!r}")
        out[name.strip()] = int(level)
    if not out:
        raise UsageError(f"empty address {text!r}")
    return out


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise UsageError(f"no variable names in {text!r}")
    return names


def _parse_pair(text: str) -> tuple[str, str]:
    names = _parse_names(text)
    if len(names) != 2:
        raise UsageError(f"expected two comma-separated names, got {text!r}")
    return names


def _parse_generators(text: str) -> tuple[tuple[str, ...], ...]:
    gens = tuple(_parse_names(part) for part in text.split(";") if part.strip())
    if not gens:
        raise UsageError(f"no generators in {text!r}")
    return gens


def _cell_map(table: tables.ContingencyTable) -> dict:
    """Cell counts keyed by their levels in schema order, e.g. '0110'."""
    return {"".join(map(str, lv)): c for lv, c in table.cells()}


def _stratum_label(names, levels) -> str:
    """The stratum at ``levels`` of ``names``, e.g. 'C=0,R=1'."""
    return ",".join(f"{v}={l}" for v, l in zip(names, levels))


def _warn_unconverged(label: str, fit, unit: str = "sweeps") -> None:
    """One stderr line for a reported fit that did not converge; stdout and
    the exit code stay as they are."""
    if not fit.converged:
        print(f"warning: {label} did not converge after {fit.iterations} {unit}",
              file=sys.stderr)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands ---------------------------------------------------------


def cmd_ingest(args) -> int:
    src = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
    t = tables.ingest(src)
    _emit(args, {"variables": list(t.variables), "total": t.total, "cells": _cell_map(t)},
          [tables.emit(t).removesuffix("\n")])
    return 0


def cmd_marginal(args) -> int:
    t = _read_table(args)
    if args.given:
        t = t.condition(_parse_address(args.given))
    m = t.marginalize(set(_parse_names(args.keep)))
    _emit(args, {"variables": list(m.variables), "total": m.total, "zero_total": m.zero_total,
                 "cells": _cell_map(m)},
          [tables.emit(m).removesuffix("\n")])
    return 0


def cmd_measure(args) -> int:
    t = _read_table(args)
    a, b = _parse_pair(args.pair)
    if args.split:
        given = _parse_names(args.given) if args.given else ()
        rep = smoothing.mixing_artifact_demo(t, (a, b), given, indicator=args.split)
        lines = [f"association of ({a},{b}) by {args.split}-slice and mixed"]
        for levels, vals in sorted(rep.strata.items()):
            label = _stratum_label(given, levels) or "(all)"
            lines.append(f"  {label:<16} control {_fmt(vals['control'])}"
                         f"  case {_fmt(vals['case'])}  mixed {_fmt(vals['mixed'])}")
        _emit(args, rep.to_dict(), lines)
        return 0
    given = _parse_address(args.given) if args.given else None
    rep = measures.pairwise_report(t, a, b, given=given)
    tt = measures.two_by_two(t, a, b, given=given)
    lines = [
        f"pair ({a},{b})" + (f" given {args.given}" if args.given else ""),
        f"  odds-ratio      {_fmt(rep.odds_ratio)}   (se of log: {_fmt(rep.log_or_se, 3)})",
        f"  relative risk   {_fmt(rep.relative_risk)}",
        f"  risk difference {_fmt(rep.risk_difference, 2)}",
        f"  correlation     {_fmt(rep.pearson_r, 2)}",
        f"  LR chi2         {_fmt(rep.lr_chi2)}",
        f"  Pearson chi2    {_fmt(rep.pearson_chi2)}",
        f"  dependence      {measures.dependence_sign(tt)}",
    ]
    payload = rep.to_dict()
    payload["dependence_sign"] = measures.dependence_sign(tt)
    if args.mixture_over:
        weights = measures.rr_mixture_weights(t, a, b, args.mixture_over)
        payload["rr_mixture_weights"] = weights
        lines.append(f"  rr mixture weights over {args.mixture_over}: "
                     + ("-" if weights is None else f"{weights[0]:.4f}, {weights[1]:.4f}"))
    _emit(args, payload, lines)
    return 0


def cmd_fit_loglinear(args) -> int:
    t = _read_table(args)
    if args.closed_form:
        closed = loglinear.fit_closed_form_casecontrol(t, response=args.response)
        payload = {"controls": _cell_map(closed.controls), "cases": _cell_map(closed.cases)}
        lines = ["closed-form case-control estimates (cases saturated)"]
        for key, c in payload["controls"].items():
            lines.append(f"  controls {key}  {c:.2f}")
        _emit(args, payload, lines)
        return 0
    if args.model is not None:
        spec_payload = json.loads(Path(args.model).read_text(encoding="utf-8"))
        gens = tables.json_names(
            spec_payload.get("generators") if isinstance(spec_payload, dict) else None,
            "model JSON needs a 'generators' list of variable-name lists", nested=True)
    else:
        gens = _parse_generators(args.generators)
    spec = loglinear.LoglinearSpec(t.schema, gens)
    fit = loglinear.fit_ipf(t, spec, tol=args.tol, max_iter=args.max_iter)
    _warn_unconverged("log-linear fit", fit)
    payload = {
        "generators": [list(g) for g in spec.generators],
        "deviance": fit.deviance,
        "pearson_chi2": fit.pearson_chi2,
        "df": fit.df,
        "p": fit.p_value,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "max_margin_gap": fit.max_margin_gap,
        "fitted": _cell_map(fit.fitted),
    }
    lines = [
        "model " + " + ".join("{" + ",".join(g) + "}" for g in spec.generators),
        f"  deviance {fit.deviance:.4f} on {fit.df} df   (p = {fit.p_value:.4f})",
        f"  Pearson chi2 {fit.pearson_chi2:.4f}",
        f"  converged {fit.converged} after {fit.iterations} sweeps"
        f" (margin gap {fit.max_margin_gap:.2e})",
    ]
    if args.fitted:
        lines.append("  fitted cells:")
        for key, c in payload["fitted"].items():
            lines.append(f"    {key}  {c:.3f}")
    _emit(args, payload, lines)
    return 0


def cmd_fit_logit(args) -> int:
    t = _read_table(args)
    formula = logit.parse_formula(args.formula)
    fit = logit.fit_logit(t, formula, tol=args.tol, max_iter=args.max_iter)
    _warn_unconverged("logit fit", fit, "iterations")
    single = all(len(v) == 1 for v in fit.regressors)

    def disp(term):
        return term.replace(":", "") if single else term

    lines = [f"logit {formula}",
             f"  deviance {fit.deviance_vs_saturated:.4f} on {fit.df} df"
             f"   (p = {fit.p_value:.4f})",
             f"  converged {fit.converged} after {fit.iterations} iterations",
             f"  {'term':<10} {'coeff':>8} {'se':>7} {'z':>7}"]
    maximal = {logit.term_name(term) for term in fit.formula.terms
               if not any(set(term) < set(o) for o in fit.formula.terms)}
    for name in fit.coefficients:
        z = f"{fit.z_obs[name]:7.2f}" if name in maximal else "    ---"
        lines.append(f"  {disp(name):<10} {fit.coefficients[name]:8.2f}"
                     f" {fit.se[name]:7.2f} {z}")
    payload = {
        "formula": str(formula),
        "deviance": fit.deviance_vs_saturated,
        "df": fit.df,
        "p": fit.p_value,
        "converged": fit.converged,
        "terms": [
            {"term": name, "coeff": fit.coefficients[name], "se": fit.se[name],
             "z": fit.z_obs[name]}
            for name in fit.coefficients
        ],
    }
    if args.or_pair:
        response, factor = _parse_pair(args.or_pair)
        given = _parse_names(args.or_given) if args.or_given else tuple(
            v for v in fit.regressors if v != factor)
        ors = logit.fitted_odds_ratios(fit, (response, factor), given)
        payload["fitted_odds_ratios"] = {
            _stratum_label(given, lv): val for lv, val in sorted(ors.items())}
        lines.append(f"  fitted odds-ratios ({response},{factor}):")
        for label, val in payload["fitted_odds_ratios"].items():
            lines.append(f"    {label:<20} {_fmt(val)}")
    _emit(args, payload, lines)
    return 0


def cmd_smooth(args) -> int:
    t = _read_table(args)
    if args.model:
        model = smoothing.CaseControlModel.from_json(
            Path(args.model).read_text(encoding="utf-8"), t, indicator=args.response)
    elif args.case and args.control:
        model = smoothing.CaseControlModel.from_generators(
            t, _parse_generators(args.case), _parse_generators(args.control),
            indicator=args.response)
    else:
        raise UsageError("need --model or both --case and --control")
    est = smoothing.smooth(t, model, indicator=args.response,
                           tol=args.tol, max_iter=args.max_iter)
    _warn_unconverged("case model", est.case_fit)
    _warn_unconverged("control model", est.control_fit)
    payload = {
        "indicator": args.response,
        "case": {"deviance": est.case_fit.deviance, "df": est.case_fit.df,
                 "p": est.case_fit.p_value},
        "control": {"deviance": est.control_fit.deviance, "df": est.control_fit.df,
                    "p": est.control_fit.p_value},
        "fitted": _cell_map(est.fitted_joint),
    }
    lines = [
        f"case model    deviance {est.case_fit.deviance:.4f} on {est.case_fit.df} df"
        f" (p = {est.case_fit.p_value:.4f})",
        f"control model deviance {est.control_fit.deviance:.4f} on {est.control_fit.df} df"
        f" (p = {est.control_fit.p_value:.4f})",
    ]
    if args.or_factor:
        given = _parse_names(args.or_given) if args.or_given else tuple(
            v for v in est.regressors if v != args.or_factor)
        ors = est.odds_ratios(args.or_factor, given)
        ses = est.odds_ratio_ses(args.or_factor, given)
        payload["smoothed_odds_ratios"] = {
            _stratum_label(given, lv): {"or": val, "log_or_se": ses[lv]}
            for lv, val in sorted(ors.items())
        }
        lines.append(f"smoothed odds-ratios ({args.response},{args.or_factor}):")
        for label, entry in payload["smoothed_odds_ratios"].items():
            lines.append(f"  {label:<24} {_fmt(entry['or'])}"
                         f"  (se of log: {_fmt(entry['log_or_se'], 3)})")
    if args.fitted:
        lines.append("fitted joint cells:")
        for key, c in payload["fitted"].items():
            lines.append(f"  {key}  {c:.2f}")
    _emit(args, payload, lines)
    return 0


def cmd_select(args) -> int:
    t = _read_table(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = loglinear.forward_select(t, alpha=args.alpha, tol=args.tol,
                                     max_iter=args.max_iter)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    cliques = graphs.cliques(g)
    spec = loglinear.LoglinearSpec(t.schema, tuple(cliques))
    fit = loglinear.fit_ipf(t, spec, tol=args.tol, max_iter=args.max_iter)
    _warn_unconverged("selected model", fit)
    edges = sorted(f"{a}-{b}" for a, b, _ in g.edges)
    payload = {
        "alpha": args.alpha,
        "edges": edges,
        "cliques": [list(c) for c in cliques],
        "deviance": fit.deviance,
        "df": fit.df,
        "p": fit.p_value,
    }
    lines = [
        "selected edges: " + (", ".join(edges) or "(none)"),
        "cliques: " + " ".join("{" + ",".join(c) + "}" for c in cliques),
        f"fit: deviance {fit.deviance:.4f} on {fit.df} df (p = {fit.p_value:.4f})",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_graph_check(args) -> int:
    if args.graph is not None:
        g = graphs.MixedGraph.from_json(Path(args.graph).read_text(encoding="utf-8"))
    else:
        g = bundled.load_graph(args.bundled_graph)
    payload: dict = {"nodes": list(g.nodes)}
    lines = [f"graph on {{{', '.join(g.nodes)}}} with {len(g.edges)} edges"]
    collisions = graphs.find_collision_vs(g)
    payload["collision_vs"] = [list(c) for c in collisions]
    payload["markov_equivalent_to_concentration"] = not collisions
    lines.append("collision Vs: " + (", ".join("-".join(c) for c in collisions) or "(none)"))
    lines.append(f"Markov equivalent to a concentration graph: {not collisions}")
    full = g if g.is_full_line() else graphs.concentration_skeleton(g)
    if args.cliques:
        cl = graphs.cliques(full)
        payload["cliques"] = [list(c) for c in cl]
        lines.append("cliques: " + " ".join("{" + ",".join(c) + "}" for c in cl))
    if args.separates:
        parts = [p.strip() for p in args.separates.split("|")]
        if len(parts) not in (2, 3):
            raise UsageError("--separates wants 'a | b' or 'a | b | c'")
        stmt = graphs.IndependenceStatement(
            frozenset(_parse_names(parts[0])), frozenset(_parse_names(parts[1])),
            frozenset(_parse_names(parts[2])) if len(parts) == 3 and parts[2] else frozenset())
        result = graphs.separates(full, stmt)
        payload["separates"] = {"statement": str(stmt), "holds": result}
        lines.append(f"{stmt}: {result}")
    if args.implied is not None:
        stmts = graphs.implied_independencies(full, args.implied)
        payload["implied"] = [str(s) for s in stmts]
        lines.append(f"implied independencies (conditioning sets up to {args.implied}):")
        lines.extend(f"  {s}" for s in stmts)
    if args.drop:
        marg = graphs.marginalize_graph(full, set(_parse_names(args.drop)))
        edges = sorted(f"{a}-{b}" for a, b, _ in marg.edges)
        payload["marginalized"] = {"drop": sorted(_parse_names(args.drop)), "edges": edges}
        lines.append(f"after marginalizing over {args.drop}: "
                     + (", ".join(edges) or "(no edges)"))
    _emit(args, payload, lines)
    return 0


def cmd_collapse(args) -> int:
    t = _read_table(args)
    a, b = _parse_pair(args.pair)
    check = (smoothing.check_rr_collapsibility if args.measure == "rr"
             else smoothing.check_or_collapsibility)
    rep = check(t, a, b, args.over, alpha=args.alpha)
    name = "relative risk" if args.measure == "rr" else "odds-ratio"
    lines = [
        f"collapsibility of {name} ({a},{b}) over {args.over}",
        f"  conditional at {args.over}=0: {_fmt(rep.conditional[0])}",
        f"  conditional at {args.over}=1: {_fmt(rep.conditional[1])}",
        f"  marginal: {_fmt(rep.marginal)}",
        f"  sufficient condition holding: {rep.which_condition}",
    ]
    for label, test in rep.condition_tests.items():
        if isinstance(test, dict):
            lines.append(f"    {label}: deviance {test['deviance']:.4f}"
                         f" on {test['df']} df (p = {test['p']:.4f})")
        elif test is not None:
            lines.append(f"    {label}: {test:.3e}")
    _emit(args, rep.to_dict(), lines)
    return 0


def cmd_reproduce(args) -> int:
    results = reproduce.run_checks(_read_table(args))
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({"checks": [r.to_dict() for r in results],
                          "passed": len(results) - len(failures),
                          "failed": len(failures)},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            tol = f" (tol {r.tol})" if r.tol is not None else ""
            print(f"{status} {r.name}: expected {r.expected}, got {r.actual}{tol}")
        print(f"{len(results) - len(failures)} of {len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casecontrol",
        description="Contingency-table analysis for case-control data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True, fit=None):
        # ``fit``: the module whose fitting defaults --tol and --max-iter take
        p.add_argument("--format", choices=("text", "json"), default="text")
        if data:
            p.add_argument("--data", help="cell-CSV path (default: bundled dataset)")
            p.add_argument("--slice", help="condition on an address first, e.g. L=1")
        if fit:
            p.add_argument("--tol", type=_TOL, default=fit.DEFAULT_TOL,
                           help=f"finite and > 0 (default {fit.DEFAULT_TOL:g})")
            p.add_argument("--max-iter", type=_MAX_ITER, default=fit.DEFAULT_MAX_ITER,
                           help=f"at least 1 (default {fit.DEFAULT_MAX_ITER})")

    p = sub.add_parser("ingest", help="parse and canonicalize a cell-CSV file")
    common(p, data=False)
    p.add_argument("input", help="path to a cell-CSV file, or - for stdin")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("marginal", help="marginalize (optionally after conditioning)")
    common(p)
    p.add_argument("--keep", required=True, help="variables to keep, e.g. L,V")
    p.add_argument("--given", help="condition on an address, e.g. C=0,R=0")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("measure", help="pairwise dependence measures")
    common(p)
    p.add_argument("--pair", required=True, help="response,factor, e.g. L,V")
    p.add_argument("--given", help="stratum address (or conditioning variables with --split)")
    p.add_argument("--split", metavar="VAR",
                   help="compare the association per slice of VAR and mixed over it")
    p.add_argument("--mixture-over", metavar="VAR",
                   help="also report relative-risk mixture weights over VAR")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("fit-loglinear", help="fit a hierarchical log-linear model by IPF")
    common(p, fit=loglinear)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--generators", help="semicolon-separated variable lists, e.g. 'V,C;R'")
    model.add_argument("--model", help="model-spec JSON file with a 'generators' entry")
    model.add_argument("--closed-form", action="store_true",
                       help="closed-form case-control estimator (four-variable table)")
    p.add_argument("--response", default="L")
    p.add_argument("--fitted", action="store_true", help="include fitted cells")
    p.set_defaults(func=cmd_fit_loglinear)

    p = sub.add_parser("fit-logit", help="fit a logit model given a formula")
    common(p, fit=logit)
    p.add_argument("--formula", required=True, help="e.g. 'L : V*C*R + A*E'")
    p.add_argument("--or-pair", help="report fitted odds-ratios for response,factor")
    p.add_argument("--or-given", help="conditioning variables for --or-pair")
    p.set_defaults(func=cmd_fit_logit)

    p = sub.add_parser("smooth", help="separate case/control fits, recombined")
    common(p, fit=loglinear)
    p.add_argument("--model", help="JSON file with case/control generator lists")
    p.add_argument("--case", help="case generators, e.g. 'V,C,R;C,A;E'")
    p.add_argument("--control", help="control generators, e.g. 'V,C;A,E;E,R'")
    p.add_argument("--response", default="L", help="case/control indicator variable")
    p.add_argument("--or-factor", help="factor for smoothed odds-ratios")
    p.add_argument("--or-given", help="conditioning variables for the odds-ratios")
    p.add_argument("--fitted", action="store_true", help="include fitted joint cells")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("select", help="forward selection of a concentration graph")
    common(p, fit=loglinear)
    p.add_argument("--alpha", type=_ALPHA, default=0.2,
                   help="entry level of the edge tests, in (0, 1)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("graph-check", help="collision, separation and clique queries")
    common(p, data=False)
    graph = p.add_mutually_exclusive_group(required=True)
    graph.add_argument("--graph", help="graph JSON file")
    graph.add_argument("--bundled-graph", help="name of a bundled graph fixture")
    p.add_argument("--cliques", action="store_true")
    p.add_argument("--separates", help="statement 'a | b | c', names comma-separated")
    p.add_argument("--implied", type=int, metavar="MAX_C",
                   help="list implied independencies with |c| up to MAX_C")
    p.add_argument("--drop", help="marginalize over these nodes")
    p.set_defaults(func=cmd_graph_check)

    p = sub.add_parser("collapse", help="collapsibility check for a pair over a variable")
    common(p)
    p.add_argument("--pair", required=True, help="a,b")
    p.add_argument("--over", required=True, help="variable to collapse over")
    p.add_argument("--measure", choices=("or", "rr"), default="or")
    p.add_argument("--alpha", type=_ALPHA, default=None,
                   help="treat the conditions as LR tests at this level, in (0, 1)")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("reproduce", help="re-derive all pinned analysis numbers")
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"usage error: {exc}\n")
    except (tables.DataError, graphs.GraphError, logit.FormulaError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
