import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casecontrol
from casecontrol.cli import COMMAND_OPERATIONS, build_parser, main
from casecontrol.data import bundled_dataset_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- subcommands -----------------------------------------------------------------

def test_measure_pair(capsys):
    code, out, _ = run(capsys, "measure", "--pair", "L,V")
    assert code == 0
    assert "odds-ratio      9.8" in out


def test_measure_json(capsys):
    code, out, _ = run(capsys, "measure", "--pair", "L,V", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["odds_ratio"] == pytest.approx(9.8, abs=0.05)
    assert payload["dependence_sign"] == "positive"


def test_measure_stratified_undefined_renders_dash(capsys):
    code, out, _ = run(capsys, "measure", "--pair", "L,V", "--given", "C=0,R=0,E=0")
    assert code == 0
    assert "odds-ratio      0.0" in out


def test_measure_split(capsys):
    code, out, _ = run(capsys, "measure", "--pair", "V,A", "--given", "C,R", "--split", "L")
    assert code == 0
    assert "mixed" in out


def test_marginal_with_condition(capsys):
    code, out, _ = run(capsys, "marginal", "--keep", "L,V", "--given", "C=0,R=0")
    assert code == 0
    assert out.splitlines()[0] == "L,V,count"
    assert "0,0,73" in out


def test_ingest_round_trip(tmp_path, capsys):
    path = tmp_path / "cells.csv"
    path.write_text("B,A,count\n1,0,2.5\n0,1,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "ingest", str(path))
    assert code == 0
    assert out.splitlines()[0] == "B,A,count"
    assert len(out.splitlines()) == 5


def test_fit_loglinear(capsys):
    code, out, _ = run(capsys, "fit-loglinear", "--slice", "L=1",
                       "--generators", "V,C,R;C,A;E")
    assert code == 0
    assert "deviance 16.2" in out
    assert "on 21 df" in out


def test_fit_loglinear_closed_form(capsys):
    code, out, _ = run(capsys, "fit-loglinear", "--closed-form",
                       "--data", "src/casecontrol/data/zatonski_selected.csv",
                       "--slice", "A=0")
    # slicing A=0 leaves five variables: closed form needs exactly four
    assert code == 1


def test_fit_logit_table(capsys):
    code, out, _ = run(capsys, "fit-logit", "--formula", "L : V*C*R + A*E")
    assert code == 0
    assert "deviance 21.3" in out
    assert "VCR" in out and "---" in out


def test_fit_logit_or_table(capsys):
    code, out, _ = run(capsys, "fit-logit", "--formula", "L : V*C*R + A*E",
                       "--or-pair", "L,V", "--or-given", "C,R", "--format", "json")
    payload = json.loads(out)
    ors = payload["fitted_odds_ratios"]
    assert ors["C=1,R=0"] == pytest.approx(30.1, abs=0.1)


def test_smooth_command(capsys):
    code, out, _ = run(capsys, "smooth", "--case", "V,C,R;C,A;E",
                       "--control", "V,C;A,E;E,R", "--or-factor", "V",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    key = "C=0,R=0,A=0,E=0"
    assert payload["smoothed_odds_ratios"][key]["or"] == pytest.approx(4.7, abs=0.05)


def test_smooth_fitted_zero_renders_dash(study, tmp_path, capsys):
    # zero case cell under a saturated case spec: that stratum's SE is
    # undefined, shown as '-' (null in JSON), not a traceback
    t = study.marginalize({"L", "V", "C", "R"})
    counts = t.counts.copy()
    counts[1, 1, 1, 1] = 0.0
    path = tmp_path / "zero.csv"
    path.write_text(casecontrol.emit(casecontrol.ContingencyTable(t.schema, counts)),
                    encoding="utf-8")
    argv = ("smooth", "--data", str(path), "--case", "V,C,R", "--control", "V,C;R",
            "--or-factor", "V")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in err
    lines = {line.split()[0]: line for line in out.splitlines()[3:]}
    assert lines["C=1,R=1"].endswith("(se of log: -)")
    assert "(se of log: -)" not in lines["C=0,R=0"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    strata = json.loads(out)["smoothed_odds_ratios"]
    assert strata["C=1,R=1"]["log_or_se"] is None
    assert strata["C=0,R=1"]["log_or_se"] > 0


def test_select_command(capsys):
    code, out, _ = run(capsys, "select", "--slice", "L=1", "--alpha", "0.2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == ["A-C", "C-R", "C-V", "R-V"]


def test_graph_check_bundled(capsys):
    code, out, _ = run(capsys, "graph-check", "--bundled-graph", "vcrae_controls",
                       "--cliques", "--separates", "V | A,E | C,R", "--drop", "E,A")
    assert code == 0
    assert "Markov equivalent to a concentration graph: True" in out
    assert "{A,E}" in out
    assert "True" in out
    assert "C-V" in out


def test_graph_check_implied(capsys):
    code, out, _ = run(capsys, "graph-check", "--bundled-graph", "vcr_controls",
                       "--implied", "1", "--format", "json")
    payload = json.loads(out)
    assert "R _||_ V" in payload["implied"]
    assert "R _||_ V | C" in payload["implied"]


def test_collapse_command(capsys):
    code, out, _ = run(capsys, "collapse", "--slice", "L=0", "--pair", "E,A",
                       "--over", "R", "--alpha", "0.05")
    assert code == 0
    assert "7.2" in out and "7.5" in out and "7.1" in out
    assert "b_indep_over_given_a" in out


def test_collapse_rr(capsys):
    code, out, _ = run(capsys, "collapse", "--slice", "L=0", "--pair", "E,A",
                       "--over", "R", "--measure", "rr", "--format", "json")
    payload = json.loads(out)
    assert payload["measure"] == "relative_risk"
    assert "mixture_identity_residual" in payload["condition_tests"]


# -- reproduce ------------------------------------------------------------------

def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "FAIL" not in out
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_reproduce_detects_corruption(tmp_path, capsys):
    lines = bundled_dataset_text().splitlines()
    assert lines[1] == "0,0,0,0,0,0,21"
    lines[1] = "0,0,0,0,0,0,35"
    path = tmp_path / "corrupted.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "reproduce", "--data", str(path))
    assert code == 1
    assert "FAIL" in out


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"])


# -- contract: exit codes, determinism, coverage -----------------------------------

def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure"])  # missing required --pair
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["marginal", "--keep", "L,V", "--given", "C=2"])
    assert exc.value.code == 2


def test_data_error_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", str(tmp_path / "missing.csv"))
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("A,count\n0,1\n0,2\n", encoding="utf-8")
    code, _, err = run(capsys, "ingest", str(bad))
    assert code == 1
    assert "duplicate" in err


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "fit-logit", "--formula", "L : V*C*R + A*E",
                      "--format", "json")
    _, second, _ = run(capsys, "fit-logit", "--formula", "L : V*C*R + A*E",
                       "--format", "json")
    assert first == second
    _, t1, _ = run(capsys, "smooth", "--case", "V,C,R;C,A;E",
                   "--control", "V,C;A,E;E,R", "--fitted")
    _, t2, _ = run(capsys, "smooth", "--case", "V,C,R;C,A;E",
                   "--control", "V,C;A,E;E,R", "--fitted")
    assert t1 == t2


REQUIRED_OPERATIONS = [
    "tables.ingest", "tables.emit", "tables.ContingencyTable.marginalize",
    "tables.ContingencyTable.condition", "tables.ContingencyTable.cell",
    "measures.odds_ratio", "measures.log_or_se", "measures.relative_risk",
    "measures.dependence_sign", "measures.pairwise_report", "measures.rr_mixture_weights",
    "graphs.find_collision_vs", "graphs.is_markov_equivalent_to_concentration",
    "graphs.separates", "graphs.implied_independencies", "graphs.marginalize_graph",
    "graphs.cliques",
    "loglinear.fit_ipf", "loglinear.fit_closed_form_casecontrol",
    "loglinear.deviance_decomposition", "loglinear.forward_select",
    "logit.parse_formula", "logit.fit_logit", "logit.interaction_from_odds_ratios",
    "logit.fitted_odds_ratios",
    "smoothing.smooth", "smoothing.check_or_collapsibility",
    "smoothing.check_rr_collapsibility", "smoothing.mixing_artifact_demo",
    "reproduce.run_checks",
]


def test_every_operation_is_reachable_from_a_command():
    listed = {op for ops in COMMAND_OPERATIONS.values() for op in ops}
    missing = [op for op in REQUIRED_OPERATIONS if op not in listed]
    assert not missing


def test_registry_entries_resolve_to_callables():
    for ops in COMMAND_OPERATIONS.values():
        for dotted in ops:
            obj = casecontrol
            for part in dotted.split("."):
                obj = getattr(obj, part)
            assert callable(obj), dotted


def test_registry_covers_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == set(COMMAND_OPERATIONS)


# -- fail closed: one-name pairs, model files without generators --------------------

@pytest.mark.parametrize("argv", [
    ["measure", "--pair", "L"],
    ["collapse", "--pair", "L", "--over", "A"],
    ["fit-logit", "--formula", "L : V", "--or-pair", "L"],
    ["measure", "--pair", "L,V,C"],
])
def test_pair_needs_two_names(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "two comma-separated names" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [
    {}, {"generators": "V,C"}, {"generators": [["V", "C"], "R"]}, [["V", "C"]],
])
def test_model_file_without_generator_list(tmp_path, capsys, payload):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "fit-loglinear", "--model", str(path))
    assert code == 1
    assert err.startswith("error: model JSON needs a 'generators' list")
    assert "Traceback" not in err


def test_select_max_iter_reaches_candidate_fits(capsys, monkeypatch):
    from casecontrol import loglinear

    fit_ipf = loglinear.fit_ipf
    budgets = []

    def recording(*args, **kwargs):
        budgets.append(kwargs.get("max_iter"))
        return fit_ipf(*args, **kwargs)

    monkeypatch.setattr(loglinear, "fit_ipf", recording)
    code, _, _ = run(capsys, "select", "--max-iter", "1")
    assert code == 0
    assert len(budgets) > 1
    assert set(budgets) == {1}


# -- a fit that did not converge is never silent ------------------------------------

def unconverged(label, after):
    return f"warning: {label} did not converge after {after}\n"


def test_select_warns_when_the_reported_fit_stops_early(capsys):
    code, out, err = run(capsys, "select", "--max-iter", "1")
    assert code == 0
    assert "fit: deviance 27.8691 on 38 df" in out
    assert err == ("warning: forward selection: 14 of 14 piece fits did not converge"
                   " after 1 sweeps\n" + unconverged("selected model", "1 sweeps"))


def test_smooth_warns_for_each_slice_fit_that_stops_early(capsys):
    code, out, err = run(capsys, "smooth", "--case", "V,C;C,R;V,R;A;E",
                         "--control", "V,C;A,E;E,R", "--max-iter", "1", "--or-factor", "V")
    assert code == 0
    assert out.startswith("case model    deviance")
    assert err == unconverged("case model", "1 sweeps")


@pytest.mark.parametrize("argv, warning", [
    (["fit-loglinear", "--generators", "V,C;C,R;V,R", "--max-iter", "2"],
     unconverged("log-linear fit", "2 sweeps")),
    (["fit-logit", "--formula", "L : V*C*R + A*E", "--max-iter", "1"],
     unconverged("logit fit", "1 iterations")),
])
def test_fits_that_stop_early_warn_on_stderr(capsys, argv, warning):
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == warning


@pytest.mark.parametrize("argv", [
    ["select"],
    ["smooth", "--case", "V,C;C,R;V,R;A;E", "--control", "V,C;A,E;E,R", "--or-factor", "V"],
    ["fit-loglinear", "--generators", "V,C;C,R;V,R"],
    ["fit-logit", "--formula", "L : V*C*R + A*E"],
])
def test_converged_fits_write_nothing_to_stderr(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == ""


# -- iteration flags only where a fit runs; bounded numbers ---------------------------

FITTING = {"fit-loglinear", "fit-logit", "smooth", "select"}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if hasattr(a, "choices") and a.choices).choices


def test_iteration_flags_only_where_a_fit_runs():
    for name, p in _subparsers().items():
        flags = {opt for action in p._actions for opt in action.option_strings}
        expected = {"--tol", "--max-iter"} if name in FITTING else set()
        assert flags & {"--tol", "--max-iter"} == expected, name


def test_iteration_defaults_are_the_library_defaults():
    from casecontrol import logit, loglinear

    parser = build_parser()
    for argv, tol, max_iter in [
        (["fit-loglinear", "--generators", "V"], loglinear.DEFAULT_TOL, loglinear.DEFAULT_MAX_ITER),
        (["smooth"], loglinear.DEFAULT_TOL, loglinear.DEFAULT_MAX_ITER),
        (["select"], loglinear.DEFAULT_TOL, loglinear.DEFAULT_MAX_ITER),
        (["fit-logit", "--formula", "L : V"], logit.DEFAULT_TOL, logit.DEFAULT_MAX_ITER),
    ]:
        args = parser.parse_args(argv)
        assert (args.tol, args.max_iter) == (tol, max_iter)


@pytest.mark.parametrize("argv", [
    ["ingest", "cells.csv"], ["marginal", "--keep", "L,V"], ["measure", "--pair", "L,V"],
    ["graph-check", "--bundled-graph", "vcr_controls"],
    ["collapse", "--pair", "E,A", "--over", "R"], ["reproduce"],
])
@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iter", "5"]])
def test_iteration_flags_rejected_where_no_fit_runs(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *(["fit-loglinear", "--generators", "V,C;R", "--tol", v]
      for v in ("nan", "inf", "0", "-1", "x")),
    *(["fit-logit", "--formula", "L : V", "--max-iter", v] for v in ("0", "-1", "1.5")),
    ["smooth", "--case", "V,C,R;C,A;E", "--control", "V,C;A,E;E,R", "--tol", "-inf"],
    ["select", "--max-iter", "0"],
    ["collapse", "--pair", "E,A", "--over", "R", "--alpha", "nan"],
    ["collapse", "--pair", "E,A", "--over", "R", "--alpha", "1"],
    ["select", "--alpha", "nan"],
    ["select", "--alpha", "0"],
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "expected" in err and "Traceback" not in err


def test_in_range_iteration_flags_reach_the_fit(capsys):
    code, out, _ = run(capsys, "fit-logit", "--formula", "L : V*C", "--max-iter", "1")
    assert code == 0
    assert "converged False after 1 iterations" in out
    code, out, _ = run(capsys, "fit-loglinear", "--generators", "V,C;C,R;V,R",
                       "--tol", "1e300", "--max-iter", "7")
    assert code == 0
    assert "converged True after 1 sweeps" in out


# -- one reader per input: model and graph files, reproduce --data/--slice ----------

SMOOTH_FLAGS = ("--case", "V,C,R;C,A;E", "--control", "V,C;A,E;E,R", "--or-factor", "V")


def test_smooth_model_file_matches_flags(study, tmp_path, capsys):
    model = casecontrol.CaseControlModel.from_generators(
        study, [("V", "C", "R"), ("C", "A"), ("E",)], [("V", "C"), ("A", "E"), ("E", "R")])
    path = tmp_path / "model.json"
    path.write_text(model.to_json(), encoding="utf-8")
    code, from_file, _ = run(capsys, "smooth", "--model", str(path), "--or-factor", "V")
    assert code == 0
    assert from_file == run(capsys, "smooth", *SMOOTH_FLAGS)[1]


@pytest.mark.parametrize("generators", ["VCR", [["V", ["C"]]]])
def test_smooth_model_file_fails_closed(tmp_path, capsys, generators):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"case": {"generators": [["V", "C", "R"]]},
                                "control": {"generators": generators}}), encoding="utf-8")
    code, out, err = run(capsys, "smooth", "--model", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: model JSON needs case/control 'generators' lists")


@pytest.mark.parametrize("payload", [
    {"nodes": "VCR", "edges": []},
    {"nodes": ["V", "C"], "edges": [], "blocks": ["VC"]},
    5,
    {"nodes": ["a", ["b"]], "edges": []},
])
def test_graph_file_fails_closed(tmp_path, capsys, payload):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "graph-check", "--graph", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: graph JSON")


@pytest.mark.parametrize("argv", [["ingest"], ["measure", "--pair", "L,V", "--data"],
                                  ["graph-check", "--graph"], ["smooth", "--model"],
                                  ["fit-loglinear", "--model"]])
def test_undecodable_file_is_a_data_error(tmp_path, capsys, argv):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("error: 'utf-8' codec can't decode")


def test_reproduce_honours_slice_and_data(capsys, tmp_path):
    code, out, err = run(capsys, "reproduce", "--slice", "L=1")
    assert (code, out, err) == (1, "", "error: unknown variable 'L'\n")
    path = tmp_path / "study.csv"
    path.write_text(bundled_dataset_text(), encoding="utf-8")
    code, out, _ = run(capsys, "reproduce", "--data", str(path))
    assert code == 0
    assert out == run(capsys, "reproduce")[1]



@pytest.mark.parametrize("argv, message", [
    (["fit-loglinear", "--closed-form", "--generators", "V"], "not allowed with argument"),
    (["fit-loglinear", "--generators", "V", "--model", "m.json"], "not allowed with argument"),
    (["fit-loglinear", "--model", "m.json", "--closed-form"], "not allowed with argument"),
    (["fit-loglinear"], "one of the arguments --generators --model --closed-form is required"),
    (["graph-check", "--graph", "g.json", "--bundled-graph", "vcr_controls"],
     "not allowed with argument"),
    (["graph-check"], "one of the arguments --graph --bundled-graph is required"),
])
def test_conflicting_or_missing_inputs_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err


SEPARATED = "L,V,C,count\n0,0,1,2\n1,0,0,1\n1,1,0,1\n1,1,1,1\n"


def test_fitted_odds_ratio_at_a_probability_of_1(capsys, tmp_path):
    # the V=1 cells are all cases: a fitted probability of exactly 1 makes
    # the denominator (1 - p1) p0 zero, an undefined ratio, not a traceback;
    # the V coefficient diverges, so the fit also says that it did not converge
    path = tmp_path / "separated.csv"
    path.write_text(SEPARATED, encoding="utf-8")
    argv = ["fit-logit", "--data", str(path), "--formula", "L : V + C", "--or-pair", "L,V"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, unconverged("logit fit", "25 iterations"))
    assert "    C=0                  -\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["fitted_odds_ratios"]["C=0"] is None


# -- property: every argv ends in exit 0, 1 or 2, never in a traceback -----------------

def pool(valid, malformed):
    """Argument values, valid ones three times as likely as malformed ones."""
    return st.sampled_from(valid * 3 + malformed)


NAMES = pool(["L,V", "E,A", "C,R", "V", "A"], ["L", "Z", "L,Z", "L,V,C", ",", ""])
ADDRESSES = pool(["C=1,R=0", "L=1", "A=0"], ["L=2", "Z=0", "L", "L=0,V=0,C=0,R=0,A=0,E=0"])
GENERATORS = pool(["V,C;R", "V,C,R;C,A;E", "V,C;A,E;E,R"], ["Z", ";", "L,V;Z", ""])
FORMULAS = pool(["L : V", "L : V*C*R + A*E", "L : (V+C)^2"], ["L : Z", "L :", "(", "V : L^x"])
STATEMENTS = pool(["V | A,E | C,R", "V | C"],
                  ["V | V", "a | b | c | d", "V | | C", "|", "V | Z"])
TOLS = pool(["1e-3", "1e-8"], ["nan", "inf", "-inf", "0", "-1", "x", ""])
COUNTS = pool(["1", "3", "50"], ["0", "-1", "1.5", "nan", "x"])
ALPHAS = pool(["0.05", "0.2"], ["nan", "0", "1", "-1", "inf", "x"])
LEVELS = pool(["0", "1", "2"], ["-1", "1.5", "x"])
FILES = {
    "model_ok": {"case": {"generators": [["V", "C", "R"], ["C", "A"], ["E"]]},
                 "control": {"generators": [["V", "C"], ["A", "E"], ["E", "R"]]},
                 "generators": [["V", "C"], ["R"]]},
    "model_string": {"case": {"generators": "VCR"}, "control": {"generators": "VC"},
                     "generators": "VC"},
    "model_nested": {"case": {"generators": [["V", ["C"]]]},
                     "control": {"generators": [["V", ["C"]]]},
                     "generators": [["V", ["C"]]]},
    "model_unknown": {"case": {"generators": [["Z"]]}, "control": {"generators": [[]]},
                      "generators": [["Z"]]},
    "graph_ok": {"nodes": ["V", "C", "R"], "edges": [{"a": "V", "b": "C"}]},
    "graph_nodes_string": {"nodes": "VCR", "edges": []},
    "graph_blocks_string": {"nodes": ["V", "C"], "edges": [], "blocks": ["VC"]},
    "graph_nested": {"nodes": ["a", ["b"]], "edges": []},
    "graph_arrow": {"nodes": ["V", "C"], "edges": [{"a": "V", "b": "C", "kind": "arrow"}]},
    "number": 5,
}
TEXTS = {"not_json": "{nodes", "data_ok": bundled_dataset_text(),
         "data_duplicate": "A,B,count\n0,0,1\n0,0,2\n", "data_nan": "A,count\n0,1\n1,nan\n",
         "data_separated": SEPARATED}


@pytest.fixture(scope="module")
def argv_cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    path = {name: str(root / name) for name in [*FILES, *TEXTS, "missing"]}
    for name, payload in FILES.items():
        Path(path[name]).write_text(json.dumps(payload), encoding="utf-8")
    for name, text in TEXTS.items():
        Path(path[name]).write_text(text, encoding="utf-8")
    path["binary"] = str(root / "binary")
    Path(path["binary"]).write_bytes(b"\xff\xfe\x00")
    bad = [path[n] for n in ("missing", "not_json", "number", "binary")]
    data = pool([path["data_ok"], path["data_separated"]],
                [path["data_duplicate"], path["data_nan"], *bad])
    # every file is a reader's input, so malformed ones are as likely as valid ones
    models = st.sampled_from([path[n] for n in FILES if n.startswith("model_")] + bad)
    graphs = st.sampled_from([path[n] for n in FILES if n.startswith("graph_")] + bad)
    switch = st.just(None)
    table = {"--format": pool(["text", "json"], ["xml"]), "--data": data,
             "--slice": ADDRESSES}
    fit = {"--tol": TOLS, "--max-iter": COUNTS}
    bundled = pool(["vcr_controls", "study_ordering"], ["nope"])
    grammar = {  # subcommand: (alternative sets of required flags, optional flags)
        "ingest": ([{"input": data}], {"--format": table["--format"]}),
        "marginal": ([{"--keep": NAMES}], {**table, "--given": ADDRESSES}),
        "measure": ([{"--pair": NAMES}],
                    {**table, "--given": st.one_of(ADDRESSES, NAMES), "--split": NAMES,
                     "--mixture-over": NAMES}),
        "fit-loglinear": ([{"--generators": GENERATORS}, {"--model": models},
                           {"--closed-form": switch}],
                          {**table, **fit, "--response": NAMES, "--fitted": switch}),
        "fit-logit": ([{"--formula": FORMULAS}],
                      {**table, **fit, "--or-pair": NAMES, "--or-given": NAMES}),
        "smooth": ([{"--model": models}, {"--case": GENERATORS, "--control": GENERATORS}],
                   {**table, **fit, "--response": NAMES, "--or-factor": NAMES,
                    "--or-given": NAMES, "--fitted": switch}),
        "select": ([{}], {**table, **fit, "--alpha": ALPHAS}),
        "graph-check": ([{"--graph": graphs}, {"--bundled-graph": bundled}],
                        {"--format": table["--format"], "--cliques": switch,
                         "--separates": STATEMENTS, "--implied": LEVELS, "--drop": NAMES}),
        "collapse": ([{"--pair": NAMES, "--over": NAMES}],
                     {**table, "--measure": pool(["or", "rr"], ["xx"]), "--alpha": ALPHAS}),
        "reproduce": ([{}], table),
    }
    # flags that the subcommand lacks, now and then
    stray = {"--tol": TOLS, "--max-iter": COUNTS, "--bogus": switch}

    @st.composite
    def build(draw):
        command = draw(st.sampled_from(sorted(grammar)))
        required, optional = grammar[command]
        flags = dict(draw(st.sampled_from(required))) if draw(st.integers(0, 9)) else {}
        for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=3)):
            flags[flag] = optional[flag]
        if not draw(st.integers(0, 9)):
            flag = draw(st.sampled_from(sorted(stray)))
            flags[flag] = stray[flag]
        argv = [command]
        for flag, values in flags.items():
            value = draw(values)
            if flag == "input":
                argv.append(value)
            else:
                argv += [flag] if value is None else [flag, value]
        return argv

    return build()


def test_every_argv_exits_cleanly(argv_cases):
    @settings(max_examples=300, deadline=None)
    @given(argv_cases)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()

    check()
