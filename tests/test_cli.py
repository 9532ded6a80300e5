import json

import pytest

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
