"""The output checks pass on correct passes and catch altered outputs."""

import copy

import pytest

import casecontrol
import casecontrol.reproduce  # noqa: F401
import workloads


def run_once(name, seed=0):
    files, _ = workloads.generate(name, seed)
    state = workloads.load(name, casecontrol, files)
    return state, workloads.run_pass(name, casecontrol, state)


@pytest.fixture(scope="module")
def smoothed():
    return run_once("smoothed_or_wide")


def test_correct_pass_has_no_problems(smoothed):
    state, result = smoothed
    assert workloads.check("smoothed_or_wide", state, result, None) == []


@pytest.mark.parametrize("key", ["ors", "ses"])
def test_altered_smoothed_output_is_caught(smoothed, key):
    state, result = smoothed
    bad = dict(result)
    bad[key] = copy.copy(result[key])
    first = next(iter(bad[key]))
    bad[key][first] *= 1.0 + 1e-5
    assert workloads.check("smoothed_or_wide", state, bad, None)


def test_reference_mismatch_is_caught(smoothed):
    state, result = smoothed
    reference = workloads.summarize("smoothed_or_wide", state, result)
    assert workloads.check("smoothed_or_wide", state, result, reference) == []
    reference["case_fit"]["deviance"] *= 1.0 + 1e-5
    assert workloads.check("smoothed_or_wide", state, result, reference)


def test_reference_convergence_only_fails_one_way():
    record = {"fit": {"converged": True, "df": 3}}
    assert workloads.compare_reference(record, {"fit": {"converged": False, "df": 3}}) == []
    record["fit"]["converged"] = False
    assert workloads.compare_reference(record, {"fit": {"converged": True, "df": 3}})


def test_wide_logit_checks():
    state, result = run_once("wide_logit", 1)
    assert workloads.check("wide_logit", state, result, None) == []
    coefficients = result["fits"][0].coefficients
    coefficients["X3"] += 1e-4
    problems = workloads.check("wide_logit", state, result, None)
    assert any("score" in p for p in problems)
    assert workloads.check("wide_logit", state, {**result, "emitted": state["text"] + "\n"}, None)
