"""Span arithmetic, metric helpers and the tracer's bindings."""

import math

import pytest

import run
import tracing


def test_self_and_busy_time_on_a_hand_built_tree():
    spans = [
        ("pass", 0.0, 10.0, -1),
        ("loglinear.forward_select", 1.0, 9.0, 0),
        ("loglinear.fit_ipf", 2.0, 4.0, 1),
        ("special.chi2_sf", 4.5, 5.0, 1),
        ("loglinear.fit_ipf", 6.0, 8.0, 1),
        ("tables.marginalize", 6.5, 7.0, 4),
    ]
    m = tracing.pass_metrics(spans)
    assert m["loglinear.forward_select.self_s"] == pytest.approx(8.0 - 2.0 - 0.5 - 2.0)
    assert m["loglinear.fit_ipf.calls"] == 2
    assert m["loglinear.fit_ipf.busy_s"] == pytest.approx(4.0)
    assert m["loglinear.fit_ipf.self_s"] == pytest.approx(3.5)
    assert m["loglinear.busy_s"] == pytest.approx(8.0)
    assert m["tables.busy_s"] == pytest.approx(0.5)
    assert "pass.calls" not in m


def test_recursion_is_not_counted_twice_and_children_are_clipped():
    spans = [
        ("graphs.cliques", 0.0, 4.0, -1),
        ("graphs.cliques", 1.0, 3.0, 0),
        ("graphs.cliques", 1.5, 2.0, 1),
        # a child reaching past its parent only counts inside it
        ("tables.cell", 2.5, 5.0, 1),
    ]
    m = tracing.pass_metrics(spans)
    assert m["graphs.cliques.busy_s"] == pytest.approx(4.0)
    assert m["graphs.cliques.self_s"] == pytest.approx(2.0 + 1.0 + 0.5)
    assert m["graphs.busy_s"] == pytest.approx(4.0)


def test_counters_and_fits_per_edge():
    m = tracing.pass_metrics([], {"loglinear.forward_select.fits": 30,
                                  "loglinear.forward_select.edges": 4})
    assert m["loglinear.forward_select.fits_per_edge"] == 7.5
    assert tracing.pass_metrics([])["loglinear.forward_select.fits_per_edge"] == 0.0


def test_tail_is_the_sample_with_ten_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_failure_upper_bound():
    assert run.failure_upper_bound(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100), rel=1e-9)
    assert run.failure_upper_bound(3, 3) == 1.0
    b = run.failure_upper_bound(1, 50)
    tail_prob = (1 - b) ** 50 + 50 * b * (1 - b) ** 49
    assert tail_prob == pytest.approx(0.05, rel=1e-6)


def test_install_wraps_every_binding_and_restores():
    import casecontrol
    from casecontrol import loglinear, smoothing

    original = loglinear.fit_ipf
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert smoothing.fit_ipf is loglinear.fit_ipf is casecontrol.fit_ipf
        assert loglinear.fit_ipf is not original
        table = casecontrol.data.bundled_table()
        tracer.run_pass(0, lambda: loglinear.forward_select(table.slice_l("L", 1), 0.2))
    finally:
        restore()
    assert loglinear.fit_ipf is original and smoothing.fit_ipf is original
    m = tracing.pass_metrics(tracer.spans_by_pass()[0], tracer.counters[0])
    fits = m["loglinear.fit_ipf.calls"]
    assert fits == m["loglinear.forward_select.fits"] > 0
    assert fits == (m.get("loglinear.fit_ipf.decomposable.calls", 0)
                    + m.get("loglinear.fit_ipf.cyclic.calls", 0))
    assert m["tables.slice_l.calls"] == 1  # a ContingencyTable method
    assert m["tables.condition.calls"] == 1
    assert m["loglinear.forward_select.self_s"] < m["loglinear.forward_select.busy_s"]
