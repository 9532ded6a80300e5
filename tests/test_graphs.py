import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import (
    IndependenceStatement,
    MixedGraph,
    cliques,
    concentration_skeleton,
    find_collision_vs,
    full_line_graph,
    implied_independencies,
    is_markov_equivalent_to_concentration,
    marginalize_graph,
    separates,
)
from casecontrol.data import graph_names, load_graph
from casecontrol.graphs import ARROW, DASHED, FULL, GraphError


def stmt(a, b, c=()):
    return IndependenceStatement(frozenset(a), frozenset(b), frozenset(c))


@pytest.fixture(scope="module")
def controls_vcr():
    return load_graph("vcr_controls")


@pytest.fixture(scope="module")
def cases_vcrae():
    return load_graph("vcrae_cases")


@pytest.fixture(scope="module")
def controls_vcrae():
    return load_graph("vcrae_controls")


@pytest.fixture(scope="module")
def age_separated():
    return load_graph("lvcra_age_separated")


# -- structure and fixtures ----------------------------------------------------

def test_all_fixtures_load():
    names = graph_names()
    assert {"vcr_controls", "vcr_cases", "vcrae_cases",
            "vcrae_controls", "lvcra_age_separated", "study_ordering"} <= set(names)
    for name in names:
        g = load_graph(name)
        assert g.nodes


def test_json_round_trip(controls_vcrae):
    again = MixedGraph.from_json(controls_vcrae.to_json())
    assert again == controls_vcrae


def test_graph_validation():
    with pytest.raises(GraphError, match="self loop"):
        MixedGraph(("a", "b"), frozenset({("a", "a", FULL)}))
    with pytest.raises(GraphError, match="multiple edges"):
        MixedGraph(("a", "b"), frozenset({("a", "b", FULL), ("b", "a", DASHED)}))
    with pytest.raises(GraphError, match="unknown node"):
        MixedGraph(("a",), frozenset({("a", "b", FULL)}))
    with pytest.raises(GraphError, match="unknown edge kind"):
        MixedGraph(("a", "b"), frozenset({("a", "b", "bold")}))


@pytest.mark.parametrize("payload", [
    5, "VCR", [], {"nodes": ["V"]}, {"nodes": ["V"], "edges": 5},
    {"nodes": "VCR", "edges": []},
    {"nodes": ["a", ["b"]], "edges": []},
    {"nodes": ["V", "C"], "edges": [], "blocks": ["VC"]},
    {"nodes": ["V", "C"], "edges": [], "blocks": [["V", 1], ["C"]]},
    {"nodes": ["V", "C"], "edges": ["VC"]},
    {"nodes": ["V", "C"], "edges": [{"a": "V"}]},
    {"nodes": ["V", "C"], "edges": [{"a": ["V"], "b": "C"}]},
    {"nodes": ["V", "C"], "edges": [{"a": "V", "b": "C", "kind": ["full"]}]},
])
def test_graph_json_names_are_strings_never_split(payload):
    # a string is not a node list, and every name must be a JSON string
    with pytest.raises(GraphError):
        MixedGraph.from_json(json.dumps(payload))


def test_graph_json_empty_blocks_mean_none():
    g = MixedGraph.from_json('{"nodes": ["V", "C"], "edges": [], "blocks": []}')
    assert g.blocks is None and g.nodes == ("V", "C")


def test_blocks_constrain_arrows():
    # fine: parent in a later block
    MixedGraph(("y", "x"), frozenset({("y", "x", ARROW)}), blocks=(("y",), ("x",)))
    with pytest.raises(GraphError, match="block order"):
        MixedGraph(("y", "x"), frozenset({("x", "y", ARROW)}), blocks=(("y",), ("x",)))


# -- collision Vs ----------------------------------------------------------------

def test_collider_arrows():
    g = MixedGraph(("i", "o", "j"),
                   frozenset({("o", "i", ARROW), ("o", "j", ARROW)}))
    assert find_collision_vs(g) == [("i", "o", "j")]
    assert not is_markov_equivalent_to_concentration(g)


def test_collision_dashed_variants():
    dashed_arrow = MixedGraph(("i", "o", "j"),
                              frozenset({("i", "o", DASHED), ("o", "j", ARROW)}))
    assert find_collision_vs(dashed_arrow) == [("i", "o", "j")]
    dashed_dashed = MixedGraph(("i", "o", "j"),
                               frozenset({("i", "o", DASHED), ("o", "j", DASHED)}))
    assert find_collision_vs(dashed_dashed) == [("i", "o", "j")]


def test_shielded_collider_is_not_a_v():
    g = MixedGraph(("i", "o", "j"),
                   frozenset({("o", "i", ARROW), ("o", "j", ARROW), ("i", "j", FULL)}))
    assert find_collision_vs(g) == []


def test_source_and_chain_are_not_collisions():
    # o is a parent of both ends: no arrowheads meet at o
    g = MixedGraph(("i", "o", "j"),
                   frozenset({("i", "o", ARROW), ("j", "o", ARROW)}))
    assert find_collision_vs(g) == []


def test_full_line_graphs_never_collide(cases_vcrae, age_separated):
    assert find_collision_vs(cases_vcrae) == []
    assert find_collision_vs(age_separated) == []
    assert is_markov_equivalent_to_concentration(age_separated)


def test_controls_regression_graph_has_no_collision(controls_vcrae):
    assert controls_vcrae.kinds() == {DASHED, FULL}
    assert find_collision_vs(controls_vcrae) == []
    assert is_markov_equivalent_to_concentration(controls_vcrae)


# -- separation -------------------------------------------------------------------

def test_age_separated_statement(age_separated):
    assert separates(age_separated, stmt({"A"}, {"V", "R"}, {"C", "L"}))
    assert not separates(age_separated, stmt({"A"}, {"V", "R"}, {"C"}))


def test_controls_vcr_separation(controls_vcr):
    assert separates(controls_vcr, stmt({"V", "C"}, {"R"}))


def test_complete_graph_separates_nothing():
    g = full_line_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    assert not separates(g, stmt({"a"}, {"b"}, {"c"}))


def test_separates_requires_full_line(controls_vcrae):
    with pytest.raises(GraphError, match="full-line"):
        separates(controls_vcrae, stmt({"V"}, {"R"}))
    assert separates(concentration_skeleton(controls_vcrae), stmt({"V"}, {"R"}))


def test_separates_unknown_node(controls_vcr):
    with pytest.raises(GraphError, match="unknown nodes"):
        separates(controls_vcr, stmt({"V"}, {"Q"}))


# -- implied independencies ---------------------------------------------------------

def test_implied_controls_vcr(controls_vcr):
    stmts = implied_independencies(controls_vcr, max_size=1)
    assert stmt({"R"}, {"V"}) in stmts
    assert stmt({"R"}, {"V"}, {"C"}) in stmts


def test_implied_age_separated(age_separated):
    stmts = implied_independencies(age_separated, max_size=3)
    assert stmt({"A"}, {"V"}, {"C", "R", "L"}) in stmts


def test_implied_complete_graph_empty():
    g = full_line_graph("abcd", list(itertools.combinations("abcd", 2)))
    assert implied_independencies(g, max_size=2) == []


# -- brute-force oracles --------------------------------------------------------------

def separated_by_paths(g, s):
    """Oracle: enumerate all simple paths between the two sides."""
    adj = g.skeleton()

    def paths_escape(start):
        found = []

        def walk(node, seen):
            if node in s.b:
                found.append(True)
                return
            for nxt in sorted(adj[node]):
                if nxt in seen or nxt in s.c:
                    continue
                walk(nxt, seen | {nxt})

        if start not in s.c:
            walk(start, {start})
        return found

    return not any(paths_escape(a) for a in s.a)


def all_graphs(nodes):
    pairs = list(itertools.combinations(nodes, 2))
    for mask in range(2 ** len(pairs)):
        yield full_line_graph(nodes, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_separation_oracle_all_graphs_up_to_five_nodes():
    # reachability implementation vs simple-path enumeration, exhaustively
    for k in range(2, 6):
        nodes = "abcde"[:k]
        for g in all_graphs(nodes):
            for a, b in itertools.combinations(nodes, 2):
                rest = [n for n in nodes if n not in (a, b)]
                for size in range(len(rest) + 1):
                    for c in itertools.combinations(rest, size):
                        s = stmt({a}, {b}, c)
                        assert separates(g, s) == separated_by_paths(g, s)


def implied_by_bruteforce(g, nodes, max_size):
    expect = set()
    for a, b in itertools.combinations(nodes, 2):
        rest = [n for n in nodes if n not in (a, b)]
        for size in range(min(max_size, len(rest)) + 1):
            for c in itertools.combinations(rest, size):
                s = stmt({a}, {b}, c)
                if separated_by_paths(g, s):
                    expect.add(str(s))
    return expect


def test_implied_independencies_match_bruteforce():
    for g in all_graphs("abcd"):
        implied = set(map(str, implied_independencies(g, max_size=2)))
        assert implied == implied_by_bruteforce(g, "abcd", 2)


def test_implied_independencies_sampled_larger_graphs():
    import random

    rng = random.Random(2718)
    for k in (5, 6):
        nodes = "abcdef"[:k]
        pairs = list(itertools.combinations(nodes, 2))
        for _ in range(100):
            chosen = [p for p in pairs if rng.random() < 0.4]
            g = full_line_graph(nodes, chosen)
            implied = set(map(str, implied_independencies(g, max_size=k - 2)))
            assert implied == implied_by_bruteforce(g, nodes, k - 2)


def brute_force_cliques(g):
    nodes = list(g.nodes)
    adj = g.skeleton()
    all_cliques = []
    for r in range(1, len(nodes) + 1):
        for sub in itertools.combinations(nodes, r):
            if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                all_cliques.append(set(sub))
    maximal = [c for c in all_cliques if not any(c < other for other in all_cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def test_cliques_match_bruteforce_on_all_four_node_graphs():
    for g in all_graphs("abcd"):
        assert cliques(g) == brute_force_cliques(g)


# -- separation properties -------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_separates_symmetric_and_monotone(data):
    nodes = "abcde"
    pairs = list(itertools.combinations(nodes, 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    g = full_line_graph(nodes, chosen)
    names = set(nodes)
    a = data.draw(st.sets(st.sampled_from(sorted(names)), min_size=1, max_size=2))
    b = data.draw(st.sets(st.sampled_from(sorted(names - a)), min_size=1, max_size=2))
    c = names - a - b
    s = stmt(a, b, c)
    assert separates(g, s) == separates(g, stmt(b, a, c))
    if separates(g, s):
        for sub_a in itertools.combinations(sorted(a), 1):
            for sub_b in itertools.combinations(sorted(b), 1):
                assert separates(g, stmt(set(sub_a), set(sub_b), c))


# -- marginalization --------------------------------------------------------------------

def test_marginalize_cases_graph(cases_vcrae):
    m = marginalize_graph(cases_vcrae, {"E", "A"})
    assert sorted(tuple(sorted((a, b))) for a, b, _ in m.edges) == [
        ("C", "R"), ("C", "V"), ("R", "V")]


def test_marginalize_controls_graph(controls_vcrae):
    m = marginalize_graph(concentration_skeleton(controls_vcrae), {"E", "A"})
    assert sorted(tuple(sorted((a, b))) for a, b, _ in m.edges) == [("C", "V")]
    assert "R" in m.nodes


def test_marginalize_empty_drop(cases_vcrae):
    assert marginalize_graph(cases_vcrae, set()) == cases_vcrae


def test_marginalize_induces_path_edges():
    g = full_line_graph("abc", [("a", "b"), ("b", "c")])
    m = marginalize_graph(g, {"b"})
    assert sorted(tuple(sorted((x, y))) for x, y, _ in m.edges) == [("a", "c")]


def test_marginalize_is_composable():
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "e")]
    g = full_line_graph("abcde", pairs)
    one_then_two = marginalize_graph(marginalize_graph(g, {"b"}), {"d"})
    both = marginalize_graph(g, {"b", "d"})
    assert one_then_two == both


# -- cliques ---------------------------------------------------------------------------

def test_cliques_cases_graph(cases_vcrae):
    assert cliques(cases_vcrae) == [("A", "C"), ("C", "R", "V"), ("E",)]


def test_cliques_controls_graph(controls_vcrae):
    assert cliques(concentration_skeleton(controls_vcrae)) == [
        ("A", "E"), ("C", "V"), ("E", "R")]


def test_cliques_edgeless():
    g = full_line_graph("abc", [])
    assert cliques(g) == [("a",), ("b",), ("c",)]


def test_cliques_leave_no_reference_cycle():
    path = full_line_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    gc.collect()
    gc.disable()
    try:
        assert cliques(path) == [("a", "b"), ("b", "c"), ("c", "d")]
        assert gc.collect() == 0
    finally:
        gc.enable()
