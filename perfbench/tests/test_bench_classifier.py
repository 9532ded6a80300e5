"""The GYO decomposability test against brute-force chordality."""

from itertools import combinations

import pytest

from tracing import is_decomposable


def maximal_cliques(nodes, edges):
    def clique(s):
        return all(frozenset(p) in edges for p in combinations(s, 2))

    cliques = [set(s) for r in range(1, len(nodes) + 1)
               for s in combinations(nodes, r) if clique(s)]
    return [c for c in cliques if not any(c < d for d in cliques)]


def chordal(nodes, edges):
    """No induced cycle of length four or more."""
    for r in range(4, len(nodes) + 1):
        for sub in combinations(nodes, r):
            degree = {v: sum(frozenset((v, w)) in edges for w in sub if w != v) for v in sub}
            if all(d == 2 for d in degree.values()):
                # 2-regular: a single cycle iff connected
                seen, stack = {sub[0]}, [sub[0]]
                while stack:
                    v = stack.pop()
                    for w in sub:
                        if w not in seen and frozenset((v, w)) in edges:
                            seen.add(w)
                            stack.append(w)
                if len(seen) == r:
                    return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classifier_matches_chordality_on_every_graph(n):
    nodes = tuple(range(n))
    pairs = [frozenset(p) for p in combinations(nodes, 2)]
    for mask in range(2 ** len(pairs)):
        edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
        assert is_decomposable(maximal_cliques(nodes, edges)) == chordal(nodes, edges), edges


def test_non_graphical_classes_are_cyclic():
    assert not is_decomposable([("V", "C"), ("C", "R"), ("R", "V")])
    assert not is_decomposable(list(combinations("ABCDE", 2)))
    assert is_decomposable([("A", "B", "C"), ("B", "C", "D"), ("E",)])
    assert is_decomposable([("A", "B"), ("A", "B")])
