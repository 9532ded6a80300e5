"""Mixed graphs: arrows, dashed lines and full lines.

Arrows point from a parent to its offspring; dashed lines couple joint
responses; full lines couple background variables.  An undirected graph of
only full lines is a concentration graph: a missing edge encodes the
conditional independence of its endpoints given all remaining variables.

Separation is implemented by node deletion plus breadth-first reachability.
The brute-force path enumeration used to cross-check it lives in the test
suite, not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .tables import json_names

ARROW = "arrow"
DASHED = "dashed"
FULL = "full"
_KINDS = (ARROW, DASHED, FULL)


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class IndependenceStatement:
    """a independent of b given c, for disjoint sets of variable names."""

    a: frozenset
    b: frozenset
    c: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        object.__setattr__(self, "c", frozenset(self.c))
        if not self.a or not self.b:
            raise GraphError("a and b must be nonempty")
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise GraphError("a, b, c must be pairwise disjoint")

    def __str__(self):
        left = ",".join(sorted(self.a))
        right = ",".join(sorted(self.b))
        if self.c:
            return f"{left} _||_ {right} | {','.join(sorted(self.c))}"
        return f"{left} _||_ {right}"


@dataclass(frozen=True)
class MixedGraph:
    """Node list plus typed edges, at most one edge per unordered pair.

    Edges are (a, b, kind) triples.  For ``kind == "arrow"`` the edge is
    directed with ``b`` the parent of ``a``; dashed and full edges are
    undirected and stored with endpoints sorted.  ``blocks``, when given,
    is an ordered partition of the nodes from responses to background;
    arrows must point from a later block into an earlier one.
    """

    nodes: tuple[str, ...]
    edges: frozenset
    blocks: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node names")
        node_set = set(self.nodes)
        normalized = set()
        seen_pairs = set()
        for a, b, kind in self.edges:
            if kind not in _KINDS:
                raise GraphError(f"unknown edge kind {kind!r}")
            if a == b:
                raise GraphError(f"self loop at {a!r}")
            if a not in node_set or b not in node_set:
                raise GraphError(f"edge ({a}, {b}) references unknown node")
            pair = frozenset((a, b))
            if pair in seen_pairs:
                raise GraphError(f"multiple edges between {a!r} and {b!r}")
            seen_pairs.add(pair)
            if kind == ARROW:
                normalized.add((a, b, kind))
            else:
                a, b = sorted((a, b))
                normalized.add((a, b, kind))
        object.__setattr__(self, "edges", frozenset(normalized))
        if self.blocks is not None:
            blocks = tuple(tuple(b) for b in self.blocks)
            flat = [n for b in blocks for n in b]
            if sorted(flat) != sorted(self.nodes):
                raise GraphError("blocks must partition the node set")
            pos = {n: i for i, b in enumerate(blocks) for n in b}
            for a, b, kind in self.edges:
                if kind == ARROW and pos[b] <= pos[a]:
                    raise GraphError(
                        f"arrow {b}->{a} violates block order (parent must lie in a later block)")
            object.__setattr__(self, "blocks", blocks)

    # -- basic structure ------------------------------------------------

    def kinds(self) -> set:
        return {kind for _, _, kind in self.edges}

    def is_full_line(self) -> bool:
        return self.kinds() <= {FULL}

    def skeleton(self) -> dict:
        """Adjacency map ignoring edge type and direction."""
        adj = {n: set() for n in self.nodes}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "nodes": list(self.nodes),
            "edges": [
                {"a": a, "b": b, "kind": kind}
                for a, b, kind in sorted(self.edges)
            ],
        }
        if self.blocks is not None:
            payload["blocks"] = [list(b) for b in self.blocks]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MixedGraph":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"bad graph JSON: {exc}") from None
        if not (isinstance(payload, dict) and "nodes" in payload
                and isinstance(payload.get("edges"), list)):
            raise GraphError("graph JSON needs 'nodes' and an 'edges' list")
        edges = set()
        for e in payload["edges"]:
            try:
                fields = [e["a"], e["b"], e.get("kind", FULL)]
            except (TypeError, KeyError):
                raise GraphError(f"bad edge entry {e!r}") from None
            edges.add(json_names(fields, f"bad edge entry {e!r}", error=GraphError))
        blocks = json_names(payload.get("blocks", []),
                            "graph JSON 'blocks' must be a list of node-name lists",
                            nested=True, error=GraphError)
        return cls(
            nodes=json_names(payload["nodes"], "graph JSON 'nodes' must be a list of node names",
                             error=GraphError),
            edges=frozenset(edges),
            blocks=blocks or None,
        )


def full_line_graph(nodes, pairs) -> MixedGraph:
    """Concentration graph on ``nodes`` with full-line edges for each pair."""
    return MixedGraph(tuple(nodes), frozenset((a, b, FULL) for a, b in pairs))


# -- collision Vs and Markov equivalence ---------------------------------

def _collider_ends(g: MixedGraph, o: str) -> set:
    """Neighbours whose edge meets ``o`` with an arrowhead or a dashed end."""
    ends = set()
    for a, b, kind in g.edges:
        if kind == ARROW and a == o:
            ends.add(b)
        elif kind == DASHED and o in (a, b):
            ends.add(b if a == o else a)
    return ends


def find_collision_vs(g: MixedGraph) -> list[tuple[str, str, str]]:
    """All collision Vs: paths i-o-j with i, j uncoupled where both edges
    meet the inner node with an arrowhead or a dashed end.

    Covers the three patterns arrow-arrow, dashed-arrow and dashed-dashed
    meeting at o.  Full lines never create a collision.
    """
    adj = g.skeleton()
    out = []
    for o in g.nodes:
        ends = sorted(_collider_ends(g, o))
        for i, j in combinations(ends, 2):
            if j not in adj[i]:
                out.append((i, o, j))
    return sorted(out)


def is_markov_equivalent_to_concentration(g: MixedGraph) -> bool:
    """True iff ``g`` induces the same independences as the full-line
    concentration graph on the same node set and edge set, i.e. iff it
    contains no collision V."""
    return not find_collision_vs(g)


def concentration_skeleton(g: MixedGraph) -> MixedGraph:
    """The full-line graph with the same nodes and edge set.

    Meaningful as an independence structure when
    ``is_markov_equivalent_to_concentration(g)`` holds.
    """
    pairs = {tuple(sorted((a, b))) for a, b, _ in g.edges}
    return full_line_graph(g.nodes, pairs)


# -- separation in full-line graphs ----------------------------------------

def _require_full_line(g: MixedGraph):
    if not g.is_full_line():
        raise GraphError("operation requires a full-line (concentration) graph")


def separates(g: MixedGraph, s: IndependenceStatement) -> bool:
    """True iff every path in ``g`` between s.a and s.b meets s.c.

    Implemented as breadth-first reachability after deleting the nodes of
    s.c.  Only defined for full-line graphs.
    """
    _require_full_line(g)
    node_set = set(g.nodes)
    for part in (s.a, s.b, s.c):
        unknown = part - node_set
        if unknown:
            raise GraphError(f"unknown nodes {sorted(unknown)}")
    adj = g.skeleton()
    blocked = set(s.c)
    frontier = list(s.a - blocked)
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        if node in s.b:
            return False
        for nxt in adj[node]:
            if nxt not in blocked and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def implied_independencies(g: MixedGraph, max_size: int) -> list[IndependenceStatement]:
    """All statements a _||_ b | c with singleton a, b and |c| <= max_size.

    Deterministic order: by a, then b, then conditioning set size, then the
    sorted conditioning set.  Node count is capped to keep the enumeration
    honest.
    """
    _require_full_line(g)
    if len(g.nodes) > 12:
        raise GraphError("enumeration capped at 12 nodes")
    out = []
    for a, b in combinations(sorted(g.nodes), 2):
        rest = sorted(set(g.nodes) - {a, b})
        for size in range(0, min(max_size, len(rest)) + 1):
            for c in combinations(rest, size):
                stmt = IndependenceStatement(frozenset({a}), frozenset({b}), frozenset(c))
                if separates(g, stmt):
                    out.append(stmt)
    return out


def marginalize_graph(g: MixedGraph, drop) -> MixedGraph:
    """Full-line graph on the remaining nodes after marginalizing over ``drop``.

    Two kept nodes are coupled iff they were adjacent or are connected by a
    path running entirely through dropped nodes.
    """
    _require_full_line(g)
    drop = set(drop)
    unknown = drop - set(g.nodes)
    if unknown:
        raise GraphError(f"unknown nodes {sorted(unknown)}")
    keep = [n for n in g.nodes if n not in drop]
    adj = g.skeleton()

    # connected components of the dropped-node subgraph
    comps = []
    unvisited = set(drop)
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adj[node] & unvisited:
                unvisited.discard(nxt)
                comp.add(nxt)
                frontier.append(nxt)
        comps.append(comp)

    pairs = set()
    for a, b in combinations(keep, 2):
        if b in adj[a]:
            pairs.add((a, b))
            continue
        for comp in comps:
            if adj[a] & comp and adj[b] & comp:
                pairs.add((a, b))
                break
    return full_line_graph(keep, pairs)


def cliques(g: MixedGraph) -> list[tuple[str, ...]]:
    """Maximal cliques of a full-line graph, each sorted, listed in sorted order.

    Bron-Kerbosch with pivoting; isolated nodes appear as singletons.
    """
    _require_full_line(g)
    out = []
    _expand(g.skeleton(), set(), set(g.nodes), set(), out)
    return sorted(out)


def _expand(adj, r, p, x, out):
    """One Bron-Kerbosch step: report ``r`` if maximal, else branch on the
    candidates ``p`` not adjacent to the pivot.  A module-level function, so
    that no closure refers to itself and a call leaves no reference cycle."""
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda n: len(adj[n] & p))
    for v in sorted(p - adj[pivot]):
        _expand(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}
