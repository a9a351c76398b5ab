"""Multigraph model with dangling and free edges.

An edge carries zero, one, or two endpoint vertices: a normal edge has
two, a dangling edge one, a free edge none.  Parallel edges (same
endpoint pair, distinct ids) are allowed; self-loops are rejected.

Graphs are immutable: ``remove_edge`` and ``condition`` return new graphs
and leave the original intact.  ``condition`` puts an edge into the cover,
the paper's one step on a graph, for ``counter.elimination_chain``, the
split identity of ``verify`` and the tests' reference recursion; the
estimator never builds a subgraph, and ``_Workspace.condition`` is its twin.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence


class EdgeKind(enum.Enum):
    NORMAL = "normal"
    DANGLING = "dangling"
    FREE = "free"


# An edge's kind, indexed by its number of endpoints.
KINDS = (EdgeKind.FREE, EdgeKind.DANGLING, EdgeKind.NORMAL)


class GraphFormatError(ValueError):
    """Malformed text in the graph file format."""


class Graph:
    """Immutable multigraph over nonnegative integer vertex and edge ids."""

    __slots__ = ("_edges", "_adj")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, Sequence[int]]] = (),
    ):
        adj: dict[int, list[int]] = {}
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex id must be a nonnegative integer, got {v!r}")
            if v in adj:
                raise ValueError(f"duplicate vertex id {v}")
            adj[v] = []

        emap: dict[int, tuple[int, ...]] = {}
        for eid, ends in edges:
            if not isinstance(eid, int) or eid < 0:
                raise ValueError(f"edge id must be a nonnegative integer, got {eid!r}")
            if eid in emap:
                raise ValueError(f"duplicate edge id {eid}")
            ends = tuple(sorted(ends))
            if len(ends) > 2:
                raise ValueError(f"edge {eid} has {len(ends)} endpoints, at most 2 allowed")
            if len(ends) == 2 and ends[0] == ends[1]:
                raise ValueError(f"edge {eid} is a self-loop, which is rejected")
            for u in ends:
                if u not in adj:
                    raise ValueError(f"edge {eid} references undeclared vertex {u}")
                adj[u].append(eid)
            emap[eid] = ends

        # both held in ascending id order, which the removal operators keep
        self._edges = {e: emap[e] for e in sorted(emap)}
        self._adj = {v: tuple(sorted(adj[v])) for v in sorted(adj)}

    @classmethod
    def _raw(cls, edges, adj) -> "Graph":
        # Fast path for the removal operators: inputs already validated.
        g = object.__new__(cls)
        g._edges = edges
        g._adj = adj
        return g

    @classmethod
    def from_edges(cls, endpoint_lists: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph assigning dense edge ids 0..m-1 in input order.

        The vertex set is the union of all endpoints; ``Graph(vertices, edges)``
        also takes vertices that no edge touches.
        """
        edges = list(enumerate(endpoint_lists))
        return cls({u for _, ends in edges for u in ends}, edges)

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        """All edge ids in ascending order (the deterministic recursion order)."""
        return tuple(self._edges)

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def endpoints(self, e: int) -> tuple[int, ...]:
        try:
            return self._edges[e]
        except KeyError:
            raise KeyError(f"unknown edge id {e}") from None

    def classify(self, e: int) -> EdgeKind:
        return KINDS[len(self.endpoints(e))]

    def incident_edges(self, u: int) -> tuple[int, ...]:
        """Edges with u as an endpoint, ascending by edge id.

        A parallel edge appears once per copy.
        """
        try:
            return self._adj[u]
        except KeyError:
            raise KeyError(f"unknown vertex id {u}") from None

    def has_isolated_vertex(self) -> bool:
        return any(not ids for ids in self._adj.values())

    # -- removal operators ---------------------------------------------------

    def remove_edge(self, e: int) -> "Graph":
        """The graph with edge e deleted; vertices untouched."""
        ends = self.endpoints(e)
        edges = dict(self._edges)
        del edges[e]
        adj = dict(self._adj)
        for u in ends:
            adj[u] = tuple(x for x in adj[u] if x != e)
        return Graph._raw(edges, adj)

    def condition(self, e: int) -> "Graph":
        """The graph with e put into the cover: e deleted, its endpoints removed, and
        every other edge at them keeping its id but losing that end (normal -> dangling -> free)."""
        ends = self.endpoints(e)
        edges = dict(self._edges)
        del edges[e]
        adj = dict(self._adj)
        for u in ends:
            for x in adj.pop(u):
                if x != e:
                    edges[x] = tuple(w for w in edges[x] if w != u)
        return Graph._raw(edges, adj)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and self._edges == other._edges

    __hash__ = None  # mutable-looking value semantics; not meant for dict keys

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self._adj)}, edges={self._edges})"


# item tag -> number of integer arguments
_ITEMS = {"v": 1, "e": 3, "d": 2, "f": 1}


def parse_graph(text: str) -> Graph:
    """Parse the one-item-per-line text format.

    ``v <id>`` declares a vertex, ``e <id> <u> <v>`` a normal edge,
    ``d <id> <u>`` a dangling edge, ``f <id>`` a free edge.  ``#`` starts
    a comment.  Declaration order is free; all vertex references are
    checked against the declared set.
    """
    vertices: set[int] = set()
    edges: dict[int, tuple[list[int], int]] = {}  # edge id -> (endpoints, line number)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, *args = line.split()
        if tag not in _ITEMS:
            raise GraphFormatError(f"line {lineno}: unknown item {tag!r}")
        n_args = _ITEMS[tag]
        if len(args) != n_args:
            wording = "one integer argument" if n_args == 1 else f"{n_args} integer arguments"
            raise GraphFormatError(f"line {lineno}: '{tag}' takes {wording}")
        ids = []
        for tok in args:
            try:
                ids.append(int(tok))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected an integer, got {tok!r}") from None
            if ids[-1] < 0:
                raise GraphFormatError(f"line {lineno}: ids must be nonnegative, got {ids[-1]}")
        item, *ends = ids
        if tag == "v":
            if item in vertices:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {item}")
            vertices.add(item)
            continue
        if item in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge id {item}")
        if len(ends) == 2 and ends[0] == ends[1]:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {ends[0]} is rejected")
        edges[item] = ends, lineno

    for ends, lineno in edges.values():
        for u in ends:
            if u not in vertices:
                raise GraphFormatError(f"line {lineno}: undeclared vertex {u}")

    return Graph(vertices, [(eid, ends) for eid, (ends, _) in edges.items()])


def format_graph(g: Graph) -> str:
    """Render a graph in the text format accepted by :func:`parse_graph`."""
    lines = [f"v {v}" for v in sorted(g.vertices)]
    for e in g.edge_ids:
        ends = g.endpoints(e)
        lines.append(" ".join(["fde"[len(ends)], str(e), *map(str, ends)]))
    return "\n".join(lines) + "\n"
