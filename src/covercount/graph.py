"""Multigraph model with dangling and free edges.

An edge carries zero, one, or two endpoint vertices: a normal edge has
two, a dangling edge one, a free edge none.  Parallel edges (same
endpoint pair, distinct ids) are allowed; self-loops are rejected.

Graphs are immutable: ``remove_edge`` and ``detach_vertex`` return new
graphs and leave the original intact.  Their users are the oracle's
marginal (``|EC(g - e)|``), ``verify``'s edge-deleted counts and identities,
``counter.elimination_chain`` and the persistent-graph reference
recursion of the tests; the estimator itself never builds a subgraph.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence


class EdgeKind(enum.Enum):
    NORMAL = "normal"
    DANGLING = "dangling"
    FREE = "free"


class GraphFormatError(ValueError):
    """Malformed text in the graph file format."""


class Graph:
    """Immutable multigraph over nonnegative integer vertex and edge ids."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, Sequence[int]]] = (),
    ):
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex id must be a nonnegative integer, got {v!r}")
            if v in vset:
                raise ValueError(f"duplicate vertex id {v}")
            vset.add(v)

        emap: dict[int, tuple[int, ...]] = {}
        adj: dict[int, list[int]] = {v: [] for v in vset}
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
                if u not in vset:
                    raise ValueError(f"edge {eid} references undeclared vertex {u}")
                adj[u].append(eid)
            emap[eid] = ends

        self._vertices = frozenset(vset)
        self._edges = emap
        self._adj = {v: tuple(sorted(ids)) for v, ids in adj.items()}

    @classmethod
    def _raw(cls, vertices, edges, adj) -> "Graph":
        # Fast path for the removal operators: inputs already validated.
        g = object.__new__(cls)
        g._vertices = vertices
        g._edges = edges
        g._adj = adj
        return g

    @classmethod
    def from_edges(
        cls,
        endpoint_lists: Iterable[Sequence[int]],
        extra_vertices: Iterable[int] = (),
    ) -> "Graph":
        """Build a graph assigning dense edge ids 0..m-1 in input order.

        The vertex set is the union of all endpoints plus ``extra_vertices``.
        """
        edges = [(i, tuple(ends)) for i, ends in enumerate(endpoint_lists)]
        vertices = set(extra_vertices)
        for _, ends in edges:
            vertices.update(ends)
        return cls(vertices, edges)

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[int, ...]:
        """All edge ids in ascending order (the deterministic recursion order)."""
        return tuple(sorted(self._edges))

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, e: int) -> bool:
        return e in self._edges

    def endpoints(self, e: int) -> tuple[int, ...]:
        try:
            return self._edges[e]
        except KeyError:
            raise KeyError(f"unknown edge id {e}") from None

    def classify(self, e: int) -> EdgeKind:
        n = len(self.endpoints(e))
        if n == 2:
            return EdgeKind.NORMAL
        if n == 1:
            return EdgeKind.DANGLING
        return EdgeKind.FREE

    def incident_edges(self, u: int) -> tuple[int, ...]:
        """Edges with u as an endpoint, ascending by edge id.

        A parallel edge appears once per copy.
        """
        try:
            return self._adj[u]
        except KeyError:
            raise KeyError(f"unknown vertex id {u}") from None

    def degree(self, u: int) -> int:
        return len(self.incident_edges(u))

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
        return Graph._raw(self._vertices, edges, adj)

    def detach_vertex(self, u: int) -> "Graph":
        """The graph with u removed and each incident edge keeping its id
        but losing that endpoint slot (normal -> dangling, dangling -> free)."""
        incident = self.incident_edges(u)
        edges = dict(self._edges)
        for e in incident:
            edges[e] = tuple(w for w in edges[e] if w != u)
        adj = {v: ids for v, ids in self._adj.items() if v != u}
        return Graph._raw(self._vertices - {u}, edges, adj)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    __hash__ = None  # mutable-looking value semantics; not meant for dict keys

    def __repr__(self) -> str:
        return f"Graph(vertices={sorted(self._vertices)}, edges={dict(sorted(self._edges.items()))})"


def parse_graph(text: str) -> Graph:
    """Parse the one-item-per-line text format.

    ``v <id>`` declares a vertex, ``e <id> <u> <v>`` a normal edge,
    ``d <id> <u>`` a dangling edge, ``f <id>`` a free edge.  ``#`` starts
    a comment.  Declaration order is free; all vertex references are
    checked against the declared set.
    """
    vertices: list[int] = []
    vset: set[int] = set()
    edges: list[tuple[int, tuple[int, ...]]] = []
    eids: set[int] = set()
    refs: list[tuple[int, int]] = []  # (vertex id, line number)

    def intval(tok: str, lineno: int) -> int:
        try:
            n = int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected an integer, got {tok!r}") from None
        if n < 0:
            raise GraphFormatError(f"line {lineno}: ids must be nonnegative, got {n}")
        return n

    def edge_line(lineno: int, parts: list[str], n_args: int) -> tuple[int, tuple[int, ...]]:
        if len(parts) != n_args + 2:
            raise GraphFormatError(
                f"line {lineno}: '{parts[0]}' takes {n_args + 1} integer arguments"
            )
        eid = intval(parts[1], lineno)
        if eid in eids:
            raise GraphFormatError(f"line {lineno}: duplicate edge id {eid}")
        eids.add(eid)
        ends = tuple(intval(tok, lineno) for tok in parts[2:])
        if len(ends) == 2 and ends[0] == ends[1]:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {ends[0]} is rejected")
        for u in ends:
            refs.append((u, lineno))
        return eid, ends

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: 'v' takes one integer argument")
            vid = intval(parts[1], lineno)
            if vid in vset:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {vid}")
            vset.add(vid)
            vertices.append(vid)
        elif tag == "e":
            edges.append(edge_line(lineno, parts, 2))
        elif tag == "d":
            edges.append(edge_line(lineno, parts, 1))
        elif tag == "f":
            edges.append(edge_line(lineno, parts, 0))
        else:
            raise GraphFormatError(f"line {lineno}: unknown item {tag!r}")

    for u, lineno in refs:
        if u not in vset:
            raise GraphFormatError(f"line {lineno}: undeclared vertex {u}")

    return Graph(vertices, edges)


def format_graph(g: Graph) -> str:
    """Render a graph in the text format accepted by :func:`parse_graph`."""
    lines = [f"v {v}" for v in sorted(g.vertices)]
    for e in g.edge_ids:
        ends = g.endpoints(e)
        if len(ends) == 2:
            lines.append(f"e {e} {ends[0]} {ends[1]}")
        elif len(ends) == 1:
            lines.append(f"d {e} {ends[0]}")
        else:
            lines.append(f"f {e}")
    return "\n".join(lines) + "\n"
