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
from typing import Iterable, NoReturn, Sequence


class EdgeKind(enum.Enum):
    NORMAL = "normal"
    DANGLING = "dangling"
    FREE = "free"


# An edge's kind, indexed by its number of endpoints.
KINDS = (EdgeKind.FREE, EdgeKind.DANGLING, EdgeKind.NORMAL)


class GraphFormatError(ValueError):
    """Malformed text in the graph file format."""


class Graph:
    """Immutable multigraph over nonnegative plain-``int`` vertex and edge ids."""

    __slots__ = ("_edges", "_adj")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, Sequence[int]]] = (),
    ):
        adj: dict[int, list[int]] = {}
        for v in vertices:
            if type(v) is not int or v < 0:
                raise ValueError(f"vertex id must be a nonnegative integer, got {_shown(v)}")
            if v in adj:
                raise ValueError(f"duplicate vertex id {v}")
            adj[v] = []

        emap: dict[int, tuple[int, ...]] = {}
        for eid, ends in edges:
            if type(eid) is not int or eid < 0:
                raise ValueError(f"edge id must be a nonnegative integer, got {_shown(eid)}")
            if eid in emap:
                raise ValueError(f"duplicate edge id {eid}")
            ends = tuple(ends)  # read once: a one-shot iterable would be empty when sorted
            for u in ends:  # 1.0, True or an int subclass equals a vertex id, but format_graph writes its str()
                if type(u) is not int:
                    raise ValueError(f"edge {eid} endpoint must be an integer vertex id, got {_shown(u)}")
            ends = tuple(sorted(ends))
            if len(ends) > 2:
                raise ValueError(f"edge {eid} has {len(ends)} endpoints, at most 2 allowed")
            if len(ends) == 2 and ends[0] == ends[1]:
                raise ValueError(f"edge {eid} is a self-loop, which is rejected")
            for u in ends:
                if u not in adj:
                    raise ValueError(f"edge {eid} references undeclared vertex {u}")
            emap[eid] = ends
        self._edges, self._adj = _tables(adj, emap)

    @classmethod
    def _raw(cls, edges, adj) -> "Graph":
        """A graph over finished tables, with no check, for callers whose input
        is validated already: the removal operators, ``parse_graph``,
        ``cnf.to_graph`` and ``verify.identity_suite``'s doubled graph.
        ``edges`` maps each edge id to its sorted endpoint tuple and ``adj``
        each vertex to the ascending tuple of its incident edge ids, one per
        parallel copy; both dicts ascend by key, as ``_tables`` builds them."""
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
        edges = list(enumerate(map(tuple, endpoint_lists)))
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


def _shown(x) -> str:
    """``repr(x)``, naming its type unless it is a plain ``int``: an ``int``
    subclass's ``repr`` is ``int``'s, and ``True`` or ``1.0`` read as ids."""
    return repr(x) if type(x) is int else f"{x!r} of type {type(x).__name__}"


# item tag -> number of integer arguments
_ITEMS = {"v": 1, "e": 3, "d": 2, "f": 1}


def parse_graph(text: str) -> Graph:
    """Parse the one-item-per-line text format.

    ``v <id>`` declares a vertex, ``e <id> <u> <v>`` a normal edge,
    ``d <id> <u>`` a dangling edge, ``f <id>`` a free edge.  ``#`` starts
    a comment.  Declaration order is free; all vertex references are
    checked against the declared set.

    Each check runs once, here, and the finished tables go to
    ``Graph._raw``.  The first fault is reported: lines in file order,
    and within a line its tag, its argument count, each token in order,
    then a duplicate id or a self-loop; after the last line, the first
    undeclared endpoint, edges in file order and ends as written.
    """
    inc: dict[int, list[int]] = {}  # declared vertex -> its incident edge ids
    edges: dict[int, tuple[int, ...]] = {}  # edge id -> sorted endpoints, in file order
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        toks = raw.split()
        if not toks:
            continue
        tag = toks[0]
        try:
            if tag == "e" and len(toks) == 4:
                item, u, w = int(toks[1]), int(toks[2]), int(toks[3])
                ends = (u, w) if u < w else (w, u)
            elif tag == "v" and len(toks) == 2:
                item, ends = int(toks[1]), None
            elif tag == "d" and len(toks) == 3:
                item, ends = int(toks[1]), (int(toks[2]),)
            elif tag == "f" and len(toks) == 2:
                item, ends = int(toks[1]), ()
            else:
                item = -1  # an unknown tag or a wrong count: rejected below
        except ValueError:
            item = -1
        if item < 0 or (ends and ends[0] < 0):  # ends are sorted: ends[0] is the least
            _reject(lineno, toks)
        if ends is None:
            if item in inc:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {item}")
            inc[item] = []
        elif item in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge id {item}")
        elif len(ends) == 2 and ends[0] == ends[1]:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {ends[0]} is rejected")
        else:
            edges[item] = ends

    try:
        return Graph._raw(*_tables(inc, edges))
    except KeyError:
        _undeclared(text, inc)


def _tables(inc: dict[int, list[int]], edges: dict[int, tuple[int, ...]]) -> tuple[dict, dict]:
    """A graph's two tables, ascending by id, from validated maps; KeyError at an undeclared end."""
    table = {e: edges[e] for e in sorted(edges)}
    for e, ends in table.items():
        for u in ends:
            inc[u].append(e)  # ascending, as e is, one entry per parallel copy
    return table, {v: tuple(inc[v]) for v in sorted(inc)}


def _reject(lineno: int, toks: list[str]) -> NoReturn:
    """Raise the first fault of a line ``parse_graph`` could not read: its
    tag, then its argument count, then each token in order."""
    tag, args = toks[0], toks[1:]
    if tag not in _ITEMS:
        raise GraphFormatError(f"line {lineno}: unknown item {tag!r}")
    n_args = _ITEMS[tag]
    if len(args) != n_args:
        wording = "one integer argument" if n_args == 1 else f"{n_args} integer arguments"
        raise GraphFormatError(f"line {lineno}: '{tag}' takes {wording}")
    for tok in args:
        try:
            value = int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected an integer, got {tok!r}") from None
        if value < 0:
            raise GraphFormatError(f"line {lineno}: ids must be nonnegative, got {value}")
    raise AssertionError(f"line {lineno} has no fault")


def _undeclared(text: str, declared) -> NoReturn:
    """Raise for the first endpoint not in ``declared``, edges in file order
    and each edge's ends as written; every line is known to be well formed."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if toks and toks[0] in ("e", "d"):
            for u in map(int, toks[2:]):
                if u not in declared:
                    raise GraphFormatError(f"line {lineno}: undeclared vertex {u}")
    raise AssertionError("every endpoint is declared")


def format_graph(g: Graph) -> str:
    """Render a graph in the text format accepted by :func:`parse_graph`."""
    lines = [f"v {v}" for v in sorted(g.vertices)]
    for e in g.edge_ids:
        ends = g.endpoints(e)
        lines.append(" ".join(["fde"[len(ends)], str(e), *map(str, ends)]))
    return "\n".join(lines) + "\n"
