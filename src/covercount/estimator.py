"""Truncated computation-tree estimate of edge-absence marginals.

``estimate_marginal(g, e, depth)`` explores the recursion

* free edge: 1/2 exactly;
* dangling edge at u with d other incident edges: combine the estimates
  of the chain subinstances (detach u, then drop each sibling in
  ascending id order) through ``dangling_combine``, after discounting
  the depth budget by ceil(log6(d+1));
* normal edge (u, v): three chain families over the graph with both
  endpoints detached feed the X, Y, Z products of ``normal_combine``,
  at unchanged depth (the normal branch occurs only at the root).

A depth budget of L certifies the result to within 3 * (1/2)^(L+1) of
the true marginal.  Every value produced lies in [0, 1/2].

``chain_marginals(g, depth)`` runs the same recursion for every edge of
the counter's elimination order on one shared workspace, conditioning
each edge in place once it is estimated.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterable, Optional

from .graph import EdgeKind, Graph

# on_node callback: (depth, edge id, kind, branch) per computation-tree node.
TraceFn = Callable[[int, int, EdgeKind, str], None]


class ContractViolationError(ValueError):
    """A combinator received inputs outside its guaranteed range."""


def dangling_combine(values: Iterable[float]) -> float:
    """(1 - p) / (2 - p) where p is the product of the inputs.

    The empty product is 1, giving 0: a dangling edge with no siblings is
    forced into every cover.  Each input must lie in [0, 1/2].
    """
    prod = 1.0
    for x in values:
        if not 0.0 <= x <= 0.5:
            raise ContractViolationError(f"marginal {x!r} outside [0, 1/2]")
        prod *= x
    return (1.0 - prod) / (2.0 - prod)


def normal_combine(x: float, y: float, z: float) -> float:
    """1 - 1/(2 + x*y - x - z) for the three product terms of the normal branch.

    In-contract inputs (products over the coupled chain families) keep the
    denominator in [1, 2] and the result in [0, 1/2]; anything below 1
    signals a broken caller rather than a representable marginal.
    """
    for name, t in (("x", x), ("y", y), ("z", z)):
        if not 0.0 <= t <= 1.0:
            raise ContractViolationError(f"product {name}={t!r} outside [0, 1]")
    denom = 2.0 + (x * y - x - z)
    if denom < 1.0:
        raise ContractViolationError(f"denominator {denom!r} below 1; inputs violate the product coupling")
    return 1.0 - 1.0 / denom


def _ceil_log6(k: int) -> int:
    # smallest t with 6**t >= k; integer-exact on purpose
    t = 0
    p = 1
    while p < k:
        p *= 6
        t += 1
    return t


def depth_discount(depth: int, d: int) -> int:
    """Remaining budget after branching over d sibling edges.

    Crossing a degree-(d+1) vertex costs ceil(log6(d+1)) units, which is
    what makes the budget polynomial without a degree bound.  May go at or
    below zero; the base case absorbs that.
    """
    return depth - _ceil_log6(d + 1)


def dangling_subinstances(g: Graph, e: int) -> list[tuple[Graph, int]]:
    """Chain of (subgraph, sibling edge) pairs for a dangling edge e at u.

    The first subgraph detaches u after dropping e; each later one
    additionally drops the previous sibling.  Every sibling is dangling
    or free in its subgraph, never normal, since all of them lost the
    endpoint u.
    """
    if g.classify(e) is not EdgeKind.DANGLING:
        raise ValueError(f"edge {e} is not dangling")
    (u,) = g.endpoints(e)
    others = [x for x in g.incident_edges(u) if x != e]
    cur = g.remove_edge(e).detach_vertex(u)
    out = []
    for child in others:
        out.append((cur, child))
        cur = cur.remove_edge(child)
    return out


def normal_subinstances(
    g: Graph, e: int
) -> tuple[list[tuple[Graph, int]], list[tuple[Graph, int]], list[tuple[Graph, int]]]:
    """The three chain families feeding the X, Y, Z products for normal e.

    All start from the core graph with e dropped and both endpoints
    detached.  The first family walks u's other edges, the third walks
    v's other edges, and the second walks v's other edges after u's have
    all been dropped.  A parallel copy of e sits in both endpoint lists;
    it shows up in the first and third families, and the second family
    skips it because it is already conditioned away (its factor is 1).
    """
    if g.classify(e) is not EdgeKind.NORMAL:
        raise ValueError(f"edge {e} is not normal")
    u, v = g.endpoints(e)
    at_u = [x for x in g.incident_edges(u) if x != e]
    at_v = [x for x in g.incident_edges(v) if x != e]
    core = g.remove_edge(e).detach_vertex(u).detach_vertex(v)

    first = []
    cur = core
    for child in at_u:
        first.append((cur, child))
        cur = cur.remove_edge(child)

    second = []
    shared = set(at_u)
    for child in at_v:
        if child in shared:
            continue
        second.append((cur, child))
        cur = cur.remove_edge(child)

    third = []
    cur = core
    for child in at_v:
        third.append((cur, child))
        cur = cur.remove_edge(child)

    return first, second, third


class _Workspace:
    """Mutable scratch copy of a graph with an undo log.

    The recursion visits many overlapping subinstances; mutate-and-rewind
    avoids rebuilding adjacency dicts per node.  Every endpoint list stays
    in ascending order, as in ``Graph``, through any sequence of logged
    mutations and rewinds, so a normal edge always reads back as (u, v)
    with u < v.  Not part of the public persistent-value contract.
    """

    __slots__ = ("endpoints", "adj", "_log")

    def __init__(self, g: Graph):
        self.endpoints = {e: list(g.endpoints(e)) for e in g.edge_ids}
        self.adj = {v: set(g.incident_edges(v)) for v in g.vertices}
        self._log: list[tuple[str, int, object]] = []

    def mark(self) -> int:
        return len(self._log)

    def rewind(self, mark: int) -> None:
        log = self._log
        while len(log) > mark:
            op, key, saved = log.pop()
            if op == "e":
                self.endpoints[key] = saved
                for u in saved:
                    self.adj[u].add(key)
            else:
                self.adj[key] = saved
                for e in saved:
                    insort(self.endpoints[e], key)

    def remove_edge(self, e: int) -> None:
        ends = self.endpoints.pop(e)
        for u in ends:
            self.adj[u].discard(e)
        self._log.append(("e", e, ends))

    def detach_vertex(self, u: int) -> None:
        edges = self.adj.pop(u)
        for e in edges:
            self.endpoints[e].remove(u)
        self._log.append(("v", u, edges))

    def condition(self, e: int) -> None:
        """Put e into the cover for good: drop it and detach its remaining
        endpoints, without an undo-log entry."""
        for u in self.endpoints.pop(e):
            for x in self.adj.pop(u):
                if x != e:
                    self.endpoints[x].remove(u)


def _recurse(ws: _Workspace, e: int, depth: int, on_node: Optional[TraceFn]) -> float:
    ends = ws.endpoints[e]
    width = len(ends)
    if depth <= 0:
        if on_node is not None:
            on_node(depth, e, _KINDS[width], "base")
        return 0.5
    if width == 0:
        if on_node is not None:
            on_node(depth, e, EdgeKind.FREE, "free")
        return 0.5

    if width == 1:
        if on_node is not None:
            on_node(depth, e, EdgeKind.DANGLING, "dangling")
        u = ends[0]
        others = sorted(ws.adj[u] - {e})
        child_depth = depth_discount(depth, len(others))
        mark = ws.mark()
        ws.remove_edge(e)
        ws.detach_vertex(u)
        children = []
        for child in others:
            children.append(_recurse(ws, child, child_depth, on_node))
            ws.remove_edge(child)
        ws.rewind(mark)
        return dangling_combine(children)

    if on_node is not None:
        on_node(depth, e, EdgeKind.NORMAL, "normal")
    u, v = ends
    at_u = sorted(ws.adj[u] - {e})
    at_v = sorted(ws.adj[v] - {e})
    mark = ws.mark()
    ws.remove_edge(e)
    ws.detach_vertex(u)
    ws.detach_vertex(v)
    core = ws.mark()

    x = 1.0
    for child in at_u:
        x *= _recurse(ws, child, depth, on_node)
        ws.remove_edge(child)
    y = 1.0
    shared = set(at_u)
    for child in at_v:
        if child in shared:
            continue  # conditioned away with u's edges; factor 1
        y *= _recurse(ws, child, depth, on_node)
        ws.remove_edge(child)
    ws.rewind(core)
    z = 1.0
    for child in at_v:
        z *= _recurse(ws, child, depth, on_node)
        ws.remove_edge(child)
    ws.rewind(mark)
    return normal_combine(x, y, z)


_KINDS = {0: EdgeKind.FREE, 1: EdgeKind.DANGLING, 2: EdgeKind.NORMAL}


def estimate_marginal(g: Graph, e: int, depth: int, on_node: Optional[TraceFn] = None) -> float:
    """Estimate the probability that a uniform random edge cover omits e.

    Deterministic: equal arguments give bit-identical results.  The
    optional ``on_node`` hook observes every computation-tree node
    (depth, edge, kind, branch) without affecting the value.
    """
    if not g.has_edge(e):
        raise KeyError(f"unknown edge id {e}")
    return _recurse(_Workspace(g), e, depth, on_node)


def chain_marginals(g: Graph, depth: int, on_node: Optional[TraceFn] = None) -> list[tuple[int, float]]:
    """(edge, estimate) for every edge of g in ascending id order.

    Each edge is estimated in the graph left after conditioning every
    earlier edge into the cover, so the result equals
    ``[(e, estimate_marginal(h, e, depth, on_node)) for h, e in
    elimination_chain(g)]`` bit for bit, node for node.  It runs on one
    workspace built once: after each estimate the edge is conditioned in
    place, which keeps the whole chain O(n + m) outside the recursion.
    """
    ws = _Workspace(g)
    out = []
    for e in g.edge_ids:
        out.append((e, _recurse(ws, e, depth, on_node)))
        ws.condition(e)
    return out
