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

The recursion never builds a subgraph.  It walks a live view of the
input graph (``_Workspace``): the graph's own immutable endpoint and
incidence maps plus one live flag per edge and per vertex.  A branch
clears the flags of what it removes and sets them again before it
returns, so the input is never written and there is no undo log.  The
same recursion over persistent subgraphs is kept only as the tests'
reference (``tests/reference.py``), which this one matches bit for bit.

``chain_marginals(g, depth)`` runs the same recursion for every edge of
the counter's elimination order on one shared workspace, conditioning
each edge in place (clearing its flags for good) once it is estimated.

``depth_sweep(g, e, max_depth)`` gives the estimates at every depth
0..max_depth.  Error enters only at truncated leaves (``depth <= 0``),
so once the tree at depth L has none, every deeper budget builds the
same tree and returns the same value bit for bit: the sweep stops
recursing there and repeats that value for the deeper depths.
"""

from __future__ import annotations

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


class _Workspace:
    """Live view of a graph for the recursion: the graph's own maps plus flags.

    ``ends`` (edge -> sorted endpoint tuple) and ``inc`` (vertex -> incident
    edge tuple, ascending by id) are the input ``Graph``'s immutable maps,
    shared and never written.  ``edge_live`` and ``vert_live`` say which
    edges and vertices are still present.  An edge's live endpoints are its
    static endpoints whose vertex is live, in ascending order, so a normal
    edge always reads back as (u, v) with u < v; a live vertex's live
    incident edges are the live entries of ``inc``, already in ascending id
    order.  The recursion clears the flags of each branch and sets them
    again before it returns.  ``truncated`` is set by every truncated leaf
    and never cleared by the recursion.  Not part of the public
    persistent-value contract.
    """

    __slots__ = ("ends", "inc", "edge_live", "vert_live", "truncated")

    def __init__(self, g: Graph):
        self.ends = g._edges
        self.inc = g._adj
        self.edge_live = dict.fromkeys(g._edges, True)
        self.vert_live = dict.fromkeys(g._vertices, True)
        self.truncated = False

    def live_ends(self, e: int) -> list[int]:
        vert_live = self.vert_live
        return [u for u in self.ends[e] if vert_live[u]]

    def condition(self, e: int) -> None:
        """Put e into the cover for good: drop it and detach its endpoints."""
        self.edge_live[e] = False
        for u in self.ends[e]:
            self.vert_live[u] = False


def _recurse(ws: _Workspace, e: int, depth: int, on_node: Optional[TraceFn]) -> float:
    if depth <= 0:
        ws.truncated = True
        if on_node is not None:
            on_node(depth, e, _KINDS[len(ws.live_ends(e))], "base")
        return 0.5
    vert_live = ws.vert_live
    ends = [u for u in ws.ends[e] if vert_live[u]]  # ws.live_ends(e), inlined on the hot path
    if not ends:
        if on_node is not None:
            on_node(depth, e, EdgeKind.FREE, "free")
        return 0.5

    inc = ws.inc
    edge_live = ws.edge_live
    if len(ends) == 1:
        if on_node is not None:
            on_node(depth, e, EdgeKind.DANGLING, "dangling")
        u = ends[0]
        others = [x for x in inc[u] if edge_live[x] and x != e]
        child_depth = depth_discount(depth, len(others))
        edge_live[e] = vert_live[u] = False
        children = []
        for child in others:
            children.append(_recurse(ws, child, child_depth, on_node))
            edge_live[child] = False
        for child in others:
            edge_live[child] = True
        edge_live[e] = vert_live[u] = True
        return dangling_combine(children)

    if on_node is not None:
        on_node(depth, e, EdgeKind.NORMAL, "normal")
    u, v = ends
    at_u = [x for x in inc[u] if edge_live[x] and x != e]
    at_v = [x for x in inc[v] if edge_live[x] and x != e]
    edge_live[e] = vert_live[u] = vert_live[v] = False

    x = 1.0
    for child in at_u:
        x *= _recurse(ws, child, depth, on_node)
        edge_live[child] = False
    y = 1.0
    for child in at_v:
        if not edge_live[child]:
            continue  # a parallel copy of e, conditioned away with u's edges; factor 1
        y *= _recurse(ws, child, depth, on_node)
        edge_live[child] = False
    for child in at_u:
        edge_live[child] = True
    for child in at_v:
        edge_live[child] = True
    z = 1.0
    for child in at_v:
        z *= _recurse(ws, child, depth, on_node)
        edge_live[child] = False
    for child in at_v:
        edge_live[child] = True
    edge_live[e] = vert_live[u] = vert_live[v] = True
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


def depth_sweep(g: Graph, e: int, max_depth: int) -> list[float]:
    """``[estimate_marginal(g, e, L) for L in range(max_depth + 1)]``, bit for bit.

    Estimates depth by depth on one workspace and stops at the first
    depth whose tree has no truncated leaf; that value is the estimate
    at every deeper depth too.
    """
    if not g.has_edge(e):
        raise KeyError(f"unknown edge id {e}")
    ws = _Workspace(g)
    out = []
    for depth in range(max_depth + 1):
        ws.truncated = False
        out.append(_recurse(ws, e, depth, None))
        if not ws.truncated:
            out += out[-1:] * (max_depth - depth)
            break
    return out


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
