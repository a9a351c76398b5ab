"""Persistent-graph reference form of the truncated recursion.

``covercount.estimator`` runs the recursion over flags on one live
workspace and never builds a subgraph.  This module spells the same
recursion out over persistent ``Graph`` values: the chain subinstances
of a dangling or normal edge, and ``reference_marginal``, which the
tests pin the production recursion against bit for bit.
"""

from __future__ import annotations

import math

from covercount.estimator import dangling_combine, depth_discount, normal_combine
from covercount.graph import EdgeKind, Graph


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


def reference_marginal(g: Graph, e: int, depth: int) -> float:
    """Plain persistent-graph transcription of the truncated recursion.

    Independent of the workspace-based implementation; used to pin the
    production recursion to the subinstance builders above.
    """
    if depth <= 0:
        return 0.5
    kind = g.classify(e)
    if kind is EdgeKind.FREE:
        return 0.5
    if kind is EdgeKind.DANGLING:
        (u,) = g.endpoints(e)
        d = len(g.incident_edges(u)) - 1
        child_depth = depth_discount(depth, d)
        return dangling_combine(
            [reference_marginal(sub, child, child_depth) for sub, child in dangling_subinstances(g, e)]
        )
    first, second, third = normal_subinstances(g, e)
    x = math.prod(reference_marginal(sub, child, depth) for sub, child in first)
    y = math.prod(reference_marginal(sub, child, depth) for sub, child in second)
    z = math.prod(reference_marginal(sub, child, depth) for sub, child in third)
    return normal_combine(x, y, z)
