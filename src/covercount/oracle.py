"""Ground-truth edge cover counting by a frontier dynamic program.

Edges are walked in ascending order of their larger endpoint.  A vertex
is open from its first edge in the walk until its last.  The state is
the set of covered open vertices, one bit per vertex at its index in
sorted vertex order, mapped to the number of edge subsets so far that
reach it.  Each edge is either skipped or taken; after a vertex's last
edge only the states covering it survive.  A walk that keeps at most w
vertices open at once holds at most 2^w states; the cap bounds w and is
checked before the DP starts.  Counts are exact integers and marginals
exact rationals; no floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .graph import Graph

DEFAULT_FRONTIER_CAP = 24


class OracleSizeError(ValueError):
    """The DP's walk keeps more vertices open at once than the cap allows."""


class NoEdgeCoverError(ValueError):
    """The graph has no edge cover, so the marginal is undefined."""


def exact_count(g: Graph, cap: int = DEFAULT_FRONTIER_CAP) -> int:
    """Number of edge subsets that cover every vertex.

    A dangling edge covers its single endpoint; a free edge opens no
    vertex and doubles the count.  ``OracleSizeError`` means the walk
    would keep more than ``cap`` vertices open at once.
    """
    if g.has_isolated_vertex():
        return 0  # no subset can cover it
    walk = sorted(filter(None, map(g.endpoints, g.edge_ids)), key=itemgetter(-1))
    last: dict[int, int] = {}  # each vertex's last step
    net = [0] * len(walk)  # vertices each step opens, less those it closes
    for i, ends in enumerate(walk):
        for v in ends:
            net[i] += v not in last
            last[v] = i
    for i in last.values():
        net[i] -= 1
    width = max(accumulate(net), default=0)  # most vertices open at once
    if width > cap:
        raise OracleSizeError(f"oracle too large: a frontier of {width} vertices exceeds the cap of {cap}")
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}

    states = {0: 1}
    for i, ends in enumerate(walk):
        take = sum(bit[v] for v in ends)
        done = sum(bit[v] for v in ends if last[v] == i)  # vertices leaving the frontier
        nxt: dict[int, int] = {}
        for s, c in states.items():
            for t in (s, s | take):
                if t & done == done:
                    t ^= done
                    nxt[t] = nxt.get(t, 0) + c
        states = nxt
    return states.get(0, 0) << (g.edge_count - len(walk))


def exact_marginal(g: Graph, e: int) -> Fraction:
    """Exact probability that a uniformly random edge cover omits edge e.

    Covers of g that omit e are in bijection with covers of g minus e,
    so the marginal is ``|EC(g - e)| / |EC(g)|``.
    """
    denom = exact_count(g)
    if denom == 0:
        raise NoEdgeCoverError("graph has no edge covers; marginal undefined")
    num = exact_count(g.remove_edge(e))
    return Fraction(num, denom)
