"""Ground-truth edge cover counting by a frontier dynamic program.

Edges are walked in ascending order of their larger endpoint.  The state
is the set of covered frontier vertices (seen, with incident edges still
to come), one bit per vertex at its index in sorted vertex order, mapped
to the number of edge subsets so far that reach it.  Each edge is either
skipped or taken; after a vertex's last edge only the states covering it
survive.  A state is fixed by the subset of edges taken, so the DP holds
at most 2^m states over m edges, and the edge cap bounds the work.
Counts are exact integers and marginals exact rationals; no floating
point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .graph import Graph

DEFAULT_EDGE_CAP = 24


class OracleSizeError(ValueError):
    """The instance is over the oracle's edge cap."""


class NoEdgeCoverError(ValueError):
    """The graph has no edge cover, so the marginal is undefined."""


def exact_count(g: Graph, cap: int = DEFAULT_EDGE_CAP) -> int:
    """Number of edge subsets that cover every vertex.

    A dangling edge covers its single endpoint; a free edge constrains
    nothing and doubles the count, so free edges shift the result.
    """
    m = g.edge_count
    if m > cap:
        raise OracleSizeError(f"oracle too large: {m} edges exceeds the cap of {cap}")
    if g.has_isolated_vertex():
        return 0  # no subset can cover it
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
    walk = sorted(filter(None, map(g.endpoints, g.edge_ids)), key=itemgetter(-1))
    last = {v: i for i, ends in enumerate(walk) for v in ends}  # each vertex's last step

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
    return states.get(0, 0) << (m - len(walk))


def exact_marginal(g: Graph, e: int, cap: int = DEFAULT_EDGE_CAP) -> Fraction:
    """Exact probability that a uniformly random edge cover omits edge e.

    Covers of g that omit e are in bijection with covers of g minus e,
    so the marginal is ``|EC(g - e)| / |EC(g)|``.
    """
    denom = exact_count(g, cap)
    if denom == 0:
        raise NoEdgeCoverError("graph has no edge covers; marginal undefined")
    num = exact_count(g.remove_edge(e), cap)
    return Fraction(num, denom)
