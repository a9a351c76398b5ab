"""Ground-truth edge cover counting by a frontier dynamic program.

Edges are walked in ascending order of their larger endpoint.  A vertex
is open from its first edge in the walk until its last.  The state is
the set of covered open vertices, one bit per vertex at its index in
ascending vertex order, mapped to the number of edge subsets so far that
reach it.  Each edge is either skipped or taken; after a vertex's last
edge only the states covering it survive.  A walk whose frontier mask
holds at most w open vertices after any step keeps at most 2^w states;
the cap bounds w and is checked before the DP starts.  Counts are exact
integers and marginals exact rationals; no floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Graph

DEFAULT_FRONTIER_CAP = 24


class OracleSizeError(ValueError):
    """The DP's walk keeps more vertices open at once than the cap allows."""


class NoEdgeCoverError(ValueError):
    """The graph has no edge cover, so the marginal is undefined."""


def _walk(g: Graph, cap: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The DP's walk over g's non-free edges and each step's (take, done)
    bit masks: the vertices the edge covers, and those it closes.  The
    width is the most vertices the DP's frontier mask holds after any step."""
    ends = g._edges
    walk = sorted(filter(ends.get, ends), key=lambda e: ends[e][-1])
    last = {v: i for i, e in enumerate(walk) for v in ends[e]}  # each vertex's last step
    bit = {v: 1 << i for i, v in enumerate(g._adj)}
    steps = []
    frontier = width = 0
    for i, e in enumerate(walk):
        take = done = 0
        for v in ends[e]:
            take |= bit[v]
            if last[v] == i:
                done |= bit[v]
        frontier = (frontier | take) ^ done  # done is within take: the closed vertices leave
        width = max(width, frontier.bit_count())
        steps.append((take, done))
    if width > cap:
        raise OracleSizeError(f"oracle too large: a frontier of {width} vertices exceeds the cap of {cap}")
    return walk, steps


def _step(states: dict[int, int], take: int, done: int) -> dict[int, int]:
    """The DP's layer after one step: each state skips or takes the edge,
    and only states covering every vertex the step closes survive."""
    nxt: dict[int, int] = {}
    for s, c in states.items():
        for t in (s, s | take):
            if t & done == done:
                t ^= done
                nxt[t] = nxt.get(t, 0) + c
    return nxt


def exact_count(g: Graph, cap: int = DEFAULT_FRONTIER_CAP) -> int:
    """Number of edge subsets that cover every vertex.

    A dangling edge covers its single endpoint; a free edge opens no
    vertex and doubles the count.  ``OracleSizeError`` means the walk
    would keep more than ``cap`` vertices open at once.
    """
    if g.has_isolated_vertex():
        return 0  # no subset can cover it
    walk, steps = _walk(g, cap)
    states = {0: 1}
    for take, done in steps:
        states = _step(states, take, done)
    return states.get(0, 0) << (g.edge_count - len(walk))


def exact_count_without(g: Graph, cap: int = DEFAULT_FRONTIER_CAP) -> tuple[int, dict[int, int]]:
    """``(|EC(g)|, {e: |EC(g - e)|})`` from one forward and one backward pass.

    The forward pass keeps every layer F_i of ``exact_count``'s DP; the
    backward pass builds B_i(s), the number of ways to finish the walk
    from state s before step i, over F_i's states.  Covers of g - e are
    the walks that skip e's step, so ``|EC(g - e)|`` is the sum over s of
    F_i(s) times B_{i+1} of skip's successor of s.  A free edge's count is
    half the total.  Every forward layer is held until the backward pass,
    so memory is their sum, not ``exact_count``'s two layers.
    """
    if g.has_isolated_vertex():
        return 0, dict.fromkeys(g.edge_ids, 0)  # g - e keeps the isolated vertex
    walk, steps = _walk(g, cap)
    layers = [{0: 1}]
    for take, done in steps:
        layers.append(_step(layers[-1], take, done))
    free = g.edge_count - len(walk)
    count = layers[-1].get(0, 0) << free
    without = dict.fromkeys(g.edge_ids, count >> 1)  # a free edge's; the walk's edges are set below
    # A successor that leaves a closing vertex uncovered keeps that
    # vertex's bit, which no reachable state holds, so it reads B = 0.
    after = {0: 1}  # B at the walk's end
    for i in reversed(range(len(walk))):
        take, done = steps[i]
        skipped = 0
        before = {}
        for s, c in layers[i].items():
            b = after.get(s ^ done, 0)  # skip e
            skipped += c * b
            before[s] = b + after.get((s | take) ^ done, 0)  # or take it
        without[walk[i]] = skipped << free
        after = before
    return count, without


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
