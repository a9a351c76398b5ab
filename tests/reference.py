"""Persistent-graph reference form of the truncated recursion.

``covercount.estimator`` runs the recursion over flags on one live
workspace and never builds a subgraph.  This module spells the same
recursion out over persistent ``Graph`` values: the chain subinstances
of a dangling or normal edge, and ``reference_marginal``, which the
tests pin the production recursion against bit for bit and, through
its ``on_node`` hook, node for node.  Its truncated leaves take a
mode's values: in exact rationals its lo and hi modes enclose the true
marginal, the upper/lower-bound form of correlation decay.

``complete_multigraph_count`` and ``complete_bipartite_count`` are
exact edge-cover counts of complete families, which no degree bound and
no frontier cap limit: inclusion-exclusion over the uncovered vertices,
collapsed by symmetry.

It also keeps ``sensitivity_bounds_suite`` in its ``randrange`` form,
which the tests pin ``covercount.verify``'s inlined draws against,
draw for draw, and ``frontier_width``, the oracle's frontier width
counted as vertices opened less vertices closed, which the tests pin
the oracle's cap against.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import accumulate
from math import comb
from typing import Optional

from covercount.estimator import ContractViolationError, TraceFn, dangling_combine, normal_combine
from covercount.graph import EdgeKind, Graph
from covercount.verify import FLOAT_SLACK, SuiteResult


def depth_discount(depth: int, d: int) -> int:
    """Remaining budget after branching over d sibling edges.

    The paper charges ceil(log6(d + 1)) units for crossing a degree-(d + 1)
    vertex.  Spelled here in integers apart from the estimator's own table
    and fallback, which the tests check against it.  May go at or below
    zero; the base case absorbs that.
    """
    cost = 0
    while 6**cost < d + 1:
        cost += 1
    return depth - cost


def dangling_subinstances(g: Graph, e: int) -> list[tuple[Graph, int]]:
    """Chain of (subgraph, sibling edge) pairs for a dangling edge e at u.

    The first subgraph is g conditioned on e (e dropped, u detached); each
    later one additionally drops the previous sibling.  Every sibling is
    dangling or free in its subgraph, never normal, since all of them lost
    the endpoint u.
    """
    if g.classify(e) is not EdgeKind.DANGLING:
        raise ValueError(f"edge {e} is not dangling")
    (u,) = g.endpoints(e)
    others = [x for x in g.incident_edges(u) if x != e]
    cur = g.condition(e)
    out = []
    for child in others:
        out.append((cur, child))
        cur = cur.remove_edge(child)
    return out


def normal_subinstances(
    g: Graph, e: int
) -> tuple[list[tuple[Graph, int]], list[tuple[Graph, int]], list[tuple[Graph, int]]]:
    """The three chain families feeding the X, Y, Z products for normal e.

    All start from the core graph, g conditioned on e (e dropped, both
    endpoints detached).  The first family walks u's other edges, the
    third walks v's other edges, and the second walks v's other edges
    after u's have all been dropped.  A parallel copy of e sits in both
    endpoint lists; it shows up in the first and third families, and the
    second family skips it because it is already conditioned away (its
    factor is 1).
    """
    if g.classify(e) is not EdgeKind.NORMAL:
        raise ValueError(f"edge {e} is not normal")
    u, v = g.endpoints(e)
    at_u = [x for x in g.incident_edges(u) if x != e]
    at_v = [x for x in g.incident_edges(v) if x != e]
    core = g.condition(e)

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


def reference_marginal(g: Graph, e: int, depth: int, on_node: Optional[TraceFn] = None, a=0.5, b=0.5):
    """The truncated recursion in mode (a, b), over persistent subgraphs.

    Independent of the workspace-based implementation; used to pin the
    production recursion to the subinstance builders above.  ``on_node``,
    if given, receives (depth, edge, kind, branch) for every node in the
    order the recursion visits them: a node before its children, and a
    normal node's X family before its Y family before its Z family.

    a is the value a truncated node takes in this node's mode, b the one
    in its children's.  A dangling node passes (b, a) to its children; a
    normal root passes (b, a) to its X and Z families and (a, b) to its Y
    family.  The dangling combinator decreases in its product and
    ``normal_combine`` decreases in x and z and increases in y, so in
    ``Fraction`` arithmetic mode (0, 1/2) is a lower and mode (1/2, 0) an
    upper bound on the true marginal.  In a bound mode (a != b) a normal
    root with an endpoint that has no other edge is forced: e lies in
    every cover, so it is 0; left to the combinator, its Y and Z ends
    would mix over one chain.  The constants 1/2 and 1 take a's type, and
    every operation keeps the combinators' order, so the default float
    mode (0.5, 0.5) is the point recursion of ``estimate_marginal``, bit
    for bit.
    """
    kind = g.classify(e)
    if depth <= 0:
        if on_node is not None:
            on_node(depth, e, kind, "base")
        return a
    if on_node is not None:
        on_node(depth, e, kind, kind.value)  # the branch is named after the kind
    one = type(a)(1)
    if kind is EdgeKind.FREE:
        return one / 2
    if kind is EdgeKind.DANGLING:
        (u,) = g.endpoints(e)
        child_depth = depth_discount(depth, len(g.incident_edges(u)) - 1)
        prod = one
        for sub, child in dangling_subinstances(g, e):
            prod *= reference_marginal(sub, child, child_depth, on_node, b, a)
        return (one - prod) / (one + one - prod)
    first, second, third = normal_subinstances(g, e)
    if a != b and not (first and third):
        return 0 * one
    x = y = z = one
    for sub, child in first:
        x *= reference_marginal(sub, child, depth, on_node, b, a)
    for sub, child in second:
        y *= reference_marginal(sub, child, depth, on_node, a, b)
    for sub, child in third:
        z *= reference_marginal(sub, child, depth, on_node, b, a)
    denom = one + one + (x * y - x - z)
    if denom < one:
        raise ContractViolationError(f"denominator {denom!r} below 1 at edge {e}")
    return one - one / denom


def complete_multigraph_count(n: int, t: int = 1, d: int = 0, f: int = 0) -> int:
    """Edge covers of K_n with t parallel edges per pair, d dangling edges
    at each vertex and f free edges.

    Leaving a set of j vertices uncovered leaves free choice over the
    edges with no end in it: t * C(n - j, 2) normal, d * (n - j) dangling.
    """
    return 2**f * sum((-1) ** j * comb(n, j) * 2 ** (t * comb(n - j, 2) + d * (n - j)) for j in range(n + 1))


def complete_bipartite_count(a: int, b: int) -> int:
    """Edge covers of K_{a,b}: inclusion-exclusion over i uncovered vertices
    on one side and j on the other, leaving (a - i)(b - j) edges free."""
    return sum(
        (-1) ** (i + j) * comb(a, i) * comb(b, j) * 2 ** ((a - i) * (b - j))
        for i in range(a + 1)
        for j in range(b + 1)
    )


def sensitivity_bounds_suite(seed: int, trials: int) -> list[SuiteResult]:
    """Lipschitz bounds of both combinators on random in-range inputs.

    Every trial counts toward pass/fail.  The reported worst margin
    (difference minus bound) is taken over trials with a positive bound
    only: a trial with empty or equal inputs has difference and bound 0,
    so it would pin the margin at 0 and hide every other trial's.  It is
    -inf when no trial had a positive bound.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # 0.5 * draw() is rng.uniform(0.0, 0.5) and randrange(9) is
    # randint(0, 8), draw for draw, without their Python-level frames
    rng = random.Random(seed)
    draw = rng.random
    worst_margin_f = -math.inf
    ok_f = True
    for _ in range(trials):
        d = rng.randrange(9)
        xs = [0.5 * draw() for _ in range(d)]
        xhat = [0.5 * draw() for _ in range(d)]
        eps = max(map(abs, map(operator.sub, xs, xhat)), default=0.0)
        bound = min(0.5, d * 0.5 ** (d - 1)) * eps
        diff = abs(dangling_combine(xhat) - dangling_combine(xs))
        if bound > 0.0:
            worst_margin_f = max(worst_margin_f, diff - bound)
        if diff > bound + FLOAT_SLACK:
            ok_f = False

    worst_margin_g = -math.inf
    ok_g = True
    for _ in range(trials):
        d1 = rng.randrange(9)
        d2 = rng.randrange(9)
        xs = [0.5 * draw() for _ in range(d1)]
        xhat = [0.5 * draw() for _ in range(d1)]
        ys = [0.5 * draw() for _ in range(d2)]
        yhat = [0.5 * draw() for _ in range(d2)]
        if d1 == 0:
            # with no edges on the first side, the second and third chains
            # coincide, so their products are coupled
            zs, zhat = ys, yhat
        else:
            zs = [0.5 * draw() for _ in range(d2)]
            zhat = [0.5 * draw() for _ in range(d2)]
        eps = max(map(abs, map(operator.sub, xs + ys + zs, xhat + yhat + zhat)), default=0.0)
        diff = abs(
            normal_combine(math.prod(xhat), math.prod(yhat), math.prod(zhat))
            - normal_combine(math.prod(xs), math.prod(ys), math.prod(zs))
        )
        bound = 3.0 * eps
        if bound > 0.0:
            worst_margin_g = max(worst_margin_g, diff - bound)
        if diff > bound + FLOAT_SLACK:
            ok_g = False

    return [
        SuiteResult("dangling-combine-sensitivity", ok_f, f"trials={trials} worst_margin={worst_margin_f:.3e}"),
        SuiteResult("normal-combine-sensitivity", ok_g, f"trials={trials} worst_margin={worst_margin_g:.3e}"),
    ]


def frontier_width(g: Graph) -> int:
    """The most vertices the oracle's walk keeps open at once, counted
    step by step as the vertices each step opens less those it closes."""
    ends = {e: g.endpoints(e) for e in g.edge_ids}
    walk = sorted(filter(ends.get, ends), key=lambda e: ends[e][-1])
    last: dict[int, int] = {}  # each vertex's last step
    net = [0] * len(walk)  # vertices each step opens, less those it closes
    for i, e in enumerate(walk):
        for v in ends[e]:
            net[i] += v not in last
            last[v] = i
    for i in last.values():
        net[i] -= 1
    return max(accumulate(net), default=0)  # most vertices open at once
