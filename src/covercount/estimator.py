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

The recursion has two parts.  The root dispatch (``_recurse``) takes
every case above and runs once per marginal, and once more for each
child of a normal root.  Below the root every node is dangling or free,
because its parent has already detached the vertex it shared with its
siblings; the kernel ``_dangling`` runs all of those nodes.  A parent
answers its leaf children itself, with no call: a truncated child is
1/2, so a node whose children are all truncated returns a value looked
up by their number, and a free child is 1/2 too.  Only a dangling child
with budget left costs a call.  The trace hook still sees every leaf,
in visiting order, and traced and untraced runs take the same path.  The
kernel folds each child's value, one it made and so in [0, 1/2], into a
running product in ``dangling_combine``'s order with no range check, so
a node's value is ``dangling_combine`` of its children's, bit for bit.
Both frames filter live ends and siblings with plain loops, not
comprehensions: before Python 3.12 a comprehension is a function object
and a frame per evaluation, and each local it reads becomes a closure
cell for the whole enclosing frame.

The recursion never builds a subgraph.  It walks a live view of the
input graph (``_Workspace``), built once per call: edges and vertices
renumbered 0..m-1 and 0..n-1 in ascending id order, with the endpoint
and incidence tables and one live flag per edge and per vertex held in
lists indexed by those numbers.  The renumbering keeps every order the
recursion reads, so it visits the same tree as over the original ids.
The public functions map the caller's edge id in and return marginals
under the original ids.  The trace hook ``on_node`` is workspace state,
set at build time, and sees those ids directly: each node calls it once
with its edge's id.  Every node, root or kernel, clears its own edge's
flag on entry and returns with it still cleared, for its caller to drop
or set again; every other flag a node clears it sets again before it
returns, so there is no undo log (see ``_Workspace``).  The kernel reads
each child's other end from one XOR table, ``far``, with no endpoint
probe.  The same recursion over persistent subgraphs is kept only as the
tests' reference (``tests/reference.py``), which this one matches bit for
bit.

``chain_marginals(g, depth)`` runs the same recursion for every edge of
the counter's elimination order on one shared workspace, conditioning
each edge in place (clearing its flags for good) once it is estimated.
A normal root's first X or Z child that is the next edge is the next
step's whole tree (``_ahead``): that step takes its kept value and node
count and replays its hook calls, without walking it again.  The node
count is the size of the computation trees, one per ``on_node`` call,
hook or not, walked or replayed.

``depth_sweep(g, e, max_depth)`` gives the estimates at every depth
0..max_depth.  Error enters only at truncated leaves (``depth <= 0``),
so once the tree at depth L has none, every deeper budget builds the
same tree and returns the same value bit for bit: the sweep stops
recursing there and repeats that value for the deeper depths.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Optional

from .graph import KINDS, EdgeKind, Graph

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
    # one chained comparison; the loop only names the input that failed it
    if not 0.0 <= x <= 1.0 >= y >= 0.0 <= z <= 1.0:
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


class _Workspace:
    """Live view of a graph for the recursion, renumbered into lists.

    Edges and vertices are renumbered 0..m-1 and 0..n-1 in ascending id
    order, and every field is a list indexed by those numbers: ``ends``
    (edge -> sorted endpoint tuple), ``far`` (edge -> the XOR of its first
    and last endpoint, 0 for a free edge), ``inc`` (vertex -> incident
    edge tuple, ascending), and the live flags ``edge_live`` and
    ``vert_live``.  For an endpoint u of edge x, ``far[x] ^ u`` is x's
    other endpoint, or u itself if x is dangling.
    The renumbering is monotone, so every order the recursion reads is
    the input's: an edge's live endpoints are its static endpoints whose
    vertex is live, in ascending order, so a normal edge always reads back
    as (u, v) with u < v; a live vertex's live incident edges are the live
    entries of ``inc``, already in ascending order.  ``ids`` maps a number
    back to its edge id.  ``on_node``, the run's trace hook or None, is set
    at build time; each frame reads it once and calls it with ``ids[e]``.
    One flag rule holds for every node, in ``_recurse`` or ``_dangling``:
    it clears its own edge e's flag on entry, so its sibling scans skip e,
    and returns with e still cleared; its caller drops e next or sets it
    again.  Every other flag a node clears it sets again before it
    returns.  Leaf children that the kernel answers in its own loop are
    never entered, so their flags never change: only live vertices' edges
    are read, so a free child, whose ends are all dead, is left live.
    ``truncated`` is set whenever a truncated leaf is reached, by the root
    dispatch for a root at depth <= 0 and by the kernel for a node whose
    children are all truncated, and is never cleared by the recursion.
    ``nodes`` counts the computation-tree nodes, one per ``on_node`` call a
    hook would see, walked or replayed.  ``ahead`` is None or the
    ``(number, depth, value, nodes, calls)`` that ``_ahead`` last kept,
    ``calls`` empty without a hook.
    """

    __slots__ = ("ids", "ends", "far", "inc", "edge_live", "vert_live", "truncated", "nodes", "on_node", "ahead")

    def __init__(self, g: Graph, on_node: Optional[TraceFn] = None):
        emap = g._edges
        adj = g._adj
        self.ids = ids = list(emap)
        verts = list(adj)
        ends = list(emap.values())
        inc = list(adj.values())
        # distinct ids whose largest is k - 1 are 0..k-1 already: no translation
        if verts and verts[-1] != len(verts) - 1:
            vert_no = dict(zip(verts, range(len(verts)))).__getitem__
            ends = [tuple(map(vert_no, pair)) for pair in ends]
        if ids and ids[-1] != len(ids) - 1:
            edge_no = dict(zip(ids, range(len(ids)))).__getitem__
            inc = [tuple(map(edge_no, row)) for row in inc]
        self.ends = ends
        self.far = [p[0] ^ p[-1] if p else 0 for p in ends]
        self.inc = inc
        self.edge_live = [True] * len(ids)
        self.vert_live = [True] * len(verts)
        self.truncated = False
        self.nodes = 0
        self.on_node = on_node
        self.ahead = None

    def number(self, e: int) -> int:
        """The number of edge id e; ``KeyError`` if e is not an edge of the graph."""
        ids = self.ids
        i = bisect_left(ids, e)
        if i == len(ids) or ids[i] != e:
            raise KeyError(f"unknown edge id {e}")
        return i

    def condition(self, e: int) -> None:
        """Put edge number e into the cover for good, the live twin of ``Graph.condition``."""
        self.edge_live[e] = False
        for u in self.ends[e]:
            self.vert_live[u] = False


def _recurse(ws: _Workspace, e: int, depth: int) -> float:
    # Root dispatch: every case, once per marginal and once per child of a
    # normal root.  Every dangling node, root or not, runs in _dangling.
    ws.nodes += 1
    edge_live = ws.edge_live
    edge_live[e] = False  # left cleared, as in _dangling: its caller drops e next or sets it again
    vert_live = ws.vert_live
    ends = []
    for w in ws.ends[e]:
        if vert_live[w]:
            ends.append(w)
    on_node = ws.on_node
    if depth <= 0:
        ws.truncated = True
        if on_node is not None:
            on_node(depth, ws.ids[e], KINDS[len(ends)], "base")
        return 0.5
    if not ends:
        if on_node is not None:
            on_node(depth, ws.ids[e], EdgeKind.FREE, "free")
        return 0.5
    if len(ends) == 1:
        return _dangling(ws, e, ends[0], depth)

    if on_node is not None:
        on_node(depth, ws.ids[e], EdgeKind.NORMAL, "normal")
    inc = ws.inc
    u, v = ends
    at_u = []
    for x in inc[u]:
        if edge_live[x]:
            at_u.append(x)
    at_v = []
    for x in inc[v]:
        if edge_live[x]:
            at_v.append(x)
    vert_live[u] = vert_live[v] = False

    x = 1.0  # each child comes back cleared
    for child in at_u:
        x *= _ahead(ws, child, depth) if child == e + 1 else _recurse(ws, child, depth)
    y = 1.0
    for child in at_v:
        if not edge_live[child]:
            continue  # a parallel copy of e, conditioned away with u's edges; factor 1
        y *= _recurse(ws, child, depth)
    for child in at_u:
        edge_live[child] = True
    for child in at_v:
        edge_live[child] = True
    z = 1.0
    for child in at_v:
        z *= _ahead(ws, child, depth) if child == e + 1 else _recurse(ws, child, depth)
    for child in at_v:
        edge_live[child] = True
    vert_live[u] = vert_live[v] = True
    return normal_combine(x, y, z)


def _ahead(ws: _Workspace, e: int, depth: int) -> float:
    # _recurse for a normal root's X or Z child e, the root's edge + 1, keeping its value, node
    # count and hook calls for chain_marginals.  At chain step e - 1 every live edge is numbered
    # above e - 1, so e is the first X or Z child: it runs with only the root's edge and ends
    # cleared, as condition(e - 1) leaves them, and at the step's depth, so its tree is step e's.
    nodes = ws.nodes
    on_node = ws.on_node
    calls = []
    if on_node is not None:

        def record(*call):
            calls.append(call)
            on_node(*call)

        ws.on_node = record
    value = _recurse(ws, e, depth)
    ws.on_node = on_node
    ws.ahead = (e, depth, value, ws.nodes - nodes, calls)
    return value


def _dangling(ws: _Workspace, e: int, u: int, depth: int) -> float:
    # Kernel for a dangling edge e at its one live endpoint u, depth > 0.
    # Each child has lost u, so it is free or dangling at its other
    # endpoint; leaf children (truncated or free) are answered here
    # without a call.
    on_node = ws.on_node
    if on_node is not None:
        on_node(depth, ws.ids[e], EdgeKind.DANGLING, "dangling")
    edge_live = ws.edge_live
    vert_live = ws.vert_live
    edge_live[e] = False  # left cleared: its caller drops e next or sets it again
    others = []
    for x in ws.inc[u]:
        if edge_live[x]:
            others.append(x)
    k = len(others)
    ws.nodes += k  # its caller counted e itself
    child_depth = depth - (_STEPS[k] if k < _TABLE_SIZE else _ceil_log6(k + 1))
    if child_depth <= 0:
        # k >= 1 here, since depth > 0 and _STEPS[0] == 0
        ws.truncated = True
        if on_node is not None:
            # u is still live; a child dangles at its other end w if that is another live vertex
            for child in others:
                w = ws.far[child] ^ u
                on_node(child_depth, ws.ids[child], KINDS[w != u and vert_live[w]], "base")
        return _LEAVES[k] if k < _TABLE_SIZE else 0.5

    far = ws.far
    vert_live[u] = False
    prod = 1.0  # dangling_combine's product, in the same order
    for child in others:
        # the child's other end, or u itself (dead) if it dangles at u; a called child comes
        # back cleared, so a later sibling at the same end skips it
        w = far[child] ^ u
        if vert_live[w]:
            prod *= _dangling(ws, child, w, child_depth)
        else:
            if on_node is not None:
                on_node(child_depth, ws.ids[child], EdgeKind.FREE, "free")
            prod *= 0.5
    for child in others:
        edge_live[child] = True
    vert_live[u] = True
    return (1.0 - prod) / (2.0 - prod)


# Crossing a degree-(k + 1) vertex costs ceil(log6(k + 1)) units of depth, which makes the budget
# polynomial without a degree bound.  Per sibling count k < _TABLE_SIZE: that cost and the value of a
# dangling node whose k children are all truncated leaves; past the table that value is 1/2 exactly.
_TABLE_SIZE = 64
_STEPS = [_ceil_log6(k + 1) for k in range(_TABLE_SIZE)]
_LEAVES = [dangling_combine([0.5] * k) for k in range(_TABLE_SIZE)]


def estimate_marginal(g: Graph, e: int, depth: int, on_node: Optional[TraceFn] = None) -> float:
    """Estimate the probability that a uniform random edge cover omits e.

    Deterministic: equal arguments give bit-identical results.  The
    optional ``on_node`` hook observes every computation-tree node
    (depth, edge, kind, branch) without affecting the value.
    """
    ws = _Workspace(g, on_node)
    return _recurse(ws, ws.number(e), depth)


def depth_sweep(g: Graph, e: int, max_depth: int) -> list[float]:
    """``[estimate_marginal(g, e, L) for L in range(max_depth + 1)]``, bit for bit.

    Estimates depth by depth on one workspace and stops at the first
    depth whose tree has no truncated leaf; that value is the estimate
    at every deeper depth too.
    """
    ws = _Workspace(g)
    e = ws.number(e)
    out = []
    for depth in range(max_depth + 1):
        ws.truncated = False
        out.append(_recurse(ws, e, depth))
        if not ws.truncated:
            out += out[-1:] * (max_depth - depth)
            break
    return out


def chain_marginals(
    g: Graph, depth: int, on_node: Optional[TraceFn] = None
) -> tuple[list[tuple[int, float]], int]:
    """(edge, estimate) for every edge of g in ascending id order, and the node count.

    Each edge is estimated in the graph left after conditioning every
    earlier edge into the cover, so the result equals
    ``[(e, estimate_marginal(h, e, depth, on_node)) for h, e in
    elimination_chain(g)]`` bit for bit, node for node.  It runs on one
    workspace built once: after each estimate the edge is conditioned in
    place, which keeps the whole chain O(n + m) outside the recursion.  A
    step that the previous root kept (``_ahead``) is replayed, not walked.
    """
    ws = _Workspace(g, on_node)
    out = []
    for i, e in enumerate(ws.ids):
        ahead, ws.ahead = ws.ahead, None
        if ahead is not None and ahead[:2] == (i, depth):
            _, _, p, nodes, calls = ahead
            ws.nodes += nodes
            for call in calls:
                on_node(*call)
        else:
            p = _recurse(ws, i, depth)
        out.append((e, p))
        ws.condition(i)
    return out, ws.nodes
