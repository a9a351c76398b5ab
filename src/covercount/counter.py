"""Approximate edge-cover counting via a telescoping product of marginals.

Walking the edges in ascending id order, each one contributes a factor
(1 - p), where p estimates its absence marginal in the graph left after
conditioning all earlier edges into the cover (drop the edge, detach
whichever of its endpoints still exist); the count is the reciprocal of
the product.  A depth budget derived from the edge count and the
requested accuracy makes the result a (1 +/- eps) approximation of the
true count.

``estimate_count`` runs this product on one estimator workspace, built
once: each edge is estimated, then conditioned in place
(``estimator.chain_marginals``).  ``elimination_chain`` spells out the
same sequence as persistent graphs; it is the readable reference that
the tests compare the fast path against, not part of it, and the
package does not export it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# elimination_chain and this estimate_marginal re-export are not on the
# counting path; both stay module attributes because perfbench's tracer
# wraps counter.elimination_chain and counter.estimate_marginal by name.
# Over elimination_chain(g), estimate_marginal gives chain_marginals(g)
# exactly, which the tests check.
from .estimator import TraceFn, chain_marginals, estimate_marginal  # noqa: F401
from .graph import Graph


def _check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {eps!r}")


def depth_for(m: int, eps: float) -> int:
    """Depth budget ceil(log2(m) + log2(6/eps)) for an m-edge instance.

    The analysis allows a real-valued budget; rounding up only tightens
    the guarantee.
    """
    if m < 1:
        raise ValueError(f"edge count must be positive, got {m}")
    _check_epsilon(eps)
    return math.ceil(math.log2(m) + math.log2(6.0 / eps))


def elimination_chain(g: Graph) -> list[tuple[Graph, int]]:
    """(working graph, edge) pairs in ascending edge-id order.

    The first working graph is g itself; each later one drops the
    previous edge and detaches its remaining endpoints (one for a
    dangling edge, none for a free one).  This is the reference form of
    the conditioning: ``estimate_count`` does not build it, but gets the
    same marginals by conditioning one workspace in place.  It costs
    O(m * (n + m)) for the m graph copies.
    """
    out = []
    cur = g
    for e in g.edge_ids:
        out.append((cur, e))
        ends = cur.endpoints(e)
        cur = cur.remove_edge(e)
        for v in ends:
            cur = cur.detach_vertex(v)
    return out


@dataclass(frozen=True)
class ApproxCount:
    """Approximate count with its natural log and the per-edge estimates."""

    value: float
    log_value: float
    depth_used: int
    marginals: tuple[tuple[int, float], ...]


def estimate_count(g: Graph, eps: float, on_node: Optional[TraceFn] = None) -> ApproxCount:
    """Estimate the number of edge covers to relative accuracy eps.

    A graph with an isolated vertex has no covers and yields 0; the empty
    graph has exactly the empty cover and yields 1.  A count past float
    range has value inf; its log_value stays finite.
    """
    _check_epsilon(eps)
    if g.has_isolated_vertex():
        return ApproxCount(0.0, -math.inf, 0, ())
    m = g.edge_count
    if m == 0:
        return ApproxCount(1.0, 0.0, 0, ())

    depth = depth_for(m, eps)
    marginals = tuple(chain_marginals(g, depth, on_node))
    ps = [p for _, p in marginals]

    # log-space sum is the robust record; the direct product (exact while it
    # stays normal, every factor being >= 1/2) preserves identities such as
    # free-edge doubling bit-for-bit.
    log_value = -math.fsum(math.log1p(-p) for p in ps)
    prod = 1.0
    for p in ps:
        prod *= 1.0 - p
    # Past float range 1/prod is inf.  prod underflows to 0 only below
    # about 5e-324, a count far past float range, so that is inf too.
    value = 1.0 / prod if prod > 0.0 else math.inf
    return ApproxCount(value, log_value, depth, marginals)
