"""Oracle-vs-estimator verification suites behind the `verify` command.

Each suite sweeps a seeded corpus (every labeled simple graph on up to 4
vertices, plus seeded random multigraphs with dangling and free edges)
and reports its worst observed error against the guaranteed bound.  The
oracle counts each corpus graph, and each of its edge-deleted graphs,
once; the suites share those counts as ``(graph, count, without)``
triples, where ``without[e]`` is the count of the graph minus edge e.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .counter import estimate_count

# estimate_marginal is not called here (the sweep uses depth_sweep), but
# perfbench's tracer wraps verify.estimate_marginal by name.
from .estimator import dangling_combine, depth_sweep, estimate_marginal, normal_combine  # noqa: F401
from .generate import random_multigraph
from .graph import EdgeKind, Graph
from .oracle import exact_count, exact_marginal

FLOAT_SLACK = 1e-9
HALF_SLACK = 1e-12
MAX_DEPTH = 12
SMALL_GRAPH_VERTICES = 4


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def exhaustive_small_graphs() -> list[Graph]:
    """Every labeled simple graph on 1..SMALL_GRAPH_VERTICES vertices."""
    out = []
    for n in range(1, SMALL_GRAPH_VERTICES + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            out.append(Graph(range(n), list(enumerate(chosen))))
    return out


def verification_corpus(max_edges: int, seed: int, instances: int) -> list[Graph]:
    corpus = exhaustive_small_graphs()
    for i in range(instances):
        corpus.append(random_multigraph(seed * 1_000_003 + i, max_edges=max_edges))
    return [g for g in corpus if g.edge_count <= max_edges]


def marginal_suites(counted) -> list[SuiteResult]:
    """The decay-bound, dangling/free decay-bound and half-bound suites.

    One streaming pass over every edge of every covered corpus graph feeds
    all three; each exact marginal is ``|EC(g - e)| / |EC(g)|``.  Every
    depth 0..MAX_DEPTH is checked; ``depth_sweep`` reuses a settled
    depth's value for the deeper ones.
    """
    worst = -1.0
    worst_bound = 0.0
    worst_sharp = -1.0
    worst_sharp_bound = 0.0
    hi = 0.0
    lo = 0.0
    ok = True
    ok_sharp = True
    ok_half = True
    for g, z, without in counted:
        if z == 0:
            continue
        for e in g.edge_ids:
            exact = Fraction(without[e], z)
            sharp = g.classify(e) is not EdgeKind.NORMAL
            if exact < 0 or exact * 2 > 1:
                ok_half = False
            for L, est in enumerate(depth_sweep(g, e, MAX_DEPTH)):
                err = abs(est - float(exact))
                bound = 3.0 * 0.5 ** (L + 1)
                if err > worst:
                    worst, worst_bound = err, bound
                if err > bound + FLOAT_SLACK:
                    ok = False
                if sharp:
                    bound1 = 0.5 ** (L + 1)
                    if err > worst_sharp:
                        worst_sharp, worst_sharp_bound = err, bound1
                    if err > bound1 + FLOAT_SLACK:
                        ok_sharp = False
                hi = max(hi, est)
                lo = min(lo, est)
                if not 0.0 <= est <= 0.5 + HALF_SLACK:
                    ok_half = False
    return [
        SuiteResult("decay-bound", ok, f"worst_err={worst:.3e} bound_at_worst={worst_bound:.3e}"),
        SuiteResult(
            "decay-bound-dangling-free",
            ok_sharp,
            f"worst_err={worst_sharp:.3e} bound_at_worst={worst_sharp_bound:.3e}",
        ),
        SuiteResult("half-bound", ok_half, f"max_estimate={hi!r} min_estimate={lo!r}"),
    ]


def fptas_suite(counted, epsilons) -> list[SuiteResult]:
    results = []
    for eps in epsilons:
        worst = 0.0
        ok = True
        for g, exact, _ in counted:
            approx = estimate_count(g, eps)
            if exact == 0:
                if approx.value != 0.0:
                    ok = False
                continue
            rel = abs(approx.value / exact - 1.0)
            worst = max(worst, rel)
            if rel > eps:
                ok = False
        results.append(SuiteResult(f"fptas-eps={eps}", ok, f"worst_rel_err={worst:.3e} allowed={eps}"))
    return results


def identity_suite(counted) -> SuiteResult:
    violations = 0
    checked = 0
    for g, z, without in counted:
        # a free edge appended with a fresh largest id doubles the count;
        # it adds no DP state, so it may take the oracle one edge past the cap
        free_id = (max(g.edge_ids) + 1) if g.edge_count else 0
        doubled = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids] + [(free_id, ())])
        checked += 1
        if exact_count(doubled, cap=doubled.edge_count) != 2 * z:
            violations += 1
        # split over any normal edge: covers without e plus covers with e
        for e in g.edge_ids:
            if g.classify(e) is not EdgeKind.NORMAL:
                continue
            u, v = g.endpoints(e)
            conditioned = g.remove_edge(e).detach_vertex(u).detach_vertex(v)
            checked += 1
            if z != without[e] + exact_count(conditioned):
                violations += 1
    # forced single-edge cases
    for g in (Graph.from_edges([(0, 1)]), Graph.from_edges([(0,)])):
        checked += 1
        if exact_count(g) != 1 or exact_marginal(g, 0) != 0:
            violations += 1
    return SuiteResult("exact-identities", violations == 0, f"checked={checked} violations={violations}")


def sensitivity_bounds_suite(seed: int, trials: int) -> list[SuiteResult]:
    # 0.5 * draw() is rng.uniform(0.0, 0.5) and randrange(9) is
    # randint(0, 8), draw for draw, without their Python-level frames
    rng = random.Random(seed)
    draw = rng.random
    worst_margin_f = -1.0
    ok_f = True
    for _ in range(trials):
        d = rng.randrange(9)
        xs = [0.5 * draw() for _ in range(d)]
        xhat = [0.5 * draw() for _ in range(d)]
        eps = max(map(abs, map(operator.sub, xs, xhat)), default=0.0)
        bound = min(0.5, d * 0.5 ** (d - 1)) * eps
        diff = abs(dangling_combine(xhat) - dangling_combine(xs))
        worst_margin_f = max(worst_margin_f, diff - bound)
        if diff > bound + FLOAT_SLACK:
            ok_f = False

    worst_margin_g = -1.0
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
        worst_margin_g = max(worst_margin_g, diff - bound)
        if diff > bound + FLOAT_SLACK:
            ok_g = False

    return [
        SuiteResult("dangling-combine-sensitivity", ok_f, f"trials={trials} worst_margin={worst_margin_f:.3e}"),
        SuiteResult("normal-combine-sensitivity", ok_g, f"trials={trials} worst_margin={worst_margin_g:.3e}"),
    ]


def run_verification(
    max_edges: int = 12,
    epsilons: tuple[float, ...] = (0.5, 0.2, 0.1),
    seed: int = 0,
    instances: int = 120,
    trials: int = 20_000,
) -> list[SuiteResult]:
    counted = [
        (g, exact_count(g), {e: exact_count(g.remove_edge(e)) for e in g.edge_ids})
        for g in verification_corpus(max_edges, seed, instances)
    ]
    results = marginal_suites(counted)
    results.extend(fptas_suite(counted, epsilons))
    results.append(identity_suite(counted))
    results.extend(sensitivity_bounds_suite(seed + 1, trials))
    return results
