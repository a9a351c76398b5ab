"""Oracle-vs-estimator verification suites behind the `verify` command.

The marginal, fptas and identity suites sweep a seeded corpus (every
labeled simple graph on up to 4 vertices, plus seeded random multigraphs
with dangling and free edges) and report their worst observed error
against the guaranteed bound.  One forward-backward pass of the oracle
(``exact_count_without``) counts each corpus graph and all of its
edge-deleted graphs; the suites share those counts as ``(graph, count,
without)`` triples, where ``without[e]`` is the count of the graph minus
edge e.  The identity suite checks the pass against independent
``exact_count`` DPs: the count doubles when a free edge is added, and each
normal edge's ``without[e]``, from the backward pass, is the count less
the count with e conditioned in.

The two sensitivity suites check the combinators themselves, not the
corpus: the FPTAS rests on correlation decay, so each combinator must
contract an error in its inputs.  Each seeded trial draws in-range inputs
and a perturbed copy, in [0, 1/2]: d marginals for ``dangling_combine``,
or three blocks of d1, d2 and d2 marginals whose products feed
``normal_combine`` (the last two coupled when d1 = 0).  It checks that the
outputs differ by at most L * eps, where eps is the largest input
perturbation and L is min(1/2, d * (1/2)^(d-1)) or 3.  At the `verify`
defaults they run 20,000 trials each and take most of the run's time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .counter import estimate_count

# estimate_marginal is not called here (the sweep uses depth_sweep), but
# perfbench's tracer wraps verify.estimate_marginal by name.
from .estimator import dangling_combine, depth_sweep, estimate_marginal, normal_combine  # noqa: F401
from .generate import random_multigraph
from .graph import EdgeKind, Graph
from .oracle import exact_count, exact_count_without, exact_marginal

FLOAT_SLACK = 1e-9
MAX_DEPTH = 12
SMALL_GRAPH_VERTICES = 4
# dangling_combine's Lipschitz constant for d inputs in [0, 1/2]
_DANGLING_LIPSCHITZ = tuple(min(0.5, d * 0.5 ** (d - 1)) for d in range(9))
_HALF_POWERS = tuple(0.5**d for d in range(9))
# the truncation-decay bounds at depth L: 3·(1/2)^(L+1), and (1/2)^(L+1) at a dangling or free root
_DECAY_BOUND = tuple(3.0 * 0.5 ** (L + 1) for L in range(MAX_DEPTH + 1))
_SHARP_BOUND = tuple(0.5 ** (L + 1) for L in range(MAX_DEPTH + 1))
# For est and w/z in [0, 1], fl(w/z) and fl(est - fl(w/z)) each round by at most half an ulp below 1, 2^-54, so
# the float err fl(|est - fl(w/z)|) is within 2^-53 of |est - w/z|: an exact excess over a bound (an exact float)
# leaves the float err above bound - _ROUNDING_BAND, and only such errs are judged again in exact rationals.
_ROUNDING_BAND = 2.0**-52


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
    depth's value for the deeper ones.  ``half-bound`` reads each edge's
    sweep once, through its largest and smallest estimate.
    """
    worst = 0.0
    worst_bound = 0.0
    worst_sharp = 0.0
    worst_sharp_bound = 0.0
    hi = 0.0
    lo = 0.5  # every checked edge's depth-0 estimate, so starting here clips no minimum
    ok = True
    ok_sharp = True
    ok_half = True
    for g, z, without in counted:
        if z == 0:
            continue
        for e in g.edge_ids:
            exact = without[e] / z  # true division of ints is correctly rounded
            sharp = g.classify(e) is not EdgeKind.NORMAL
            sweep = depth_sweep(g, e, MAX_DEPTH)
            top, bottom = max(sweep), min(sweep)
            if top > hi:
                hi = top
            if bottom < lo:
                lo = bottom
            if not (0 <= 2 * without[e] <= z and 0.0 <= bottom and top <= 0.5):
                ok_half = False
            for L, est in enumerate(sweep):
                err = abs(est - exact)
                bound = _DECAY_BOUND[L]
                if err > worst:
                    worst, worst_bound = err, bound
                if err > bound - _ROUNDING_BAND and abs(Fraction(est) - Fraction(without[e], z)) > bound:
                    ok = False
                if sharp:
                    bound1 = _SHARP_BOUND[L]
                    if err > worst_sharp:
                        worst_sharp, worst_sharp_bound = err, bound1
                    if err > bound1 - _ROUNDING_BAND and abs(Fraction(est) - Fraction(without[e], z)) > bound1:
                        ok_sharp = False
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
                ok = ok and approx.value == 0.0
                continue
            try:
                rel = abs(approx.value / exact - 1.0)
            except OverflowError:  # exact is past float range: compare logs, as the CLI's log_count
                rel = abs(math.expm1(approx.log_value - math.log(exact)))
            worst = max(worst, rel)
            if rel > eps:
                ok = False
        results.append(SuiteResult(f"fptas-eps={eps}", ok, f"worst_rel_err={worst:.3e} allowed={eps}"))
    return results


def identity_suite(counted) -> SuiteResult:
    violations = 0
    checked = 0
    for g, z, without in counted:
        # a free edge appended with a fresh largest id doubles the count
        free_id = (max(g.edge_ids) + 1) if g.edge_count else 0
        doubled = Graph._raw({**g._edges, free_id: ()}, g._adj)  # free_id is the largest id: g's checked tables still ascend
        checked += 1
        if exact_count(doubled) != 2 * z:
            violations += 1
        # split over any normal edge: covers without e plus covers with e
        for e in g.edge_ids:
            if g.classify(e) is not EdgeKind.NORMAL:
                continue
            checked += 1
            if z != without[e] + exact_count(g.condition(e)):
                violations += 1
    # forced single-edge cases
    for g in (Graph.from_edges([(0, 1)]), Graph.from_edges([(0,)])):
        checked += 1
        if exact_count(g) != 1 or exact_marginal(g, 0) != 0:
            violations += 1
    return SuiteResult("exact-identities", violations == 0, f"checked={checked} violations={violations}")


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
    # The getrandbits(4) loop is randrange(9), draw for draw.  Each input is
    # 0.5 * draw(), rng.uniform(0.0, 0.5), with the factor 1/2 taken out: a
    # block's product of d unscaled draws is scaled once by _HALF_POWERS[d],
    # and eps, the largest |hat - plain| over every block, once by 0.5.  That
    # is exact.  A draw is a multiple of 2^-53 in [0, 1), so every partial
    # product of at most 8 draws is 0 or at least 2^-424, far above the
    # subnormals, where scaling by a power of two commutes with rounding; and
    # the difference of two draws is exact.  Each hat block is drawn right
    # after its plain block and against it, folding its product and eps as
    # it goes (plain loops, not comprehensions that would close over draw).
    rng = random.Random(seed)
    draw = rng.random
    bits = rng.getrandbits
    worst_margin_f = -math.inf
    ok_f = True
    for _ in range(trials):
        d = bits(4)
        while d >= 9:
            d = bits(4)
        xs = []
        x = xh = 1.0
        eps = 0.0
        for _ in range(d):
            xs.append(t := draw())
            x *= t
        for s in xs:
            t = draw()
            xh *= t
            t -= s
            if t > eps:
                eps = t
            elif -t > eps:
                eps = -t
        # dangling_combine multiplies its inputs from 1.0, so one input, their product, gives the same value
        h = _HALF_POWERS[d]
        hat, plain = ((h * xh,), (h * x,)) if d else ((), ())
        diff = abs(dangling_combine(hat) - dangling_combine(plain))
        bound = _DANGLING_LIPSCHITZ[d] * (0.5 * eps)
        if bound > 0.0 and diff - bound > worst_margin_f:
            worst_margin_f = diff - bound
        if diff > bound + FLOAT_SLACK:  # the combinators' rounding can pass a real Lipschitz bound by a few ulps
            ok_f = False

    worst_margin_g = -math.inf
    ok_g = True
    for _ in range(trials):
        d1 = bits(4)
        while d1 >= 9:
            d1 = bits(4)
        d2 = bits(4)
        while d2 >= 9:
            d2 = bits(4)
        # drawn block by block: xs, xhat, ys, yhat and, when d1 > 0, zs, zhat
        xs, ys, zs = [], [], []
        x = xh = y = yh = z = zh = 1.0
        eps = 0.0
        for _ in range(d1):
            xs.append(t := draw())
            x *= t
        for s in xs:
            t = draw()
            xh *= t
            t -= s
            if t > eps:
                eps = t
            elif -t > eps:
                eps = -t
        for _ in range(d2):
            ys.append(t := draw())
            y *= t
        for s in ys:
            t = draw()
            yh *= t
            t -= s
            if t > eps:
                eps = t
            elif -t > eps:
                eps = -t
        if d1 == 0:
            # with no edges on the first side, the second and third chains
            # coincide, so their products are coupled
            z, zh = y, yh
        else:
            for _ in range(d2):
                zs.append(t := draw())
                z *= t
            for s in zs:
                t = draw()
                zh *= t
                t -= s
                if t > eps:
                    eps = t
                elif -t > eps:
                    eps = -t
        h1 = _HALF_POWERS[d1]
        h2 = _HALF_POWERS[d2]
        diff = abs(normal_combine(h1 * xh, h2 * yh, h2 * zh) - normal_combine(h1 * x, h2 * y, h2 * z))
        bound = 3.0 * (0.5 * eps)
        if bound > 0.0 and diff - bound > worst_margin_g:
            worst_margin_g = diff - bound
        if diff > bound + FLOAT_SLACK:  # as in the dangling trials
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
    if max_edges < 1:
        raise ValueError(f"max_edges must be at least 1, got {max_edges}")
    counted = [(g, *exact_count_without(g)) for g in verification_corpus(max_edges, seed, instances)]
    results = marginal_suites(counted)
    results.extend(fptas_suite(counted, epsilons))
    results.append(identity_suite(counted))
    results.extend(sensitivity_bounds_suite(seed + 1, trials))
    return results
