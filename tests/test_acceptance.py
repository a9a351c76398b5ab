"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` asserts the same conditions.
"""

import math
import time
from fractions import Fraction

import networkx as nx
import pytest

from covercount.cnf import parse_cnf, to_graph
from covercount.counter import depth_for, elimination_chain, estimate_count
from covercount.estimator import depth_sweep, estimate_marginal
from covercount.generate import cycle_graph, random_multigraph
from covercount.graph import EdgeKind, Graph
from covercount.oracle import exact_count, exact_marginal
from covercount.verify import sensitivity_bounds_suite, run_verification

FLOAT_SLACK = 1e-9
HALF_SLACK = 1e-12
DEPTHS = range(0, 13)
EPSILONS = (0.5, 0.2, 0.1)
CORPUS_SEED = 987_001
IDENTITY_SEED = 553_101


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# -- corpus -------------------------------------------------------------------


def _atlas_connected() -> list[Graph]:
    """Every connected graph on at most 7 vertices with at most 12 edges,
    one representative per isomorphism class (the standard atlas)."""
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() == 0 or G.number_of_edges() > 12:
            continue
        if not nx.is_connected(G):
            continue
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        out.append(Graph(range(G.number_of_nodes()), list(enumerate(edges))))
    return out


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    graphs = _atlas_connected()
    assert len(graphs) >= 700, "atlas sweep unexpectedly small"
    graphs += [random_multigraph(CORPUS_SEED + i, max_edges=14) for i in range(500)]
    return graphs


@pytest.fixture(scope="session")
def counted(corpus) -> list[tuple[Graph, int]]:
    """(graph, exact count) per corpus graph; the oracle counts each once."""
    return [(g, exact_count(g)) for g in corpus]


@pytest.fixture(scope="session")
def marginal_sweep(counted):
    """(kind, exact marginal, {depth: estimate}) for every edge of every
    covered corpus graph, computed once and shared across criteria.
    ``depth_sweep`` gives ``estimate_marginal`` at every depth, reusing a
    settled depth's value for the deeper ones."""
    rows = []
    for g, z in counted:
        if z == 0:
            continue
        for e in g.edge_ids:
            exact = Fraction(exact_count(g.remove_edge(e)), z)
            estimates = dict(zip(DEPTHS, depth_sweep(g, e, DEPTHS[-1])))
            rows.append((g.classify(e), exact, estimates))
    return rows


@pytest.fixture(scope="session")
def counter_sweep(counted):
    """(exact count, {epsilon: approximate count result}) per corpus graph."""
    return [(z, {eps: estimate_count(g, eps) for eps in EPSILONS}) for g, z in counted]


# -- criteria -----------------------------------------------------------------


def test_criterion_1_decay_bound(marginal_sweep):
    worst_margin = -math.inf
    checked = 0
    for _, exact, estimates in marginal_sweep:
        exact_f = float(exact)
        for L, est in estimates.items():
            margin = abs(est - exact_f) - 3.0 * 0.5 ** (L + 1)
            worst_margin = max(worst_margin, margin)
            checked += 1
    report(
        1,
        "decay-bound",
        worst_margin <= FLOAT_SLACK,
        f"checked={checked} worst_err_minus_bound={worst_margin:.3e} slack={FLOAT_SLACK}",
    )


def test_criterion_2_fptas_guarantee(counter_sweep):
    worst = {eps: 0.0 for eps in EPSILONS}
    violations = 0
    for exact, by_eps in counter_sweep:
        for eps, result in by_eps.items():
            if exact == 0:
                violations += result.value != 0.0
                continue
            rel = abs(result.value / exact - 1.0)
            worst[eps] = max(worst[eps], rel)
            violations += rel > eps
    detail = " ".join(f"eps={eps}:worst={worst[eps]:.3e}" for eps in EPSILONS)
    report(2, "fptas-guarantee", violations == 0, f"graphs={len(counter_sweep)} {detail}")


def test_criterion_3_half_bound(marginal_sweep, counter_sweep):
    bad = 0
    max_est = 0.0
    for _, exact, estimates in marginal_sweep:
        bad += not (0 <= exact <= Fraction(1, 2))
        for est in estimates.values():
            max_est = max(max_est, est)
            bad += not (0.0 <= est <= 0.5 + HALF_SLACK)
    for _, by_eps in counter_sweep:
        for result in by_eps.values():
            for _, p in result.marginals:
                max_est = max(max_est, p)
                bad += not (0.0 <= p <= 0.5 + HALF_SLACK)
    report(3, "half-bound", bad == 0, f"violations={bad} max_estimate={max_est!r}")


def test_criterion_4_sensitivity_lemmas():
    dangle, normal = sensitivity_bounds_suite(seed=404, trials=100_000)
    ok = dangle.passed and normal.passed
    report(4, "combinator-sensitivity", ok, f"{dangle.detail} | {normal.detail}")


def test_criterion_5_spot_values():
    c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    count_ok = exact_count(c4) == 7
    # derived before the build by full enumeration: of the 7 covers of the
    # 4-cycle exactly two omit a fixed edge ({1,3} and {1,2,3} for edge 0),
    # so the exact marginal is 2/7
    marginal_ok = exact_marginal(c4, 0) == Fraction(2, 7)

    phi = parse_cnf("p cnf 3 2\n1 2 0\n2 3 0\n")
    truth_table = sum(
        1
        for bits in range(8)
        if (bits & 1 or bits & 2) and (bits & 2 or bits & 4)
    )
    cnf_ok = truth_table == 5 and exact_count(to_graph(phi)) == 5
    report(
        5,
        "spot-values",
        count_ok and marginal_ok and cnf_ok,
        f"c4_count={exact_count(c4)} c4_marginal={exact_marginal(c4, 0)} cnf_solutions={truth_table}",
    )


def _best_wall_seconds(g: Graph, eps: float, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        estimate_count(g, eps)
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_6_runtime_envelope():
    eps = 0.2
    exponent = math.log2(6)
    sizes = (8, 16, 32, 64)
    rows = []
    nodes_ok = True
    for n in sizes:
        g = cycle_graph(n)
        m = g.edge_count
        depth = depth_for(m, eps)
        for sub, e in elimination_chain(g):
            nodes = 0

            def bump(*_):
                nonlocal nodes
                nodes += 1

            estimate_marginal(sub, e, depth, on_node=bump)
            if nodes > 6**depth:
                nodes_ok = False
        wall = _best_wall_seconds(g, eps, repeats=5)
        model = m * n**2 * (6.0 * m / eps) ** exponent
        rows.append((n, wall, model))

    # the bound is a worst-case envelope: calibrate its constant on the
    # smallest size, then no larger size may exceed it by more than 4x
    c = rows[0][1] / rows[0][2]
    envelope_ok = all(wall <= 4.0 * c * model for _, wall, model in rows)
    detail = " ".join(f"n={n}:wall={wall * 1e3:.2f}ms ratio={wall / (c * model):.3f}" for n, wall, model in rows)
    report(6, "runtime-envelope", nodes_ok and envelope_ok, detail)


def test_criterion_7_exact_identities():
    violations = 0
    checked = 0
    for i in range(200):
        g = random_multigraph(IDENTITY_SEED + i, max_edges=14)
        z = exact_count(g)
        free_id = max(g.edge_ids) + 1
        doubled = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids] + [(free_id, ())])
        checked += 1
        violations += exact_count(doubled) != 2 * z
        for e in g.edge_ids:
            if g.classify(e) is not EdgeKind.NORMAL:
                continue
            u, v = g.endpoints(e)
            rest = g.remove_edge(e)
            checked += 1
            violations += z != exact_count(rest) + exact_count(rest.detach_vertex(u).detach_vertex(v))

    for g in (Graph.from_edges([(0, 1)]), Graph.from_edges([(0,)])):
        checked += 1
        violations += exact_count(g) != 1 or exact_marginal(g, 0) != 0
        violations += estimate_count(g, 0.5).value != 1.0
    report(7, "exact-identities", violations == 0, f"checked={checked} violations={violations}")


def test_verify_command_default_gate():
    results = run_verification()
    failures = [r.name for r in results if not r.passed]
    report(0, "verify-default-settings", not failures, f"suites={len(results)} failures={failures or 'none'}")
