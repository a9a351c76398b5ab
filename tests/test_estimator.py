import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_small_graph, seeded_multigraphs
from covercount import estimator
from covercount.estimator import (
    ContractViolationError,
    dangling_combine,
    depth_discount,
    depth_sweep,
    estimate_marginal,
    normal_combine,
)
from covercount.graph import EdgeKind, Graph
from covercount.oracle import exact_count, exact_marginal
from covercount.verify import exhaustive_small_graphs
from reference import dangling_subinstances, normal_subinstances, reference_marginal

FLOAT_SLACK = 1e-9


class TestDanglingCombine:
    def test_empty_product_forces_the_edge(self):
        assert dangling_combine([]) == 0.0

    def test_single_zero(self):
        assert dangling_combine([0.0]) == 0.5

    def test_two_halves(self):
        assert dangling_combine([0.5, 0.5]) == pytest.approx(3 / 7, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 0.6, 1.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ContractViolationError):
            dangling_combine([0.2, bad])

    def test_result_in_range(self):
        rng = random.Random(3)
        for _ in range(500):
            vals = [rng.uniform(0, 0.5) for _ in range(rng.randint(0, 6))]
            assert 0.0 <= dangling_combine(vals) <= 0.5


class TestNormalCombine:
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_empty_first_side_forces_the_edge(self, q):
        # with no other edges at one endpoint the two remaining products
        # coincide and the edge is forced
        assert normal_combine(1.0, q, q) == 0.0

    def test_all_empty_products(self):
        assert normal_combine(1.0, 1.0, 1.0) == 0.0

    def test_three_halves(self):
        assert normal_combine(0.5, 0.5, 0.5) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("bad", [(-0.1, 1, 1), (1, 1.2, 1), (1, 1, 2.0)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ContractViolationError):
            normal_combine(*bad)

    def test_uncoupled_products_rejected(self):
        # x=1 with y != z never arises from the recursion; the denominator
        # dips below 1 and must raise instead of returning a negative value
        with pytest.raises(ContractViolationError, match="denominator"):
            normal_combine(1.0, 0.0, 1.0)


class TestDepthDiscount:
    def test_degree_six_costs_one(self):
        assert depth_discount(10, 5) == 9

    def test_degree_seven_costs_two(self):
        assert depth_discount(10, 6) == 8

    def test_no_siblings_costs_nothing(self):
        assert depth_discount(10, 0) == 10

    def test_integer_exact_at_powers_of_six(self):
        # float log6 would round 36 and 216 the wrong way
        assert depth_discount(10, 35) == 8
        assert depth_discount(10, 36) == 7
        assert depth_discount(10, 215) == 7
        assert depth_discount(10, 216) == 6

    def test_may_cross_zero(self):
        assert depth_discount(1, 100) < 0


def test_depth_accounting_inequality():
    # one recursion step must not lose more precision than the discount
    # buys back: min{1/2, d/2^(d-1)} * 2^cost <= 1 for every branching width,
    # where cost = ceil(log6(d+1)).  For d >= 5 the stronger algebraic form
    # log2(d) + cost <= d - 1 holds; for d <= 4 the cost is at most 1.
    for d in range(1, 65):
        cost = 10 - depth_discount(10, d)
        assert min(0.5, d * 0.5 ** (d - 1)) * 2**cost <= 1.0
        if d <= 4:
            assert cost <= 1
        else:
            assert math.log2(d) + cost <= d - 1


class TestDanglingSubinstances:
    def test_three_sibling_chain(self):
        g = Graph.from_edges([(0,), (0, 1), (0, 2)])
        chain = dangling_subinstances(g, 0)
        assert [child for _, child in chain] == [1, 2]
        first, second = chain[0][0], chain[1][0]
        assert first.classify(1) is EdgeKind.DANGLING
        assert first.classify(2) is EdgeKind.DANGLING
        assert second.edge_ids == (2,)

    def test_no_siblings(self):
        assert dangling_subinstances(Graph.from_edges([(0,)]), 0) == []

    def test_sibling_dangling_at_same_vertex_turns_free(self):
        # edges at the shared vertex: the query edge, two normal edges,
        # and another dangling edge, which loses its only endpoint
        g = Graph.from_edges([(0,), (0, 1), (0, 2), (0,)])
        chain = dangling_subinstances(g, 0)
        assert [child for _, child in chain] == [1, 2, 3]
        assert chain[2][0].classify(3) is EdgeKind.FREE

    def test_rejects_non_dangling(self):
        with pytest.raises(ValueError, match="not dangling"):
            dangling_subinstances(Graph.from_edges([(0, 1)]), 0)

    def test_children_never_normal(self):
        rng = random.Random(23)
        for _ in range(150):
            g = random_small_graph(rng)
            for e in g.edge_ids:
                if g.classify(e) is not EdgeKind.DANGLING:
                    continue
                for sub, child in dangling_subinstances(g, e):
                    assert sub.classify(child) is not EdgeKind.NORMAL


class TestNormalSubinstances:
    def test_two_by_two_gadget(self):
        # center edge 0 between vertices 0 and 1, two pendants per side
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        first, second, third = normal_subinstances(g, 0)
        core = first[0][0]
        assert all(core.classify(e) is EdgeKind.DANGLING for e in core.edge_ids)
        assert [c for _, c in first] == [1, 2]
        assert [c for _, c in second] == [3, 4]
        assert [c for _, c in third] == [3, 4]
        # the second family walks v's edges only after u's are all gone
        assert second[0][0].edge_ids == (3, 4)
        assert third[0][0] == core

    def test_leaf_edge_gives_empty_families(self):
        g = Graph.from_edges([(0, 1)])
        assert normal_subinstances(g, 0) == ([], [], [])

    def test_parallel_copy_lands_in_first_and_third_only(self):
        g = Graph.from_edges([(0, 1), (0, 1)])
        first, second, third = normal_subinstances(g, 0)
        assert [c for _, c in first] == [1]
        assert second == []
        assert [c for _, c in third] == [1]
        assert first[0][0].classify(1) is EdgeKind.FREE

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError, match="not normal"):
            normal_subinstances(Graph.from_edges([(0,)]), 0)

    def test_family_kind_constraints(self):
        rng = random.Random(29)
        for _ in range(120):
            g = random_small_graph(rng)
            for e in g.edge_ids:
                if g.classify(e) is not EdgeKind.NORMAL:
                    continue
                first, second, third = normal_subinstances(g, e)
                for sub, child in first + third:
                    assert sub.classify(child) is not EdgeKind.NORMAL
                for sub, child in second:
                    assert sub.classify(child) is not EdgeKind.NORMAL


class TestEstimateMarginal:
    def test_free_edge_any_depth(self):
        g = Graph.from_edges([(), (0, 1)])
        assert estimate_marginal(g, 0, 5) == 0.5

    def test_single_dangling_edge(self):
        assert estimate_marginal(Graph.from_edges([(0,)]), 0, 3) == 0.0

    def test_depth_zero_is_half(self):
        assert estimate_marginal(Graph.from_edges([(0, 1)]), 0, 0) == 0.5

    def test_cycle4_converges_to_exact(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        est = estimate_marginal(g, 0, 8)
        assert abs(est - 2 / 7) <= 3 * 0.5**9

    def test_path6_realizes_one_fifth(self):
        # middle edge of the 6-vertex path: all three products are 1/2
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert estimate_marginal(g, 2, 10) == normal_combine(0.5, 0.5, 0.5)
        assert exact_marginal(g, 2) == Fraction(1, 5)

    def test_unknown_edge(self):
        with pytest.raises(KeyError):
            estimate_marginal(Graph.from_edges([(0, 1)]), 5, 3)

    def test_matches_reference_recursion_bitwise(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_small_graph(rng)
            for e in g.edge_ids:
                for depth in (0, 1, 3, 6):
                    assert estimate_marginal(g, e, depth) == reference_marginal(g, e, depth)

    def test_deterministic_across_calls_and_rebuilds(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_small_graph(rng)
            twin = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids])
            for e in g.edge_ids:
                a = estimate_marginal(g, e, 7)
                assert estimate_marginal(g, e, 7) == a
                assert estimate_marginal(twin, e, 7) == a


class TestDepthSweep:
    def test_every_depth_matches_estimate_marginal_bitwise(self):
        corpus = exhaustive_small_graphs() + seeded_multigraphs(1000, max_edges=8)
        kinds = set()
        parallel = False
        for g in corpus:
            pairs = [g.endpoints(e) for e in g.edge_ids if g.classify(e) is EdgeKind.NORMAL]
            parallel |= len(set(pairs)) < len(pairs)
            for e in g.edge_ids:
                kinds.add(g.classify(e))
                sweep = depth_sweep(g, e, 12)
                assert [x.hex() for x in sweep] == [estimate_marginal(g, e, L).hex() for L in range(13)]
        assert kinds == set(EdgeKind) and parallel

    def test_unknown_edge(self):
        with pytest.raises(KeyError):
            depth_sweep(Graph.from_edges([(0, 1)]), 5, 12)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]],
        ids=["c4", "path5"],
    )
    def test_visits_fewer_nodes_than_separate_calls(self, edges, monkeypatch):
        g = Graph.from_edges(edges)
        recurse = estimator._recurse
        nodes = 0

        def counted(*args):
            nonlocal nodes
            nodes += 1
            return recurse(*args)

        monkeypatch.setattr(estimator, "_recurse", counted)
        for e in g.edge_ids:
            nodes = 0
            depth_sweep(g, e, 12)
            swept = nodes
            nodes = 0
            for L in range(13):
                estimate_marginal(g, e, L)
            assert 0 < swept < nodes


class TestDecayBounds:
    def test_theorem_bound_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(150):
            g = random_small_graph(rng)
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                exact = float(exact_marginal(g, e))
                for depth in range(0, 13):
                    err = abs(estimate_marginal(g, e, depth) - exact)
                    assert err <= 3 * 0.5 ** (depth + 1) + FLOAT_SLACK

    def test_sharper_bound_for_dangling_and_free(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_small_graph(rng)
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                if g.classify(e) is EdgeKind.NORMAL:
                    continue
                exact = float(exact_marginal(g, e))
                for depth in range(0, 13):
                    err = abs(estimate_marginal(g, e, depth) - exact)
                    assert err <= 0.5 ** (depth + 1) + FLOAT_SLACK

    def test_full_depth_is_exact_on_acyclic_instances(self):
        from covercount.generate import path_graph, star_graph

        instances = [path_graph(n) for n in range(2, 9)]
        instances += [star_graph(n) for n in range(2, 9)]
        for g in instances:
            max_degree = max(g.degree(v) for v in g.vertices)
            depth = g.edge_count * (10 - depth_discount(10, max_degree)) + 1
            for e in g.edge_ids:
                exact = float(exact_marginal(g, e))
                assert abs(estimate_marginal(g, e, depth) - exact) <= 1e-12

    def test_estimates_stay_in_range(self):
        rng = random.Random(47)
        for _ in range(120):
            g = random_small_graph(rng)
            for e in g.edge_ids:
                for depth in (0, 2, 5, 9):
                    assert 0.0 <= estimate_marginal(g, e, depth) <= 0.5


class TestSensitivityBounds:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_dangling_combine_lipschitz(self, data):
        d = data.draw(st.integers(0, 8))
        box = st.floats(0.0, 0.5, allow_nan=False)
        xs = data.draw(st.lists(box, min_size=d, max_size=d))
        xhat = data.draw(st.lists(box, min_size=d, max_size=d))
        eps = max((abs(a - b) for a, b in zip(xs, xhat)), default=0.0)
        bound = min(0.5, d * 0.5 ** (d - 1)) * eps
        assert abs(dangling_combine(xhat) - dangling_combine(xs)) <= bound + FLOAT_SLACK

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_normal_combine_lipschitz(self, data):
        box = st.floats(0.0, 0.5, allow_nan=False)
        d1 = data.draw(st.integers(0, 8))
        d2 = data.draw(st.integers(0, 8))
        xs = data.draw(st.lists(box, min_size=d1, max_size=d1))
        xhat = data.draw(st.lists(box, min_size=d1, max_size=d1))
        ys = data.draw(st.lists(box, min_size=d2, max_size=d2))
        yhat = data.draw(st.lists(box, min_size=d2, max_size=d2))
        if d1 == 0:
            zs, zhat = ys, yhat  # chains coincide when one side is empty
        else:
            zs = data.draw(st.lists(box, min_size=d2, max_size=d2))
            zhat = data.draw(st.lists(box, min_size=d2, max_size=d2))
        eps = max(
            (abs(a - b) for a, b in zip(xs + ys + zs, xhat + yhat + zhat)),
            default=0.0,
        )
        diff = abs(
            normal_combine(math.prod(xhat), math.prod(yhat), math.prod(zhat))
            - normal_combine(math.prod(xs), math.prod(ys), math.prod(zs))
        )
        assert diff <= 3 * eps + FLOAT_SLACK


class TestTraceHook:
    def test_trace_records_consistent_nodes(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        nodes = []
        estimate_marginal(g, 0, 4, on_node=lambda d, e, k, b: nodes.append((d, e, k, b)))
        assert nodes[0] == (4, 0, EdgeKind.NORMAL, "normal")
        for depth, _, kind, branch in nodes:
            if branch == "base":
                assert depth <= 0
            else:
                assert depth > 0
            if branch == "free":
                assert kind is EdgeKind.FREE
            if branch == "dangling":
                assert kind is EdgeKind.DANGLING

    def test_hook_does_not_change_the_value(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3)])
        plain = estimate_marginal(g, 0, 6)
        assert estimate_marginal(g, 0, 6, on_node=lambda *a: None) == plain
