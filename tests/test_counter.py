import math
import random

import pytest

from conftest import lucas, random_small_graph
from covercount.counter import depth_for, elimination_chain, estimate_count
from covercount.estimator import _Workspace, estimate_marginal
from covercount.generate import cycle_graph, random_multigraph
from covercount.graph import Graph
from covercount.oracle import exact_count


class TestDepthFor:
    def test_direct_substitution(self):
        assert depth_for(8, 0.75) == 6

    def test_single_edge_limit(self):
        assert depth_for(1, 0.999) == 3

    def test_hundred_edges(self):
        assert depth_for(100, 0.1) == 13

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            depth_for(0, 0.5)
        with pytest.raises(ValueError):
            depth_for(4, 1.0)
        with pytest.raises(ValueError):
            depth_for(4, 0.0)


class TestEliminationChain:
    def test_chain_semantics(self):
        # normal edge detaches both endpoints, dangling one, free none
        g = Graph.from_edges([(0, 1), (1, 2), (2,), ()])
        chain = elimination_chain(g)
        assert [e for _, e in chain] == [0, 1, 2, 3]
        assert chain[0][0] == g
        g2 = chain[1][0]
        assert g2.vertices == frozenset({2})
        assert g2.endpoints(1) == (2,)
        # edge 1 is dangling in g2, so its one remaining endpoint is detached
        g3 = chain[2][0]
        assert g3.vertices == frozenset()
        assert g3.endpoints(2) == ()
        # edge 2 is free in g3, so nothing is detached
        g4 = chain[3][0]
        assert g4.vertices == frozenset()
        assert g4.endpoints(3) == ()


class TestEstimateCount:
    def test_single_normal_edge_is_exactly_one(self):
        result = estimate_count(Graph.from_edges([(0, 1)]), 0.5)
        assert result.value == 1.0
        assert result.log_value == 0.0

    def test_disjoint_free_edges_exact_powers_of_two(self):
        for k in (1, 3, 7):
            g = Graph.from_edges([()] * k)
            assert estimate_count(g, 0.3).value == float(2**k)

    def test_cycle4_within_ten_percent(self):
        value = estimate_count(Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]), 0.1).value
        assert 6.3 <= value <= 7.7

    def test_empty_graph_counts_the_empty_cover(self):
        result = estimate_count(Graph([], []), 0.4)
        assert result.value == 1.0
        assert result.depth_used == 0

    def test_isolated_vertex_counts_zero(self):
        result = estimate_count(Graph([0, 1], [(0, (0,))]), 0.4)
        assert result.value == 0.0
        assert result.log_value == -math.inf
        assert result.marginals == ()

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            estimate_count(Graph.from_edges([(0, 1)]), 1.5)

    def test_value_matches_log_value(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_small_graph(rng)
            result = estimate_count(g, 0.2)
            if result.value > 0:
                assert result.value == pytest.approx(math.exp(result.log_value), rel=1e-12)

    def test_marginals_recorded_per_edge_and_at_most_half(self):
        g = cycle_graph(6)
        result = estimate_count(g, 0.2)
        assert [e for e, _ in result.marginals] == list(g.edge_ids)
        assert all(0.0 <= p <= 0.5 for _, p in result.marginals)

    def test_guarantee_on_random_graphs(self):
        rng = random.Random(59)
        for _ in range(80):
            g = random_small_graph(rng)
            exact = exact_count(g)
            for eps in (0.5, 0.2, 0.1):
                approx = estimate_count(g, eps).value
                if exact == 0:
                    assert approx == 0.0
                else:
                    assert abs(approx / exact - 1.0) <= eps

    def test_permutation_robustness(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_small_graph(rng)
            exact = exact_count(g)
            if exact == 0:
                continue
            ids = list(g.edge_ids)
            perm = ids[:]
            rng.shuffle(perm)
            relabeled = Graph(g.vertices, [(perm[i], g.endpoints(e)) for i, e in enumerate(ids)])
            assert exact_count(relabeled) == exact
            for eps in (0.5, 0.1):
                value = estimate_count(relabeled, eps).value
                assert abs(value / exact - 1.0) <= eps

    def test_free_edge_doubling_is_exact_at_equal_depth(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(120):
            g = random_small_graph(rng)
            m = g.edge_count
            if depth_for(m, 0.3) != depth_for(m + 1, 0.3):
                continue  # a depth bump would re-truncate the shared marginals
            free_id = max(g.edge_ids) + 1
            extended = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids] + [(free_id, ())])
            assert estimate_count(extended, 0.3).value == 2.0 * estimate_count(g, 0.3).value
            checked += 1
        assert checked > 40


class TestNodeBudget:
    def test_nodes_per_marginal_within_budget_on_cycles(self):
        g = cycle_graph(8)
        depth = depth_for(g.edge_count, 0.2)
        for sub, e in elimination_chain(g):
            nodes = 0

            def bump(*_):
                nonlocal nodes
                nodes += 1

            estimate_marginal(sub, e, depth, on_node=bump)
            assert nodes <= 6**depth


class TestSharedWorkspace:
    def test_rewind_restores_a_fresh_workspace(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 1), (1,), ()])
        fresh = _Workspace(g)
        ws = _Workspace(g)
        mark = ws.mark()
        ws.remove_edge(1)
        ws.detach_vertex(0)  # edges 0, 2, 3 lose their first endpoint
        ws.detach_vertex(2)
        ws.remove_edge(4)
        ws.rewind(mark)
        assert ws.endpoints == fresh.endpoints
        assert ws.adj == fresh.adj
        assert ws.mark() == mark

    def test_condition_leaves_the_next_chain_graph_and_no_log(self):
        g = random_multigraph(1656, max_edges=14)
        ws = _Workspace(g)
        for h, e in elimination_chain(g):
            ref = _Workspace(h)
            assert ws.endpoints == ref.endpoints
            assert ws.adj == ref.adj
            ws.condition(e)
            assert ws.mark() == 0

    def test_marginals_and_nodes_match_the_elimination_chain(self):
        # Seeds 1656, 1929 and 1995 differ if rewinding reorders an
        # endpoint list, because a later root then reads (v, u) as (u, v).
        mismatched = []
        for seed in range(3000):
            g = random_multigraph(seed, max_edges=14)
            for eps in (0.5, 0.2, 0.1):
                shared_nodes, chain_nodes = [], []
                result = estimate_count(g, eps, on_node=lambda *a: shared_nodes.append(a))
                depth = result.depth_used
                chain = tuple(
                    (e, estimate_marginal(h, e, depth, on_node=lambda *a: chain_nodes.append(a)))
                    for h, e in elimination_chain(g)
                )
                if result.marginals != chain or shared_nodes != chain_nodes:
                    mismatched.append((seed, eps))
        assert mismatched == []


class TestBeyondFloatRange:
    def test_value_is_inf_with_a_finite_log(self):
        result = estimate_count(Graph.from_edges([()] * 1100), 0.2)
        assert result.value == math.inf
        assert result.log_value == pytest.approx(1100 * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("n", [2000, 16000])
    def test_cycle_log_count_within_eps_of_lucas(self, n):
        result = estimate_count(cycle_graph(n), 0.2)
        assert abs(result.log_value - math.log(lucas(n))) <= math.log1p(0.2)
