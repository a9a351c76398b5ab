import math
import random

import pytest

from conftest import lucas, random_small_graph
from covercount.counter import depth_for, elimination_chain, estimate_count
from covercount.estimator import _recurse, _Workspace, chain_marginals, estimate_marginal
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

    def test_an_epsilon_whose_reciprocal_overflows(self):
        # 6 / eps is inf below about 3.3e-308; the budget is still an int, and grows with 1/eps
        assert math.isinf(6.0 / 1e-320)
        assert depth_for(10, 1e-320) == math.ceil(math.log2(10) + math.log2(6.0) - math.log2(1e-320))
        assert depth_for(1, 4e-308) < depth_for(1, 1e-320) < depth_for(1, 5e-324)

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
        assert math.copysign(1.0, result.log_value) == 1.0  # 0.0, not -0.0

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


def live_view(ws, g):
    """The graph a workspace over g currently stands for, in the form of graph_view."""
    ids, verts = ws.ids, sorted(g.vertices)  # the workspace numbers both in ascending order
    edges = {
        ids[e]: tuple(verts[u] for u in ws.ends[e] if ws.vert_live[u]) for e, live in enumerate(ws.edge_live) if live
    }
    adj = {
        verts[u]: tuple(ids[e] for e in ws.inc[u] if ws.edge_live[e]) for u, live in enumerate(ws.vert_live) if live
    }
    return edges, adj


def graph_view(g):
    return {e: g.endpoints(e) for e in g.edge_ids}, {u: g.incident_edges(u) for u in g.vertices}


class TestSharedWorkspace:
    def test_recurse_clears_its_own_flag_and_restores_every_other(self):
        # parallel (0, 3), dangling (4) and free (5) edges; every top-level
        # call, on the fresh workspace and after each conditioning step
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 1), (1,), ()])
        # a hub with eight leaves, two of them doubled, a pendant at the hub
        # and one at leaf 3: at depths 1-3 its dangling nodes have every
        # child truncated, and the traced form of that case classifies each
        # child while the hub is still live
        star = Graph.from_edges([(0,), *((0, i) for i in range(1, 9)), (0, 1), (0, 2), (3,)])
        kept = 0
        for graph, depths in ((g, (0, 1, 2, 5, 9)), (star, (1, 2, 3))):
            for on_node in (None, lambda *a: None):
                ws = _Workspace(graph, on_node)
                for e in map(ws.number, graph.edge_ids):
                    for depth in depths:
                        edge_live, vert_live = list(ws.edge_live), list(ws.vert_live)
                        _recurse(ws, e, depth)
                        edge_live[e] = False
                        assert ws.edge_live == edge_live
                        assert ws.vert_live == vert_live
                        # the hook is set at build time; keeping a child never swaps it
                        assert ws.on_node is on_node
                        kept += ws.ahead is not None
                        ws.ahead = None
                        ws.edge_live[e] = True
                    ws.condition(e)
        assert kept

    def test_every_kept_pair_is_the_next_steps_walk(self, monkeypatch):
        # when step i conditions its edge, what is kept is step i + 1's value and node count,
        # as estimating that step's edge in its own chain graph gives them
        kept = []
        condition = _Workspace.condition

        def recorded(ws, e):
            kept.append(ws.ahead)
            condition(ws, e)

        monkeypatch.setattr(_Workspace, "condition", recorded)
        seen = []
        for seed in range(40):
            g = random_multigraph(seed, max_edges=14)
            steps = elimination_chain(g)
            for on_node in (None, lambda *a: None):
                kept.clear()
                chain_marginals(g, 5, on_node)
                assert len(kept) == len(steps)
                for (h, e), ahead in zip(steps[1:], kept):
                    if ahead is not None:
                        nodes = []
                        value = estimate_marginal(h, e, 5, lambda *a: nodes.append(a))
                        assert ahead == (value, len(nodes)), (seed, e)
                seen += [ahead is not None for ahead in kept]
        assert any(seen) and not all(seen)

    def test_condition_leaves_the_next_chain_graph(self):
        g = random_multigraph(1656, max_edges=14)
        ws = _Workspace(g)
        for h, e in elimination_chain(g):
            assert live_view(ws, g) == graph_view(h)
            ws.condition(ws.number(e))

    def test_marginals_and_nodes_match_the_elimination_chain(self):
        # Seeds 1656, 1929 and 1995 differ if rewinding reorders an
        # endpoint list, because a later root then reads (v, u) as (u, v).
        mismatched = []
        for seed in range(3000):
            g = random_multigraph(seed, max_edges=14)
            steps = elimination_chain(g)  # the same at every eps
            for eps in (0.5, 0.2, 0.1):
                shared_nodes, chain_nodes = [], []
                result = estimate_count(g, eps, on_node=lambda *a: shared_nodes.append(a))
                depth = result.depth_used
                chain = tuple(
                    (e, estimate_marginal(h, e, depth, on_node=lambda *a: chain_nodes.append(a)).hex())
                    for h, e in steps
                )
                # untraced, kept steps are taken from the keep, not walked
                for run in (result, estimate_count(g, eps)):
                    if tuple((e, p.hex()) for e, p in run.marginals) != chain or run.nodes != len(chain_nodes):
                        mismatched.append((seed, eps, run is result))
                if shared_nodes != chain_nodes:
                    mismatched.append((seed, eps, "hooks"))
        assert mismatched == []


class TestInputUnchanged:
    def test_counting_never_writes_the_graph(self):
        # a workspace over dense ids shares the graph's own tuples, so a write would show here
        graphs = [Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 1), (1,), ()])]
        graphs += [random_multigraph(seed, max_edges=14) for seed in range(40)]
        for g in graphs:
            copy = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids])
            incident = {u: g.incident_edges(u) for u in g.vertices}
            ends = {e: g.endpoints(e) for e in g.edge_ids}
            estimate_count(g, 0.2)
            for e in g.edge_ids:
                estimate_marginal(g, e, 6)
            assert g == copy
            assert {u: g.incident_edges(u) for u in g.vertices} == incident
            assert {e: g.endpoints(e) for e in g.edge_ids} == ends


class TestBeyondFloatRange:
    def test_value_is_inf_with_a_finite_log(self):
        result = estimate_count(Graph.from_edges([()] * 1100), 0.2)
        assert result.value == math.inf
        assert result.log_value == pytest.approx(1100 * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("n", [2000, 16000])
    def test_cycle_log_count_within_eps_of_lucas(self, n):
        result = estimate_count(cycle_graph(n), 0.2)
        assert abs(result.log_value - math.log(lucas(n))) <= math.log1p(0.2)
