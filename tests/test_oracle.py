import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import fibonacci, independent_cover_count, lucas, random_small_graph, seeded_multigraphs
from covercount.generate import cycle_graph, path_graph
from covercount.graph import EdgeKind, Graph
from covercount.oracle import NoEdgeCoverError, OracleSizeError, exact_count, exact_marginal
from reference import dangling_subinstances


def c4() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])


class TestExactCount:
    def test_single_normal_edge_forced(self):
        assert exact_count(Graph.from_edges([(0, 1)])) == 1

    def test_single_free_edge_doubles(self):
        assert exact_count(Graph.from_edges([()])) == 2

    def test_cycle4(self):
        # all 16 subsets checked by hand: 7 cover every vertex
        assert exact_count(c4()) == 7

    def test_triangle(self):
        assert exact_count(Graph.from_edges([(0, 1), (1, 2), (2, 0)])) == 4

    def test_isolated_vertex_means_zero(self):
        assert exact_count(Graph([0, 1], [(0, (0,))])) == 0

    def test_cap_enforced(self):
        g = Graph.from_edges([()] * 25)
        with pytest.raises(OracleSizeError, match="oracle too large"):
            exact_count(g)
        assert exact_count(g, cap=25) == 2**25

    def test_matches_independent_enumerator(self):
        rng = random.Random(5)
        for _ in range(120):
            g = random_small_graph(rng)
            assert exact_count(g) == independent_cover_count(g)


class TestExactMarginal:
    def test_single_normal_edge(self):
        assert exact_marginal(Graph.from_edges([(0, 1)]), 0) == 0

    def test_single_free_edge(self):
        assert exact_marginal(Graph.from_edges([()]), 0) == Fraction(1, 2)

    def test_single_dangling_edge(self):
        assert exact_marginal(Graph.from_edges([(0,)]), 0) == 0

    def test_cycle4_edge(self):
        # of the 7 covers, only {1,3} and {1,2,3} omit edge 0
        assert exact_marginal(c4(), 0) == Fraction(2, 7)

    def test_no_cover_error(self):
        with pytest.raises(NoEdgeCoverError):
            exact_marginal(Graph([0, 1], [(0, (0,))]), 0)

    def test_unknown_edge(self):
        with pytest.raises(KeyError):
            exact_marginal(c4(), 9)


class TestOracleInvariants:
    def test_marginal_at_most_half_exhaustively(self):
        from covercount.verify import exhaustive_small_graphs

        rng = random.Random(11)
        graphs = exhaustive_small_graphs()
        graphs += [random_small_graph(rng, max_edges=10) for _ in range(250)]
        for g in graphs:
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                assert exact_marginal(g, e) <= Fraction(1, 2)

    def test_zero_count_iff_isolated_vertex(self):
        rng = random.Random(7)
        graphs = [Graph([0], []), Graph([0, 1], [(0, (0,))])]
        graphs += [random_small_graph(rng) for _ in range(150)]
        for g in graphs:
            assert (exact_count(g) == 0) == g.has_isolated_vertex()

    def test_free_edge_doubles_count(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_small_graph(rng)
            free_id = max(g.edge_ids) + 1
            extended = Graph(g.vertices, [(e, g.endpoints(e)) for e in g.edge_ids] + [(free_id, ())])
            assert exact_count(extended) == 2 * exact_count(g)

    def test_split_identity_on_normal_edges(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_small_graph(rng)
            for e in g.edge_ids:
                if g.classify(e) is not EdgeKind.NORMAL:
                    continue
                u, v = g.endpoints(e)
                without = g.remove_edge(e)
                conditioned = without.detach_vertex(u).detach_vertex(v)
                assert exact_count(g) == exact_count(without) + exact_count(conditioned)

    def test_dangling_chain_identity_exact_rationals(self):
        # the recursion for a dangling edge holds exactly:
        # marginal = (1 - prod) / (2 - prod) over the chain subinstances.
        # A zero factor (a forced sibling) zeroes the product and may leave
        # later subinstances coverless, so the walk stops there.
        rng = random.Random(19)
        checked = 0
        for _ in range(150):
            g = random_small_graph(rng)
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                if g.classify(e) is not EdgeKind.DANGLING:
                    continue
                prod = Fraction(1)
                for sub, child in dangling_subinstances(g, e):
                    if exact_count(sub) == 0:
                        assert prod == 0
                        break
                    prod *= exact_marginal(sub, child)
                    if prod == 0:
                        break
                assert exact_marginal(g, e) == (1 - prod) / (2 - prod)
                checked += 1
        assert checked > 20


class TestFrontierDp:
    def test_matches_independent_enumerator_on_small_graphs(self):
        from covercount.verify import exhaustive_small_graphs

        for g in exhaustive_small_graphs():
            assert exact_count(g) == independent_cover_count(g)

    def test_matches_independent_enumerator_on_multigraphs_and_their_subgraphs(self):
        # the deleted edge and the detached vertex leave gaps in the ids
        rng = random.Random(23)
        kinds = set()
        for g in seeded_multigraphs(500, max_edges=14):
            kinds.update(g.classify(e) for e in g.edge_ids)
            derived = [g.remove_edge(rng.choice(g.edge_ids))]
            if g.vertices:  # an all-free sample has none
                derived.append(g.detach_vertex(rng.choice(sorted(g.vertices))))
            for h in (g, *derived):
                assert exact_count(h) == independent_cover_count(h)
        assert kinds == set(EdgeKind)

    def test_huge_vertex_ids(self):
        a, b, c, d = 10**9, 10**9 + 7, 10**9 + 3, 10**9 + 12
        g = Graph.from_edges([(a, b), (b, c), (c, a), (c, d), (d,), (), (a, b)])
        assert exact_count(g) == independent_cover_count(g)

    def test_cycles_are_lucas_numbers(self):
        for n in [*range(3, 61), 2000]:
            assert exact_count(cycle_graph(n), cap=n) == lucas(n)

    def test_paths_are_fibonacci_numbers(self):
        for n in [*range(2, 61), 2000]:
            assert exact_count(path_graph(n), cap=n) == fibonacci(n - 1)


def test_import_pulls_in_no_numpy():
    code = "import covercount, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
