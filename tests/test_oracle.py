import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import (
    complete_bipartite,
    complete_multigraph,
    fibonacci,
    graphs,
    independent_cover_count,
    lucas,
    path_graph,
    random_small_graph,
    scattered_id_graph,
    seeded_multigraphs,
    wide_frontier_graph,
)
from covercount.generate import cycle_graph
from covercount.graph import EdgeKind, Graph
from covercount.oracle import NoEdgeCoverError, OracleSizeError, exact_count, exact_count_without, exact_marginal
from reference import complete_bipartite_count, complete_multigraph_count, dangling_subinstances, frontier_width

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        g = wide_frontier_graph(25)
        with pytest.raises(OracleSizeError, match="oracle too large"):
            exact_count(g)
        assert exact_count(g, cap=25) == 1

    def test_the_cap_is_the_opens_less_closes_width(self):
        from covercount.verify import exhaustive_small_graphs

        grids = [
            Graph.from_edges(
                [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
            )
            for rows in range(1, 7)
            for cols in range(2, 7)
        ]
        corpus = exhaustive_small_graphs() + seeded_multigraphs(300, max_edges=30)
        corpus += [wide_frontier_graph(h) for h in range(1, 27)] + grids
        corpus += [scattered_id_graph(), Graph.from_edges([(0, 1)])]
        refused = 0
        for g in corpus:
            w = frontier_width(g)
            assert exact_count(g, cap=w) >= 0
            if w >= 1 and not g.has_isolated_vertex():
                with pytest.raises(OracleSizeError, match=f"a frontier of {w} vertices exceeds the cap of {w - 1}$"):
                    exact_count(g, cap=w - 1)
                refused += 1
        assert frontier_width(Graph.from_edges([(0, 1)])) == 0
        assert frontier_width(wide_frontier_graph(26)) == 26
        assert refused > 300

    def test_free_edges_hold_no_frontier(self):
        assert exact_count(Graph.from_edges([()] * 30)) == 2**30

    @settings(max_examples=300, deadline=None)
    @given(g=graphs())
    def test_a_cap_of_the_edge_count_never_refuses(self, g):
        # an open vertex has a walked and a pending edge, so the width is at most m
        assert exact_count(g, cap=g.edge_count) == independent_cover_count(g)

    def test_a_cap_of_the_edge_count_never_refuses_30_edge_multigraphs(self):
        for g in seeded_multigraphs(200, max_edges=30):
            assert exact_count(g, cap=g.edge_count) > 0  # the generator leaves no isolated vertex

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
                assert exact_count(g) == exact_count(g.remove_edge(e)) + exact_count(g.condition(e))

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


def per_edge_counts(g: Graph) -> tuple[int, dict[int, int]]:
    """``exact_count_without``'s answer, one forward DP per graph."""
    return exact_count(g), {e: exact_count(g.remove_edge(e)) for e in g.edge_ids}


class TestExactCountWithout:
    def test_matches_per_edge_counts_on_every_small_graph(self):
        from covercount.verify import exhaustive_small_graphs

        for g in exhaustive_small_graphs():
            assert exact_count_without(g) == per_edge_counts(g)

    def test_matches_per_edge_counts_on_multigraphs(self):
        kinds = set()
        parallel = zeros = 0
        for g in seeded_multigraphs(300, max_edges=14):
            z, without = exact_count_without(g)
            assert (z, without) == per_edge_counts(g)
            assert list(without) == list(g.edge_ids)
            kinds.update(g.classify(e) for e in g.edge_ids)
            pairs = [g.endpoints(e) for e in g.edge_ids if g.classify(e) is EdgeKind.NORMAL]
            parallel += len(pairs) > len(set(pairs))
            zeros += 0 in without.values()  # some edge is the only one at a vertex
        assert kinds == set(EdgeKind)
        assert parallel > 20 and zeros > 20

    def test_the_empty_graph(self):
        assert exact_count_without(Graph([], [])) == (1, {})

    def test_free_edges_only(self):
        assert exact_count_without(Graph.from_edges([()] * 5)) == (32, dict.fromkeys(range(5), 16))

    def test_an_isolated_vertex_zeroes_every_count(self):
        g = Graph([0, 1, 2, 3], [(0, (0, 1)), (1, (1,)), (2, ()), (5, (0, 1))])
        assert exact_count_without(g) == (0, {0: 0, 1: 0, 2: 0, 5: 0})
        assert per_edge_counts(g) == exact_count_without(g)

    def test_a_graph_over_the_cap_is_refused_with_exact_counts_message(self):
        g = wide_frontier_graph(25)
        with pytest.raises(OracleSizeError) as without_error:
            exact_count_without(g)
        with pytest.raises(OracleSizeError) as count_error:
            exact_count(g)
        assert str(without_error.value) == str(count_error.value)
        assert "oracle too large" in str(without_error.value)
        assert exact_count_without(g, cap=25)[0] == exact_count(g, cap=25) == 1

    def test_is_not_a_package_name(self):
        import covercount

        assert "exact_count_without" not in covercount.__all__


class TestFrontierDp:
    def test_matches_independent_enumerator_on_small_graphs(self):
        from covercount.verify import exhaustive_small_graphs

        for g in exhaustive_small_graphs():
            assert exact_count(g) == independent_cover_count(g)

    def test_matches_independent_enumerator_on_multigraphs_and_their_subgraphs(self):
        # the deleted edge, and the conditioned edge with its endpoints, leave gaps in the ids
        rng = random.Random(23)
        kinds = set()
        gapped = 0
        for g in seeded_multigraphs(500, max_edges=14):
            kinds.update(g.classify(e) for e in g.edge_ids)
            without, conditioned = g.remove_edge(rng.choice(g.edge_ids)), g.condition(rng.choice(g.edge_ids))
            ids = conditioned.edge_ids, sorted(conditioned.vertices)
            gapped += all(list(x) != list(range(len(x))) for x in ids)
            for h in (g, without, conditioned):
                assert exact_count(h) == independent_cover_count(h)
        assert kinds == set(EdgeKind)
        assert gapped > 100  # 204 of the 500 conditioned graphs have a gap in both id sets

    def test_huge_vertex_ids(self):
        a, b, c, d = 10**9, 10**9 + 7, 10**9 + 3, 10**9 + 12
        g = Graph.from_edges([(a, b), (b, c), (c, a), (c, d), (d,), (), (a, b)])
        assert exact_count(g) == independent_cover_count(g)

    def test_cycles_are_lucas_numbers(self):
        for n in [*range(3, 61), 2000]:
            assert exact_count(cycle_graph(n)) == lucas(n)

    def test_paths_are_fibonacci_numbers(self):
        for n in [*range(2, 61), 2000]:
            assert exact_count(path_graph(n)) == fibonacci(n - 1)


class TestClosedForms:
    """The complete families' closed forms, against the DP and perfbench's
    general inclusion-exclusion sum."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complete_multigraphs_match_the_dp(self, n):
        for t in (1, 2):
            for d in (0, 1, 2):
                for f in (0, 1):
                    assert complete_multigraph_count(n, t, d, f) == exact_count(complete_multigraph(n, t, d, f))

    def test_complete_bipartite_graphs_match_the_dp(self):
        for a in range(1, 4):
            for b in range(1, 5):
                assert complete_bipartite_count(a, b) == exact_count(complete_bipartite(a, b))

    @pytest.mark.parametrize("n, t, d, f", [(6, 1, 0, 0), (7, 1, 0, 0), (6, 2, 1, 1), (7, 1, 2, 0)])
    def test_complete_multigraphs_match_the_vertex_inclusion_exclusion(self, monkeypatch, n, t, d, f):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import exact

        g = complete_multigraph(n, t, d, f)
        edges = [g.endpoints(e) for e in g.edge_ids]
        assert complete_multigraph_count(n, t, d, f) == exact.vertex_inclusion_exclusion(n, edges)


def test_import_pulls_in_no_numpy():
    code = "import covercount, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
