import ast
import collections
import inspect
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    complete_multigraph,
    path_graph,
    random_small_graph,
    scattered_id_graph,
    seeded_multigraphs,
)
from covercount import estimator, oracle
from covercount.counter import elimination_chain, estimate_count
from covercount.estimator import (
    ContractViolationError,
    dangling_combine,
    depth_sweep,
    estimate_marginal,
    normal_combine,
)
from covercount.generate import cycle_graph, random_multigraph
from covercount.graph import EdgeKind, Graph
from covercount.oracle import exact_count, exact_marginal
from covercount.verify import FLOAT_SLACK, exhaustive_small_graphs
from reference import (
    dangling_subinstances,
    depth_discount,
    normal_subinstances,
    reference_marginal,
)


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

    @pytest.mark.parametrize(
        "bad, named",
        [
            ((-0.1, 1.0, 1.0), "x=-0.1"),
            ((1.0, 1.2, 1.0), "y=1.2"),
            ((0.5, -0.5, 0.5), "y=-0.5"),
            ((1.0, 1.0, 2.0), "z=2.0"),
            ((0.5, 0.5, -0.0001), "z=-0.0001"),
            ((0.5, math.nan, 3.0), "y=nan"),
            ((1.5, -1.0, math.inf), "x=1.5"),
        ],
    )
    def test_the_first_out_of_range_product_is_named(self, bad, named):
        with pytest.raises(ContractViolationError, match=rf"^product {re.escape(named)} outside \[0, 1\]$"):
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

    def test_node_stream_matches_reference_recursion(self):
        # pins the --trace stream: same nodes, same order, same values
        mismatched = []
        for seed in range(300):
            g = random_multigraph(seed, max_edges=14)
            for e in g.edge_ids:
                for depth in range(9):
                    got, want = [], []
                    value = estimate_marginal(g, e, depth, on_node=lambda *a: got.append(a))
                    expected = reference_marginal(g, e, depth, on_node=lambda *a: want.append(a))
                    if value.hex() != expected.hex() or got != want:
                        mismatched.append((seed, e, depth))
        assert mismatched == []

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
        nodes = 0

        def counting(fn):
            def counted(*args):
                nonlocal nodes
                nodes += 1
                return fn(*args)

            return counted

        # roots enter _recurse; every dangling node below them is a _dangling call
        monkeypatch.setattr(estimator, "_recurse", counting(estimator._recurse))
        monkeypatch.setattr(estimator, "_dangling", counting(estimator._dangling))
        for e in g.edge_ids:
            nodes = 0
            depth_sweep(g, e, 12)
            swept = nodes
            nodes = 0
            for L in range(13):
                estimate_marginal(g, e, L)
            assert 0 < swept < nodes


def assert_chains_agree(g: Graph, depth: int) -> None:
    """The untraced chain, the traced chain and the reference chain agree bit for bit on every
    marginal, the node count and the hook stream, and each step walked untraced on one workspace,
    none taken from a keep, agrees with the reference on its value, nodes and truncation."""
    want, expected, steps_seen = [], [], []  # the reference's hook stream, marginals, and per step
    for h, e in elimination_chain(g):
        stream = []
        expected.append((e, reference_marginal(h, e, depth, lambda *a: stream.append(a)).hex()))
        steps_seen.append((any(branch == "base" for *_, branch in stream), len(stream)))
        want += stream
    got = []
    for on_node in (None, lambda *a: got.append(a)):
        marginals, nodes = estimator.chain_marginals(g, depth, on_node)
        assert [(e, p.hex()) for e, p in marginals] == expected
        assert nodes == len(want)
    assert got == want
    ws = estimator._Workspace(g)
    walked = []
    for i in range(len(ws.ids)):
        ws.truncated, nodes = False, ws.nodes
        assert estimator._recurse(ws, i, depth).hex() == expected[i][1]
        walked.append((ws.truncated, ws.nodes - nodes))
        ws.condition(i)
    assert walked == steps_seen


class TestNextStepKept:
    """A normal root's first X or Z child that is the chain's next edge is that step's whole tree."""

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],  # K4: edge 1 is edge 0's first X child
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],  # path: edge 1 meets edge 0 at v, the first Z child
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],  # cycle: edge 1 the first Z child, after X's edge 4
            [(0, 1), (0, 1), (1, 2), (0, 2), (2, 3)],  # edge 1 a parallel copy of edge 0
            [(0, 1), (2, 3), (1, 2), (0, 3), (1, 3)],  # edge 1 meets neither end of edge 0
        ],
        ids=["k4", "path6", "cycle5", "parallel", "disjoint"],
    )
    def test_chain_matches_the_reference_chain(self, edges):
        g = Graph.from_edges(edges)
        steps = elimination_chain(g)
        for depth in range(8):
            got, want = [], []
            expected = [(e, reference_marginal(h, e, depth, lambda *a: want.append(a)).hex()) for h, e in steps]
            # untraced, the kept steps are taken from the keep; traced, every step is walked
            for on_node in (None, lambda *a: got.append(a)):
                marginals, nodes = estimator.chain_marginals(g, depth, on_node)
                assert [(e, p.hex()) for e, p in marginals] == expected
                assert nodes == len(want)
            assert got == want

    @pytest.mark.parametrize(
        "edges, entered",
        [([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 1), ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 2)],
        ids=["k4", "path6"],
    )
    def test_the_next_root_is_not_entered(self, edges, entered, monkeypatch):
        # edge 1 is entered as edge 0's first X child (K4), or as its Y and then its first Z child
        # (path); untraced, not again as step 1's root, and traced, once more as that root
        g = Graph.from_edges(edges)
        roots = []  # the edge number of every _recurse call
        recurse = estimator._recurse

        def logged(ws, e, depth):
            roots.append(e)
            return recurse(ws, e, depth)

        monkeypatch.setattr(estimator, "_recurse", logged)
        for on_node, walked in ((None, 0), (lambda *a: None, 1)):
            roots.clear()
            estimator.chain_marginals(g, 4, on_node)
            assert roots.count(1) == entered + walked


class TestPairedWalk:
    """Untraced, a normal root walks its Y and Z families in one pass; traced, Y and then Z."""

    @staticmethod
    def branches(monkeypatch) -> collections.Counter:
        # what each untraced normal root does with each live edge at v, read from the workspace
        # on entry, and the kernel's fallbacks: any _dangling call made under a _paired frame
        seen = collections.Counter()
        recurse, dangling, paired = estimator._recurse, estimator._dangling, estimator._paired
        inside = 0

        def logged_recurse(ws, e, depth):
            ends = [w for w in ws.ends[e] if ws.vert_live[w]]
            if len(ends) == 2 and depth > 0 and ws.on_node is None:
                u, v = ends
                for c in ws.inc[v]:
                    if c != e and ws.edge_live[c]:
                        w = ws.far[c] ^ v
                        kind = "paired" if w != v and ws.vert_live[w] else "free"  # v is still live here
                        seen["parallel" if w == u else "next" if c == e + 1 else kind] += 1
            return recurse(ws, e, depth)

        def logged_paired(*args):
            nonlocal inside
            inside += 1
            try:
                return paired(*args)
            finally:
                inside -= 1

        def logged_dangling(*args):
            seen["fallback"] += inside > 0
            return dangling(*args)

        monkeypatch.setattr(estimator, "_recurse", logged_recurse)
        monkeypatch.setattr(estimator, "_paired", logged_paired)
        monkeypatch.setattr(estimator, "_dangling", logged_dangling)
        return seen

    @pytest.mark.parametrize(
        "g, depths, reached",
        [
            (complete_multigraph(8), range(1, 5), {"fallback", "paired"}),  # Y's 5 siblings cost 1, Z's 6 cost 2
            (complete_bipartite(2, 70), (2, 3), {"fallback"}),  # 69 siblings, past the step table
            (random_multigraph(148), range(1, 8), {"parallel", "free", "paired"}),
            (random_multigraph(258), range(1, 8), {"parallel", "free", "paired", "next"}),
            (cycle_graph(9), range(1, 8), {"next"}),  # edge e + 1 is the root's one edge at v
        ],
        ids=["k8", "k2x70", "multi148", "multi258", "cycle9"],
    )
    def test_untraced_traced_and_reference_chains_agree(self, g, depths, reached, monkeypatch):
        seen = self.branches(monkeypatch)
        for depth in depths:
            assert_chains_agree(g, depth)
        assert reached <= {branch for branch, n in seen.items() if n}


def bare_exit(ws, e: int, u: int, depth: int) -> str:
    # where the walk of an untraced root e dangling at u, a vertex with two edges, ends, read from the
    # workspace on entry: at the table, or at the first exit it meets
    if depth >= estimator._TABLE_SIZE:
        return "past the table"
    came, w, t = e, u, depth
    while True:
        (b,) = (x for x in ws.inc[w] if x != came)
        if not ws.edge_live[b]:
            return "cleared"
        if t == 1:
            return "table"
        x = ws.far[b] ^ w
        if x == w:
            return "dangles"
        if not ws.vert_live[x]:
            return "dead"
        if len(ws.inc[x]) != 2:
            return "end" if len(ws.inc[x]) == 1 else "branch"
        came, w, t = b, x, t - 1


class TestBareRun:
    """Untraced, a dangling root whose tree is a bare run of single-child nodes is answered from a table."""

    @staticmethod
    def exits(monkeypatch) -> collections.Counter:
        seen = collections.Counter()
        recurse = estimator._recurse

        def logged(ws, e, depth):
            ends = [w for w in ws.ends[e] if ws.vert_live[w]]
            if len(ends) == 1 and depth > 0 and ws.on_node is None and len(ws.inc[ends[0]]) == 2:
                seen[bare_exit(ws, e, ends[0], depth)] += 1
            return recurse(ws, e, depth)

        monkeypatch.setattr(estimator, "_recurse", logged)
        return seen

    def test_the_table_is_the_kernel_fold(self):
        p = 0.5
        for d in range(estimator._TABLE_SIZE):
            assert estimator._BARE[d].hex() == p.hex()
            p = dangling_combine([p])
        assert estimator._BARE[1] == estimator._LEAVES[1]

    @pytest.mark.parametrize(
        "edges, depths, reached",
        [
            ([(i, i + 1) for i in range(11)], range(1, 9), {"table"}),
            ([(i, i + 1) for i in range(5)], range(1, 9), {"table", "end"}),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)], range(1, 9), {"branch"}),  # vertex 3 has three edges
            ([(i, (i + 1) % 9) for i in range(9)], range(1, 9), {"dead"}),  # the last steps run into vertex 0
            ([(0, 1), (1, 2), (2, 3), (3,)], range(1, 9), {"table", "dangles"}),  # edge 3 dangles at vertex 3
            # edge 0's X children 1 and 2: 2's run meets 1 at vertex 2, cleared as it came back
            ([(0, 1), (0, 2), (0, 3), (3, 4), (2, 4), (1, 5)], range(1, 9), {"dead", "cleared"}),
            ([(0, 1), (0, 2), (0, 2), (1, 3)], range(1, 6), {"table", "dead", "cleared"}),  # a parallel pair at 2
            ([(i, i + 1) for i in range(70)], (63, 64, 66), {"table", "past the table"}),
        ],
        ids=["truncated", "end", "branch", "dead", "dangles", "cleared", "parallel", "past-table"],
    )
    def test_untraced_traced_and_reference_chains_agree(self, edges, depths, reached, monkeypatch):
        seen = self.exits(monkeypatch)
        g = Graph.from_edges(edges)
        for depth in depths:
            assert_chains_agree(g, depth)
        assert reached <= {name for name, n in seen.items() if n}

    def test_depth_sweep_on_a_long_path_matches_each_depth(self):
        # a dangling root (edge 0), normal roots at the ends and in the middle; the sweep stops at the
        # first depth with no truncated leaf, so a run answered from the table must report its truncation
        g = Graph.from_edges([(0,)] + [(i, i + 1) for i in range(60)])
        for e in (0, 1, 2, 30, 60):
            sweep = depth_sweep(g, e, 70)
            assert [x.hex() for x in sweep] == [estimate_marginal(g, e, L).hex() for L in range(71)]
            assert sweep[62] == reference_marginal(g, e, 62)


class TestScatteredIds:
    """Ids far from 0..m-1 are renumbered inside the workspace and nowhere else."""

    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1])
    def test_count_matches_the_reference_chain(self, eps):
        g = scattered_id_graph()
        got = []
        result = estimate_count(g, eps, on_node=lambda *a: got.append(a))
        want = []
        chain = [
            (e, reference_marginal(h, e, result.depth_used, on_node=lambda *a: want.append(a)).hex())
            for h, e in elimination_chain(g)
        ]
        assert [(e, p.hex()) for e, p in result.marginals] == chain
        assert got == want
        assert result.nodes == len(got)

    def test_marginals_and_sweeps_match_the_reference(self):
        g = scattered_id_graph()
        for e in g.edge_ids:
            sweep = depth_sweep(g, e, 6)
            for depth in range(7):
                got, want = [], []
                value = estimate_marginal(g, e, depth, on_node=lambda *a: got.append(a))
                expected = reference_marginal(g, e, depth, on_node=lambda *a: want.append(a))
                assert value.hex() == expected.hex() == sweep[depth].hex()
                assert got == want

    @pytest.mark.parametrize("e", [0, 2, 4, 8, 13, 499, 10**12 + 2, 10**12 + 8, 2**41 + 1])
    def test_an_id_below_between_or_above_the_edge_ids_is_unknown(self, e):
        g = scattered_id_graph()
        for marginal in (lambda: estimate_marginal(g, e, 3), lambda: depth_sweep(g, e, 6)):
            with pytest.raises(KeyError) as raised:
                marginal()
            assert raised.value.args == (f"unknown edge id {e}",)

    def test_dense_ids_declared_out_of_order_match_the_reference(self):
        # ids 0..n-1 and 0..m-1 need no translation, so the workspace relies
        # on the graph holding them in ascending order whatever the input order
        edges = [(5, (3, 4)), (0, (0, 1)), (4, (2, 3)), (1, (1, 2)), (6, (4, 5)), (2, (0, 1)), (3, (5,))]
        g = Graph([4, 1, 0, 3, 2, 5], edges + [(7, (0, 5)), (8, (2,))])
        for e in g.edge_ids:
            for depth in range(5):
                got, want = [], []
                value = estimate_marginal(g, e, depth, on_node=lambda *a: got.append(a))
                expected = reference_marginal(g, e, depth, on_node=lambda *a: want.append(a))
                assert value.hex() == expected.hex()
                assert got == want

    def test_workspace_memory_grows_with_edges_not_id_values(self):
        g = scattered_id_graph()
        tracemalloc.start()
        try:
            ws = estimator._Workspace(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ws.ends) == len(ws.edge_live) == g.edge_count
        assert len(ws.inc) == len(ws.vert_live) == g.vertex_count
        assert ws.ids == list(g.edge_ids)
        assert peak < 16_384


class TestDanglingKernel:
    """The kernel's per-sibling-count tables against the definitions they cache."""

    @staticmethod
    def hub(siblings):
        # edge 0 dangles at vertex 0 next to `siblings` edges (0, i), all dead
        g = Graph.from_edges([(0,), *((0, i) for i in range(1, siblings + 1))])
        ws = estimator._Workspace(g)
        for i in range(1, siblings + 1):
            ws.edge_live[i] = False
        return ws

    def test_discount_table_matches_depth_discount(self):
        assert all(estimator._STEPS[k] == 10 - depth_discount(10, k) for k in range(estimator._TABLE_SIZE))
        # past the table's end, through the fallback's step at k + 1 = 217
        ws = self.hub(230)
        for k in range(231):
            if k:
                ws.edge_live[k] = True
            nodes = []
            ws.on_node = lambda *a: nodes.append(a)
            estimator._dangling(ws, 0, 0, 10)
            assert [d for d, *_ in nodes] == [10] + [depth_discount(10, k)] * k

    def test_all_truncated_value_matches_dangling_combine(self):
        # past k = 1074 the product 2^-k underflows to zero
        ws = self.hub(1100)
        for k in range(1101):
            if k:
                ws.edge_live[k] = True
            ws.truncated = False
            value = estimator._dangling(ws, 0, 0, 1)
            assert value.hex() == dangling_combine([0.5] * k).hex()
            assert ws.truncated == (k > 0)

    # The kernel folds no value it did not make: 1/2 for a free child, a _LEAVES entry, or a
    # kernel return (1 - p)/(2 - p) for p a product of such values or the empty product 1, so p
    # is in [0, 1].  Halving is exact, so fl(2 - p)/2 = fl(1 - p/2) >= fl(1 - p) by monotone
    # rounding, and the quotient stays in [0, 1/2]; that is why the fold checks no range.
    @staticmethod
    def assert_folds_into_half_interval(p):
        assert 0.0 <= (1.0 - p) / (2.0 - p) <= 0.5, p.hex()

    def test_every_value_the_kernel_folds_lies_in_the_half_interval(self):
        assert all(0.0 <= x <= 0.5 for x in estimator._LEAVES)
        ulp_edges = [0.0, 2.0**-1074, 2.0**-54, 2.0**-53, 3 * 2.0**-54, 2.0**-52, 0.5, 1.0 - 2.0**-53, 1.0]
        # every binade down to the smallest subnormal, at its bottom, middle and top
        scaled = [math.ldexp(m, -e) for m in (1.0, 1.5, 2.0 - 2.0**-52) for e in range(1, 1075)]
        for p in ulp_edges + scaled:
            self.assert_folds_into_half_interval(p)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_the_fold_maps_any_product_into_the_half_interval(self, p):
        self.assert_folds_into_half_interval(p)


class TestFarEndsAndFlags:
    """The workspace's far-end table, and the flags the kernel leaves behind."""

    @staticmethod
    def corpus():
        # dense ids, then the translation path
        return [*exhaustive_small_graphs(), *seeded_multigraphs(200), scattered_id_graph()]

    def test_far_end_is_the_other_endpoint_or_the_dangling_end_itself(self):
        dangling = normal = 0
        for g in self.corpus():
            ws = estimator._Workspace(g)
            vert_no = {v: i for i, v in enumerate(sorted(g.vertices))}
            for x, e in enumerate(ws.ids):
                ends = [vert_no[v] for v in g.endpoints(e)]
                for u, w in zip(ends, reversed(ends)):
                    assert ws.far[x] ^ u == w, (e, g.endpoints(e))
                dangling += len(ends) == 1
                normal += len(ends) == 2
        assert dangling and normal

    def test_the_kernel_clears_its_own_flag_and_restores_every_other(self):
        rng = random.Random(26)
        for g in self.corpus():
            for on_node in (None, lambda *a: None):
                ws = estimator._Workspace(g, on_node)
                for e in range(len(ws.ids)):
                    for u, v in zip(ws.ends[e], reversed(ws.ends[e])):
                        # e dangles at u: its other end, if it has one, is dead, and so are some other edges
                        if v != u:
                            ws.vert_live[v] = False
                        for x in rng.sample(range(len(ws.ids)), len(ws.ids) // 4):
                            if x != e:
                                ws.edge_live[x] = False
                        edge_live, vert_live = list(ws.edge_live), list(ws.vert_live)
                        estimator._dangling(ws, e, u, rng.randint(1, 5))
                        edge_live[e] = False
                        assert ws.edge_live == edge_live
                        assert ws.vert_live == vert_live
                        ws.edge_live[:] = [True] * len(ws.ids)
                        ws.vert_live[v] = True


@pytest.mark.parametrize(
    "fn",
    [estimator._recurse, estimator._ahead, estimator._dangling, estimator._paired, oracle._step],
    ids=lambda f: f.__name__,
)
def test_per_node_frames_build_no_nested_function(fn):
    # Before Python 3.12 each of these but a def is a function object and a
    # frame per evaluation, and every nested function turns the locals it
    # reads into closure cells.  Read from the source, so the check does not
    # depend on the running version.
    nested = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda, ast.FunctionDef)
    (own,) = ast.parse(inspect.getsource(fn)).body
    found = [type(n).__name__ for n in ast.walk(own) if isinstance(n, nested) and n is not own]
    assert found == []


class TestDecayBounds:
    def test_theorem_bound_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(150):
            g = random_small_graph(rng)
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                exact = exact_marginal(g, e)
                for depth in range(0, 13):
                    err = abs(Fraction(estimate_marginal(g, e, depth)) - exact)
                    assert err <= 3 * 0.5 ** (depth + 1)

    def test_sharper_bound_for_dangling_and_free(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_small_graph(rng)
            if exact_count(g) == 0:
                continue
            for e in g.edge_ids:
                if g.classify(e) is EdgeKind.NORMAL:
                    continue
                exact = exact_marginal(g, e)
                for depth in range(0, 13):
                    err = abs(Fraction(estimate_marginal(g, e, depth)) - exact)
                    assert err <= 0.5 ** (depth + 1)

    def test_full_depth_is_exact_on_acyclic_instances(self):
        from covercount.generate import star_graph

        instances = [path_graph(n) for n in range(2, 9)]
        instances += [star_graph(n) for n in range(2, 9)]
        for g in instances:
            max_degree = max(len(g.incident_edges(v)) for v in g.vertices)
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


class TestEnclosure:
    """``reference_marginal``'s bound modes in exact rationals against the
    oracle's exact marginals, over every small simple graph and random
    multigraphs."""

    HALF = Fraction(1, 2)
    SLACK = Fraction(1, 2**48)  # the float point's distance from the exact enclosure

    def test_lo_and_hi_enclose_the_exact_marginal_and_the_point(self):
        graphs = exhaustive_small_graphs() + [random_multigraph(s, max_edges=12) for s in range(7000, 7050)]
        checks = 0
        misses = []
        for g in graphs:
            z, without = oracle.exact_count_without(g)
            if z == 0:
                continue
            for e in g.edge_ids:
                exact = Fraction(without[e], z)
                # the decay lemma bounds each end by 3/2^(L+1), or 1/2^(L+1) at a dangling or free root
                reach = 3 if g.classify(e) is EdgeKind.NORMAL else 1
                for depth in range(7):
                    lo = reference_marginal(g, e, depth, a=Fraction(0), b=self.HALF)
                    hi = reference_marginal(g, e, depth, a=self.HALF, b=Fraction(0))
                    point = estimate_marginal(g, e, depth)
                    checks += 1
                    if not lo <= exact <= hi:
                        misses.append(("exact", g, e, depth, lo, exact, hi))
                    if not lo - self.SLACK <= Fraction(point) <= hi + self.SLACK:
                        misses.append(("point", g, e, depth, lo, point, hi))
                    if hi - lo > reach * self.HALF**depth:
                        misses.append(("width", g, e, depth, lo, hi))
        assert checks > 3000
        assert misses == []

    def test_the_float_point_mode_is_the_kernel_bit_for_bit(self):
        for g in seeded_multigraphs(60, max_edges=12):
            for e in g.edge_ids:
                for depth in (0, 1, 2, 4):
                    assert reference_marginal(g, e, depth, a=0.5, b=0.5) == estimate_marginal(g, e, depth)

    def test_a_forced_normal_root_is_zero_in_either_bound_mode(self):
        # vertex 0 has no edge but e = 0; the true marginal is 0
        g = Graph.from_edges([(0, 1), (1, 2), (1, 2), (2,)])
        for a, b in ((Fraction(0), self.HALF), (self.HALF, Fraction(0))):
            assert reference_marginal(g, 0, 3, a=a, b=b) == 0
        assert exact_marginal(g, 0) == 0


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
