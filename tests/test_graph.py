import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from covercount.graph import EdgeKind, Graph, GraphFormatError, format_graph, parse_graph


def fig1a() -> Graph:
    # degree-3 vertex 0 carrying a dangling edge plus two normal edges
    return Graph.from_edges([(0,), (0, 1), (0, 2)])


class TestClassify:
    def test_normal(self):
        g = Graph.from_edges([(0, 1)])
        assert g.classify(0) is EdgeKind.NORMAL

    def test_dangling(self):
        assert fig1a().classify(0) is EdgeKind.DANGLING

    def test_free(self):
        g = Graph.from_edges([()])
        assert g.classify(0) is EdgeKind.FREE

    def test_unknown_edge(self):
        with pytest.raises(KeyError):
            fig1a().classify(99)


class TestRemoveEdge:
    def test_triangle_minus_edge_is_path(self):
        k3 = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        g = k3.remove_edge(0)
        assert g.edge_count == 2
        assert g.vertices == k3.vertices
        assert g.classify(1) is EdgeKind.NORMAL
        assert g.classify(2) is EdgeKind.NORMAL
        # the original value is untouched
        assert k3.edge_count == 3
        assert k3.endpoints(0) == (0, 1)

    def test_dangling_removal_keeps_other_edges(self):
        g = fig1a().remove_edge(0)
        assert g.incident_edges(0) == (1, 2)

    def test_single_free_edge_to_empty(self):
        g = Graph.from_edges([()]).remove_edge(0)
        assert g.edge_count == 0
        assert g.vertex_count == 0

    def test_unknown_edge(self):
        with pytest.raises(KeyError):
            fig1a().remove_edge(7)


class TestCondition:
    def test_normal_edge_leaves_its_endpoints_edges_dangling_or_free(self):
        # edge 1 dangles at 0, edge 2 joins 1 and 2
        g = Graph.from_edges([(0, 1), (0,), (1, 2)]).condition(0)
        assert g.edge_ids == (1, 2)
        assert g.classify(1) is EdgeKind.FREE
        assert g.endpoints(2) == (2,)
        assert g.vertices == frozenset({2})

    def test_dangling_edge_leaves_two_disjoint_dangling_edges(self):
        g = fig1a().condition(0)
        assert g.endpoints(1) == (1,)
        assert g.endpoints(2) == (2,)
        assert g.vertices == frozenset({1, 2})

    def test_free_edge_leaves_the_vertices(self):
        g = Graph([0, 1], [(0, ()), (1, (0, 1))]).condition(0)
        assert g.edge_ids == (1,)
        assert g.endpoints(1) == (0, 1)
        assert g.vertices == frozenset({0, 1})

    def test_parallel_copy_ends_free(self):
        g = Graph.from_edges([(0, 1), (0, 1), (1, 2)]).condition(0)
        assert g.classify(1) is EdgeKind.FREE
        assert g.endpoints(2) == (2,)

    def test_unknown_edge(self):
        with pytest.raises(KeyError, match="unknown edge id 42"):
            fig1a().condition(42)

    def test_the_original_is_unchanged(self):
        base = Graph.from_edges([(0, 1), (1, 2), (1,)])
        before = format_graph(base)
        for e in base.edge_ids:
            base.condition(e)
        assert format_graph(base) == before
        assert base.incident_edges(1) == (0, 1, 2)


class TestIncidentEdges:
    def test_degree_three_vertex_in_id_order(self):
        assert fig1a().incident_edges(0) == (0, 1, 2)

    def test_isolated(self):
        g = Graph([0], [])
        assert g.incident_edges(0) == ()

    def test_parallel_edges_listed_per_copy(self):
        g = Graph.from_edges([(0, 1), (0, 1)])
        assert g.incident_edges(0) == (0, 1)
        assert len(g.incident_edges(0)) == 2


class TestIsolatedVertex:
    def test_lone_vertex(self):
        assert Graph([0], []).has_isolated_vertex()

    def test_single_normal_edge(self):
        assert not Graph.from_edges([(0, 1)]).has_isolated_vertex()

    def test_dangling_leaves_other_isolated(self):
        assert Graph([0, 1], [(0, (0,))]).has_isolated_vertex()


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph([0], [(0, (0, 0))])

    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            Graph([0, 1], [(0, (0, 1)), (0, (0, 1))])

    def test_undeclared_endpoint(self):
        with pytest.raises(ValueError, match="undeclared vertex"):
            Graph([0], [(0, (0, 1))])

    def test_too_many_endpoints(self):
        with pytest.raises(ValueError, match="at most 2"):
            Graph([0, 1, 2], [(0, (0, 1, 2))])


@settings(max_examples=150, deadline=None)
@given(g=graphs(), data=st.data())
def test_condition_equals_an_independent_build(g: Graph, data):
    if not g.edge_count:
        return
    e = data.draw(st.sampled_from(g.edge_ids))
    gone = set(g.endpoints(e))
    want = Graph(g.vertices - gone, [(x, [u for u in g.endpoints(x) if u not in gone]) for x in g.edge_ids if x != e])
    h = g.condition(e)
    assert h == want
    # both id orders and every incidence list, as the constructor builds them
    assert repr(h) == repr(want)
    assert all(h.incident_edges(v) == want.incident_edges(v) for v in want.vertices)


@settings(max_examples=150, deadline=None)
@given(g=graphs(), data=st.data())
def test_conditioning_commutes(g: Graph, data):
    if g.edge_count < 2:
        return
    e, f = data.draw(st.lists(st.sampled_from(g.edge_ids), min_size=2, max_size=2, unique=True))
    assert g.condition(e).condition(f) == g.condition(f).condition(e)


@settings(max_examples=150, deadline=None)
@given(g=graphs(), data=st.data())
def test_remove_edge_shrinks_edges_only(g: Graph, data):
    if not g.edge_count:
        return
    e = data.draw(st.sampled_from(g.edge_ids))
    h = g.remove_edge(e)
    assert h.edge_count == g.edge_count - 1
    assert h.vertices == g.vertices


@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_incident_edges_strictly_increasing(g: Graph):
    for v in g.vertices:
        ids = g.incident_edges(v)
        assert all(a < b for a, b in zip(ids, ids[1:]))


class TestTextFormat:
    def test_round_trip(self):
        g = Graph.from_edges([(0, 1), (1,), (), (1, 2)])
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# cycle\nv 0\nv 1\n\ne 0 0 1  # the only edge\n"
        g = parse_graph(text)
        assert g.edge_count == 1
        assert g.endpoints(0) == (0, 1)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("v 0\nv 0\n", "duplicate vertex"),
            ("v 0\nd 0 0\nd 0 0\n", "duplicate edge"),
            ("v 0\ne 0 0 1\n", "undeclared vertex"),
            ("v 0\ne 0 0 0\n", "self-loop"),
            ("x 0\n", "unknown item"),
            ("v -1\n", "nonnegative"),
            ("v zero\n", "expected an integer"),
            ("v 0\nd 1\n", "arguments"),
        ],
    )
    def test_errors_carry_line_info(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            parse_graph(text)

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("v 0\nv 1\ne 0 0 2\n")

    # one fault per file: the exact message and line each fault gives
    @pytest.mark.parametrize(
        "text, message",
        [
            ("v 0\nv 0\n", "line 2: duplicate vertex id 0"),
            ("v 0\nd 0 0\nd 0 0\n", "line 3: duplicate edge id 0"),
            ("v 3\ne 0 3 3\n", "line 2: self-loop at vertex 3 is rejected"),
            ("f 0\ne 1 2 9\nv 2\n", "line 2: undeclared vertex 9"),
            ("e 0 5 4\n", "line 1: undeclared vertex 5"),
            ("v 0\n# c\n\nq 1\n", "line 4: unknown item 'q'"),
            ("v 0\nd 0 -3\n", "line 2: ids must be nonnegative, got -3"),
            ("v 0\ne 0 0 1.5\n", "line 2: expected an integer, got '1.5'"),
            ("v 0 1\n", "line 1: 'v' takes one integer argument"),
            ("v 0\ne 0 0\n", "line 2: 'e' takes 3 integer arguments"),
            ("v 0\nd 1\n", "line 2: 'd' takes 2 integer arguments"),
            ("f 0 1\n", "line 1: 'f' takes one integer argument"),
        ],
        ids=[
            "dup-vertex", "dup-edge", "self-loop", "undeclared", "undeclared-first-end", "unknown-item",
            "negative", "non-integer", "arity-v", "arity-e", "arity-d", "arity-f",
        ],
    )
    def test_single_fault_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == message
