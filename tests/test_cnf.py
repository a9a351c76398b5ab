import random
from itertools import product

import pytest

from covercount.cnf import CnfFormatError, RtwMonCnf, parse_cnf, render_cnf, to_graph
from covercount.counter import estimate_count
from covercount.graph import EdgeKind, Graph
from covercount.oracle import exact_count

EXAMPLE = "p cnf 3 2\n1 2 0\n2 3 0\n"


def truth_table_count(phi: RtwMonCnf) -> int:
    total = 0
    for bits in product((False, True), repeat=phi.num_vars):
        if all(any(bits[v - 1] for v in clause) for clause in phi.clauses):
            total += 1
    return total


def random_formula(rng: random.Random, max_vars: int = 12) -> RtwMonCnf:
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(0, max(1, num_vars))
    clauses = [set() for _ in range(num_clauses)]
    if num_clauses:
        for var in range(1, num_vars + 1):
            for _ in range(rng.randint(0, 2)):
                clauses[rng.randrange(num_clauses)].add(var)
    clauses = [frozenset(c) for c in clauses if c]
    return RtwMonCnf(num_vars, tuple(clauses))


class TestParse:
    def test_example(self):
        phi = parse_cnf(EXAMPLE)
        assert phi.num_vars == 3
        assert phi.clauses == (frozenset({1, 2}), frozenset({2, 3}))

    def test_comments_and_multiline_clauses(self):
        phi = parse_cnf("c a comment\np cnf 2 1\n1\n2 0\n")
        assert phi.clauses == (frozenset({1, 2}),)

    # a comment is any line whose first token starts with c: a bare "c", "cfoo" and "cnf 1 2" too
    @pytest.mark.parametrize(
        "text", ["c\np cnf 2 1\n1\nc\n2 0\n", "cfoo\np cnf 2 1\n 1\ncnf 1 2\n2 0\n"], ids=["bare-c", "c-word"]
    )
    def test_a_line_whose_first_token_starts_with_c_is_a_comment(self, text):
        assert parse_cnf(text).clauses == (frozenset({1, 2}),)

    def test_not_monotone(self):
        with pytest.raises(CnfFormatError, match="not monotone"):
            parse_cnf("p cnf 2 1\n1 -2 0\n")

    def test_not_read_twice(self):
        with pytest.raises(CnfFormatError, match="not read-twice"):
            parse_cnf("p cnf 2 3\n1 0\n1 2 0\n1 0\n")

    def test_empty_clause(self):
        with pytest.raises(CnfFormatError, match="unsatisfiable clause"):
            parse_cnf("p cnf 2 1\n0\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("p cnf x 1\n1 0\n", "non-integer"),
            ("p dnf 2 1\n1 0\n", "p cnf"),
            ("1 0\n", "before 'p cnf'"),
            ("p cnf 2 1\n1 two 0\n", "bad token"),
            ("p cnf 2 1\n1 2\n", "not terminated"),
            # the line of the last literal, not the line the clause began on
            ("p cnf 2 1\n1\n2\n", "^line 3: clause not terminated by 0$"),
            ("p cnf 2 2\n1 0\n", "declares 2 clauses"),
            ("p cnf 0 0\n", "positive"),
            ("p cnf 2 1\n1 3 0\n", "outside"),
        ],
    )
    def test_malformed_inputs(self, text, match):
        with pytest.raises(CnfFormatError, match=match):
            parse_cnf(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(CnfFormatError, match="line 3"):
            parse_cnf("p cnf 2 2\n1 0\n-2 0\n")

    def test_a_clause_that_is_not_a_frozenset_is_rejected(self):
        # a tuple could hold a variable twice, which to_graph would make a self-loop
        with pytest.raises(TypeError, match="clause 2 must be a frozenset, got tuple"):
            RtwMonCnf(2, (frozenset({1}), (2, 2)))

    @pytest.mark.parametrize(
        "clauses",
        [(frozenset({1, 2}) for _ in range(1)), [frozenset({1, 2})], iter((frozenset({1, 2}),))],
        ids=["generator", "list", "iterator"],
    )
    def test_clauses_that_are_not_a_tuple_are_rejected(self, clauses):
        # a generator would be used up by the checks, leaving x1 | x2 with no clause and 4 solutions
        with pytest.raises(TypeError, match="clauses must be a tuple, got "):
            RtwMonCnf(2, clauses)

    @pytest.mark.parametrize(
        "num_vars, clause, match",
        [
            # True equals variable 1 and would render as "True 2 0"
            (2, frozenset({True, 2}), "clause 1 has a variable of type bool, not int"),
            # 1.0 equals variable 1 but cannot index to_graph's table
            (2, frozenset({1.0, 2}), "clause 1 has a variable of type float, not int"),
            (2.5, frozenset({1, 2}), "variable count must be an int, got float"),
            # would render as "p cnf True 1"
            (True, frozenset({1}), "variable count must be an int, got bool"),
        ],
        ids=["bool-variable", "float-variable", "float-count", "bool-count"],
    )
    def test_a_variable_or_count_that_is_not_an_int_is_rejected(self, num_vars, clause, match):
        with pytest.raises(TypeError, match=match):
            RtwMonCnf(num_vars, (clause,))

    def test_duplicate_literal_in_clause_collapses(self):
        phi = parse_cnf("p cnf 1 1\n1 1 0\n")
        assert phi.clauses == (frozenset({1}),)
        g = to_graph(phi)
        assert g.classify(0) is EdgeKind.DANGLING


class TestToGraph:
    def test_example_reduction(self):
        g = to_graph(parse_cnf(EXAMPLE))
        assert g.vertex_count == 2
        assert g.classify(1) is EdgeKind.NORMAL  # the shared variable
        assert g.classify(0) is EdgeKind.DANGLING
        assert g.classify(2) is EdgeKind.DANGLING
        assert exact_count(g) == 5

    def test_single_positive_clause(self):
        g = to_graph(parse_cnf("p cnf 1 1\n1 0\n"))
        assert g.vertex_count == 1
        assert g.classify(0) is EdgeKind.DANGLING
        assert exact_count(g) == 1

    def test_unconstrained_variables_become_free_edges(self):
        g = to_graph(parse_cnf("p cnf 3 0\n"))
        assert g.vertex_count == 0
        assert all(g.classify(e) is EdgeKind.FREE for e in g.edge_ids)
        assert exact_count(g) == 8

    def test_variable_shared_by_two_singleton_clauses(self):
        g = to_graph(parse_cnf("p cnf 1 2\n1 0\n1 0\n"))
        assert g.classify(0) is EdgeKind.NORMAL
        assert exact_count(g) == 1

    def test_solution_counts_transfer(self):
        rng = random.Random(71)
        for _ in range(120):
            phi = random_formula(rng)
            assert truth_table_count(phi) == exact_count(to_graph(phi))

    def test_tables_equal_the_constructors_in_order(self):
        # ``==`` on graphs compares the tables as dicts, so compare them as lists
        rng = random.Random(83)
        for _ in range(300):
            phi = random_formula(rng, max_vars=rng.choice((3, 12, 40)))
            where = [[i for i, clause in enumerate(phi.clauses) if var in clause] for var in range(1, phi.num_vars + 1)]
            want = Graph(range(len(phi.clauses)), enumerate(where))
            g = to_graph(phi)
            assert list(g._edges.items()) == list(want._edges.items())
            assert list(g._adj.items()) == list(want._adj.items())

    def test_round_trip(self):
        rng = random.Random(73)
        for _ in range(60):
            phi = random_formula(rng)
            again = parse_cnf(render_cnf(phi))
            assert again == phi
            assert to_graph(again) == to_graph(phi)


class TestCountSolutions:
    def test_example_within_ten_percent(self):
        value = estimate_count(to_graph(parse_cnf(EXAMPLE)), 0.1).value
        assert 4.5 <= value <= 5.5

    def test_unconstrained_formula_exact(self):
        phi = parse_cnf("p cnf 10 0\n")
        assert estimate_count(to_graph(phi), 0.5).value == 1024.0

    def test_guarantee_on_random_formulas(self):
        rng = random.Random(79)
        for _ in range(40):
            phi = random_formula(rng, max_vars=10)
            exact = truth_table_count(phi)
            value = estimate_count(to_graph(phi), 0.2).value
            if exact == 0:
                assert value == 0.0
            else:
                assert abs(value / exact - 1.0) <= 0.2
