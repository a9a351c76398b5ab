import random
from itertools import product

import pytest

from covercount.cnf import CnfFormatError, RtwMonCnf, parse_cnf, render_cnf, to_graph
from covercount.counter import estimate_count
from covercount.graph import EdgeKind
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
