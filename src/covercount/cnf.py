"""Read-twice monotone CNF and its reduction to edge covers.

Clauses become vertices and variables become edges: a variable in two
clauses is a normal edge between them, in one clause a dangling edge, in
none a free edge.  Satisfying assignments biject with edge covers of the
derived graph, so ``estimate_count(to_graph(phi), eps)`` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


class CnfFormatError(ValueError):
    """Malformed or out-of-fragment DIMACS input."""


@dataclass(frozen=True)
class RtwMonCnf:
    """Monotone CNF in which every variable occurs in at most two clauses.

    Clauses are frozensets of positive 1-based ``int`` variable indices (a
    ``bool`` is not one); a duplicated literal inside one clause counts as a
    single occurrence.
    """

    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        # as in Graph(...): a bool or a float passes the range checks, but renders or indexes wrongly
        if type(self.num_vars) is not int:
            raise TypeError(f"variable count must be an int, got {type(self.num_vars).__name__}")
        if self.num_vars < 1:
            raise CnfFormatError(f"variable count must be positive, got {self.num_vars}")
        # a one-shot iterable would be used up here, and to_graph would see no clause
        if not isinstance(self.clauses, tuple):
            raise TypeError(f"clauses must be a tuple, got {type(self.clauses).__name__}")
        occurrences: dict[int, int] = {}
        for i, clause in enumerate(self.clauses):
            # to_graph relies on it: in a frozenset each variable occurs once
            if not isinstance(clause, frozenset):
                raise TypeError(f"clause {i + 1} must be a frozenset, got {type(clause).__name__}")
            if not clause:
                raise CnfFormatError(f"clause {i + 1} is empty: unsatisfiable clause")
            for var in clause:
                if type(var) is not int:
                    raise TypeError(f"clause {i + 1} has a variable of type {type(var).__name__}, not int")
                if not 1 <= var <= self.num_vars:
                    raise CnfFormatError(f"clause {i + 1} references variable {var} outside 1..{self.num_vars}")
                occurrences[var] = occurrences.get(var, 0) + 1
                if occurrences[var] > 2:
                    raise CnfFormatError(f"not read-twice: variable {var} occurs in more than 2 clauses")


def parse_cnf(text: str) -> RtwMonCnf:
    """Parse the positive-literal DIMACS subset.

    Header ``p cnf <vars> <clauses>``; clause lines are positive integers
    terminated by 0 (a clause may span lines); ``c`` lines are comments.
    """
    num_vars = None
    declared = None
    clauses: list[frozenset[int]] = []
    pending: list[int] = []
    pending_line = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if not toks or toks[0].startswith("c"):
            continue
        if toks[0].startswith("p"):
            if num_vars is not None:
                raise CnfFormatError(f"line {lineno}: duplicate header")
            if len(toks) != 4 or toks[1] != "cnf":
                raise CnfFormatError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, declared = int(toks[2]), int(toks[3])
            except ValueError:
                raise CnfFormatError(f"line {lineno}: non-integer header fields") from None
            continue
        if num_vars is None:
            raise CnfFormatError(f"line {lineno}: clause before 'p cnf' header")
        for tok in toks:
            try:
                lit = int(tok)
            except ValueError:
                raise CnfFormatError(f"line {lineno}: bad token {tok!r}") from None
            if lit < 0:
                raise CnfFormatError(f"line {lineno}: not monotone: negative literal {lit}")
            if lit == 0:
                if not pending:
                    raise CnfFormatError(f"line {lineno}: unsatisfiable clause (empty)")
                clauses.append(frozenset(pending))
                pending = []
            else:
                pending.append(lit)
        if pending:  # a clause left open at EOF is reported at the last line that left it open
            pending_line = lineno

    if num_vars is None:
        raise CnfFormatError("missing 'p cnf' header")
    if pending:
        raise CnfFormatError(f"line {pending_line}: clause not terminated by 0")
    if declared != len(clauses):
        raise CnfFormatError(f"header declares {declared} clauses but found {len(clauses)}")
    return RtwMonCnf(num_vars, tuple(clauses))


def render_cnf(phi: RtwMonCnf) -> str:
    """DIMACS text that :func:`parse_cnf` maps back to an equal formula."""
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(v) for v in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"


def to_graph(phi: RtwMonCnf) -> Graph:
    """Derived graph: vertex i per clause i, edge v-1 per variable v.

    ``phi`` was validated when it was built, so the tables go straight to
    ``Graph._raw``: a variable lies in at most two clauses, each a set, and
    clause indices are appended in order, so every edge's ends are
    distinct and ascending, and so is every clause's list of variables.
    """
    where: list[list[int]] = [[] for _ in range(phi.num_vars)]  # clause indices per variable
    for i, clause in enumerate(phi.clauses):
        for var in clause:
            where[var - 1].append(i)
    inc: list[list[int]] = [[] for _ in phi.clauses]  # edge ids per clause
    for e, ends in enumerate(where):
        for i in ends:
            inc[i].append(e)
    return Graph._raw(dict(enumerate(map(tuple, where))), dict(enumerate(map(tuple, inc))))
