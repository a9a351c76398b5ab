"""Seeded input generators for the benchmark.

Everything here is plain Python over ``random.Random``: the same seed
always yields the same text or edge list.  The generators write their
own formats rather than calling the package's formatters, so a change to
the program cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random


def ring_privates(k: int, rng: random.Random) -> list[int]:
    """Private-variable counts (0..2) for the k clauses of a ring CNF."""
    return [rng.randint(0, 2) for _ in range(k)]


def ring_cnf_text(privates: list[int]) -> str:
    """DIMACS text of a read-twice monotone ring CNF.

    Clause i holds the shared variable s_{i-1}, its own private
    variables, then s_i (indices mod k), so each clause shares exactly
    one variable with the next.  Variables are numbered in ring order,
    which fixes the elimination order of the derived graph's edges.
    """
    k = len(privates)
    if k < 3:
        raise ValueError(f"a ring CNF needs at least 3 clauses, got {k}")
    clauses: list[list[int]] = []
    shared: list[int] = []
    nxt = 1
    for p in privates:
        clause = list(range(nxt, nxt + p))
        nxt += p
        shared.append(nxt)
        clause.append(nxt)
        nxt += 1
        clauses.append(clause)
    for i, clause in enumerate(clauses):
        clause.insert(0, shared[i - 1])
    lines = [f"c ring read-twice monotone CNF, {k} clauses", f"p cnf {nxt - 1} {k}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def graph_file_text(n: int, edges: list[tuple[int, ...]], rng: random.Random) -> str:
    """Graph-format text with edge ids 0..m-1 in list order.

    Vertex labels are a seeded permutation and the lines are shuffled;
    neither changes the count or the recursion, which follow edge ids.
    """
    label = list(range(n))
    rng.shuffle(label)
    lines = [f"v {label[v]}" for v in range(n)]
    for eid, ends in enumerate(edges):
        tag = "fde"[len(ends)]
        lines.append(" ".join([tag, str(eid), *(str(label[v]) for v in ends)]))
    rng.shuffle(lines)
    return "# seeded benchmark input\n" + "\n".join(lines) + "\n"


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Row-major grid: each vertex's right then down edge."""
    out = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                out.append((v, v + 1))
            if i + 1 < rows:
                out.append((v, v + cols))
    return out


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform simple d-regular graph by the pairing model with rejection.

    Edges come back sorted, so the elimination order depends only on the
    graph drawn.
    """
    if n * d % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    points = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == len(points) // 2 and all(u != v for u, v in pairs):
            return sorted(pairs)
