"""Exact edge-cover counts for the benchmark's input families.

These are the benchmark's own ground truth, in exact Python integers, so
that estimates can be checked far beyond the program's brute-force
oracle.  ``cross_check`` compares every family with
``covercount.oracle.exact_count`` at sizes the oracle can enumerate.
"""

from __future__ import annotations

import random

import gen


def lucas(n: int) -> int:
    """L_n, the number of edge covers of the n-cycle (L_1 = 1, L_2 = 3)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    """F_n, the number of edge covers of a path with n edges (F_1 = F_2 = 1)."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ring_cnf_count(privates: list[int]) -> int:
    """Satisfying assignments of ``gen.ring_cnf_text(privates)``.

    Trace of the product of 2x2 transfer matrices over the shared
    variables: clause i fails only when s_{i-1}, s_i and all its private
    variables are false.
    """
    m = [[1, 0], [0, 1]]
    for p in privates:
        full = 1 << p
        t = [[full - 1, full], [full, full]]
        m = [[sum(m[a][c] * t[c][b] for c in range(2)) for b in range(2)] for a in range(2)]
    return m[0][0] + m[1][1]


def grid_count(rows: int, cols: int) -> int:
    """Edge covers of the rows x cols grid by a column transfer matrix.

    The state is the set of rows whose vertex in the current column is
    already covered by a horizontal edge from the left.
    """
    full = (1 << rows) - 1
    nvert = rows - 1
    # covered[need] = number of vertical-edge subsets of one column that
    # touch every row in need
    touched = []
    for sub in range(1 << nvert):
        rows_hit = 0
        for i in range(nvert):
            if sub >> i & 1:
                rows_hit |= 0b11 << i
        touched.append(rows_hit)
    covered = [sum(1 for t in touched if need & ~t == 0) for need in range(1 << rows)]

    vec = {0: 1}
    for col in range(cols):
        outs = range(1 << rows) if col + 1 < cols else (0,)
        vec = {b: sum(w * covered[full & ~(a | b)] for a, w in vec.items()) for b in outs}
    return vec[0]


def vertex_inclusion_exclusion(n: int, edges: list[tuple[int, ...]]) -> int:
    """Sum over S of (-1)^|S| 2^(edges with no endpoint in S), for n <= 20.

    Works for any multigraph with dangling and free edges; the cost is
    2^n whatever the number of edges.
    """
    import numpy as np

    if n > 20:
        raise ValueError(f"inclusion-exclusion over {n} vertices is too large")
    subsets = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        parity ^= (subsets >> v) & 1
    avoid = np.zeros(1 << n, dtype=np.int64)
    for ends in edges:
        mask = 0
        for v in ends:
            mask |= 1 << v
        avoid += (subsets & mask) == 0
    hist = np.bincount(avoid * 2 + parity, minlength=2 * (len(edges) + 1))
    return sum((int(hist[2 * k]) - int(hist[2 * k + 1])) << k for k in range(len(edges) + 1))


def cross_check() -> None:
    """Raise AssertionError unless every family agrees with the oracle (m <= 20)."""
    from covercount import Graph, exact_count, parse_cnf, parse_graph, to_graph

    def check(label: str, ours: int, g: Graph) -> None:
        truth = exact_count(g)
        if ours != truth:
            raise AssertionError(f"{label}: reference {ours} != oracle {truth}")

    rng = random.Random(1309_6115)
    for n in range(3, 13):
        edges = gen.cycle_edges(n)
        text = gen.graph_file_text(n, edges, rng)
        check(f"cycle {n}", lucas(n), parse_graph(text))
    for n in range(2, 16):
        edges = gen.path_edges(n)
        check(f"path {n}", fibonacci(n - 1), parse_graph(gen.graph_file_text(n, edges, rng)))
    for k in (3, 5, 7):
        privates = gen.ring_privates(k, rng)
        g = to_graph(parse_cnf(gen.ring_cnf_text(privates)))
        if g.edge_count <= 20:
            check(f"ring cnf {privates}", ring_cnf_count(privates), g)
    for k in (3, 5, 7):
        privates = [1] * k
        check(f"ring cnf {privates}", ring_cnf_count(privates), to_graph(parse_cnf(gen.ring_cnf_text(privates))))
    for rows, cols in ((1, 5), (2, 2), (2, 5), (2, 7), (3, 3), (3, 4)):
        check(f"grid {rows}x{cols}", grid_count(rows, cols), Graph.from_edges(gen.grid_edges(rows, cols)))
    cases = [(5, gen.complete_edges(5)), (6, gen.complete_edges(6))]
    cases += [(8, gen.random_regular_edges(8, 4, rng)), (8, gen.random_regular_edges(8, 5, rng))]
    cases += [(10, gen.random_regular_edges(10, 3, rng))]
    # multigraphs with parallel, dangling and free edges
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(1, 14)):
            r = rng.random()
            if r < 0.1:
                edges.append(())
            elif r < 0.3 or n == 1:
                edges.append((rng.randrange(n),))
            else:
                edges.append(tuple(rng.sample(range(n), 2)))
        cases.append((n, edges))
    for n, edges in cases:
        g = Graph(range(n), list(enumerate(edges)))
        check(f"inclusion-exclusion n={n} m={len(edges)}", vertex_inclusion_exclusion(n, edges), g)
