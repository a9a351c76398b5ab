"""Shared corpora and graph strategies for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

from hypothesis import strategies as st

from covercount.graph import Graph

# child interpreters (`python -m covercount`) import the package from src/ as well
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Seeds fixed so every run sweeps the identical corpus.
RANDOM_CORPUS_SEED = 20_240_801


@st.composite
def graphs(draw, max_vertices: int = 6, max_edges: int = 9) -> Graph:
    """Small multigraphs mixing normal, dangling, free, and parallel edges."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    ends = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "dangling", "normal", "normal"]))
        if kind == "free":
            ends.append(())
        elif kind == "dangling" or n == 1:
            ends.append((draw(st.integers(0, n - 1)),))
        else:
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 2))
            if v >= u:
                v += 1
            ends.append((u, v))
    return Graph(range(n), list(enumerate(ends)))


def seeded_multigraphs(count: int, max_edges: int = 14, seed: int = RANDOM_CORPUS_SEED):
    from covercount.generate import random_multigraph

    return [random_multigraph(seed + i, max_edges=max_edges) for i in range(count)]


def path_graph(n: int) -> Graph:
    """The path on vertices 0..n-1, edge i joining i and i + 1."""
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def wide_frontier_graph(hubs: int) -> Graph:
    """Hubs 0..hubs-1, each joined to leaves hubs+i and 2*hubs+i: 2*hubs edges.

    The oracle's walk reaches every hub through its first leaf edge before
    any hub's second one, so all hubs are open at once (frontier width
    ``hubs``).  Every edge is a leaf's only edge, so the count is 1.
    """
    return Graph.from_edges([(i, hubs + i) for i in range(hubs)] + [(i, 2 * hubs + i) for i in range(hubs)])


def complete_multigraph(n: int, t: int = 1, d: int = 0, f: int = 0) -> Graph:
    """K_n on vertices 0..n-1 with t parallel edges per pair, then d dangling
    edges at each vertex, then f free edges, ids 0..m-1 in that order."""
    ends = [(i, j) for i in range(n) for j in range(i + 1, n) for _ in range(t)]
    ends += [(v,) for v in range(n) for _ in range(d)]
    ends += [()] * f
    return Graph(range(n), list(enumerate(ends)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides 0..a-1 and a..a+b-1, edges in row-major order."""
    return Graph.from_edges([(i, a + j) for i in range(a) for j in range(b)])


def independent_cover_count(g: Graph) -> int:
    """Reference enumerator kept separate from the package oracle: every
    edge subset, a bitmask over the edges, is checked against every
    vertex's mask of incident edges."""
    bit = {e: 1 << i for i, e in enumerate(g.edge_ids)}
    masks = [sum(bit[e] for e in g.incident_edges(v)) for v in g.vertices]
    return sum(all(map(subset.__and__, masks)) for subset in range(1 << len(bit)))


def random_small_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 10) -> Graph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, max_edges)
    ends = []
    for _ in range(m):
        r = rng.random()
        if r < 0.1:
            ends.append(())
        elif r < 0.3 or n == 1:
            ends.append((rng.randrange(n),))
        else:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            ends.append((u, v))
    return Graph.from_edges(ends)


def lucas(n: int) -> int:
    """Lucas number L(n): the edge-cover count of the n-cycle, in exact integers."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    """Fibonacci number F(n), F(1) = F(2) = 1: the n-vertex path has F(n - 1) edge covers."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def scattered_id_graph() -> Graph:
    """A multigraph whose ids are far from 0..m-1 and 0..n-1.

    Edge ids reach 10**12 and past 2**40, vertex ids 10**15; it has a
    parallel pair, two dangling edges and a free edge, and no id order
    agrees with the order the edges are listed in.
    """
    a, b, c, d, e = 5, 10**15, 123_456_789, 10**15 + 1, 2
    edges = [
        (10**12, (a, b)),
        (7, (b, a)),  # parallel to 10**12
        (10**12 + 1, (b, c)),
        (3, (c, d)),
        (500, (d, a)),
        (10**13, (b,)),
        (2**41, ()),
        (11, (c, e)),
        (12, (e,)),
        (10**12 + 7, (d, b)),
    ]
    return Graph([a, b, c, d, e], edges)
