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
    return Graph.from_edges(ends, extra_vertices=range(n))


def seeded_multigraphs(count: int, max_edges: int = 14, seed: int = RANDOM_CORPUS_SEED):
    from covercount.generate import random_multigraph

    return [random_multigraph(seed + i, max_edges=max_edges) for i in range(count)]


def independent_cover_count(g: Graph) -> int:
    """Reference enumerator kept separate from the package oracle."""
    ids = list(g.edge_ids)
    total = 0
    for bits in range(1 << len(ids)):
        chosen = {ids[i] for i in range(len(ids)) if bits >> i & 1}
        if all(any(e in chosen for e in g.incident_edges(v)) for v in g.vertices):
            total += 1
    return total


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
