"""Deterministic graph families and seeded random multigraphs.

The random generator is the replay contract for `verify` and the test
corpora: a seed fully determines the instance.  Construction per edge
slot: free with probability ``FREE_PROB``, dangling at a uniform vertex
with probability ``DANGLING_PROB``, otherwise a uniform unordered pair
of distinct vertices (repeats allowed, so parallel edges occur).
Vertices that end up with no incident edge slot are dropped, so sampled
graphs always have at least one edge cover.
"""

from __future__ import annotations

import random

from .graph import Graph

DANGLING_PROB = 0.2
FREE_PROB = 0.1


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to n-1 leaves."""
    if n < 2:
        raise ValueError(f"star needs at least 2 vertices, got {n}")
    return Graph.from_edges([(0, i) for i in range(1, n)])


def random_multigraph(seed: int, max_vertices: int = 7, max_edges: int = 14) -> Graph:
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    if max_edges < 1:
        raise ValueError(f"max_edges must be at least 1, got {max_edges}")
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, max_edges)
    ends: list[tuple[int, ...]] = []
    for _ in range(m):
        r = rng.random()
        if r < FREE_PROB:
            ends.append(())
        elif r < FREE_PROB + DANGLING_PROB or n == 1:
            ends.append((rng.randrange(n),))
        else:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            ends.append((u, v))
    used = sorted({w for e in ends for w in e})
    relabel = {w: i for i, w in enumerate(used)}
    return Graph.from_edges([tuple(relabel[w] for w in e) for e in ends])
