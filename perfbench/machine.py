"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by 15-30% over minutes, so
raw run times spread by more than any useful regression bound.  The
drift is common to pure-Python work of every kind: two unrelated loops
timed alternately in ~0.7 s blocks correlate at 0.96.  So each worker
times a fixed pure-Python ``chunk`` after every operation, and scales
each operation's time by ``REF_S`` over the median time of the chunks
right around it (set-up by chunks right after it): seconds at the
reference speed, where a chunk takes ``REF_S``.
A drift of machine speed moves the chunks too and cancels.

The chunk shares no code with the program and allocates no object the
garbage collector tracks (only ints and a dict of ints), so it never
starts a collection: a program that leaves more live objects behind
does not make the chunk slower.  NOTES.md gives the measured effect of
the scaling, and a check that an injected slowdown of the program moves
scaled and unscaled times alike.
"""

import statistics
from time import perf_counter

REF_S = 0.0069  # typical chunk time, inside a worker, on the 2-core host the bounds were set on


def chunk() -> float:
    """Time a fixed mix of integer arithmetic and dict churn (about 7 ms)."""
    start = perf_counter()
    x = 0
    for i in range(50_000):
        x = (x * 31 + i) & 0xFFFFFF
    d = {}
    for i in range(20_000):
        d[i] = i ^ x
    for i in range(20_000):
        x ^= d.pop(i)
    return perf_counter() - start


class Calibration:
    """Chunk times measured through one process's life."""

    def __init__(self):
        chunk()  # the first chunk of a process runs cold
        self.times: list[float] = []

    def tick(self) -> None:
        self.times.append(chunk())

    def factor(self) -> float:
        """Multiply a raw time by this to get seconds at the reference speed."""
        return REF_S / statistics.median(self.times)

    def factor_around(self, j: int, n: int) -> float:
        """The factor for an operation followed by chunks j..j+n-1.

        It uses the n chunks before the operation, its own n and the n
        after the next operation: the machine's speed right around it.
        """
        return REF_S / statistics.median(self.times[max(0, j - n) : j + 2 * n])
