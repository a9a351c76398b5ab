"""One fresh process of a benchmark run.

It sets up a workload (imports the program, builds the inputs), then,
by ``--mode``:

* ``setup``: stops there and reports only the set-up time;
* ``time``: runs untraced passes over the workload's operations;
* ``trace``: runs untraced passes, then passes under ``tracing.Tracer``,
  then one pass under ``tracing.NodeCounter``.

``run.py`` starts it with the program's ``src`` on PYTHONPATH and reads
the JSON object on its last stdout line.  The exact answers are read
from ``refs.json`` in the work directory, where ``run.py`` wrote them,
so that their computation is not in this process's time or peak RSS.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import machine
import workloads
from workloads import FAILED, WRONG

SETUP_CHUNKS = 10  # calibration chunks right after set-up
CHUNKS_PER_OP = 2


class Tally:
    """Outcomes of every operation this process ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.err_over_eps_max = 0.0
        self.failures: dict[str, str] = {}

    def record(self, op, result, exc) -> None:
        self.attempted += 1
        if exc is not None:
            status, reason = FAILED, f"{type(exc).__name__}: {exc}"
        else:
            status, err = op.check(op, result)
            self.err_over_eps_max = max(self.err_over_eps_max, err)
            reason = "count not finite or nonzero exit" if status == FAILED else "outside the eps guarantee"
        if status in (FAILED, WRONG):
            self.failed += 1
            self.wrong += status == WRONG
            self.failures[op.label] = f"{status}: {reason}"


def run_pass(ops, tally: Tally, calib: machine.Calibration) -> list[float]:
    """Run every operation once and return the per-op times.

    Calibration chunks follow each operation (see machine.py).
    Results are checked after the pass, outside the timed region.
    """
    outcomes = []
    times = []
    for op in ops:
        # Each operation starts with no garbage left by the one before,
        # so its time and the process's peak RSS do not depend on when
        # the collector last ran.
        gc.collect()
        t = time.perf_counter()
        try:
            outcomes.append((op.run(), None))
        except Exception as exc:  # a failed operation is counted, never fatal
            outcomes.append((None, exc))
        times.append(time.perf_counter() - t)
        for _ in range(CHUNKS_PER_OP):
            calib.tick()
    for op, (result, exc) in zip(ops, outcomes):
        tally.record(op, result, exc)
    return times


def passes(
    ops, tally: Tally, calib: machine.Calibration, budget: float, min_passes: int, each=None
) -> tuple[list[float], list[float]]:
    """Run passes until ``min_passes`` are done and another would overrun ``budget``.

    Returns every operation's raw time and its speed factor, pass after
    pass.  An operation's factor comes from the chunks run right before
    and right after it (see machine.py), so that the scaling follows
    the machine's drift within a process.
    """
    op_times, marks, walls = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + statistics.median(walls) <= budget:
        if each is not None:
            each.before()
        first = len(calib.times)
        times = run_pass(ops, tally, calib)
        if each is not None:
            each.after()
        marks.extend(range(first, len(calib.times), CHUNKS_PER_OP))
        walls.append(sum(times))
        op_times.extend(times)
    return op_times, [calib.factor_around(j, CHUNKS_PER_OP) for j in marks]


def pass_factors(op_times: list[float], factors: list[float], k: int) -> list[tuple[float, float]]:
    """(raw time, speed factor) of each pass of k operations."""
    out = []
    for j in range(0, len(op_times), k):
        raw = sum(op_times[j : j + k])
        out.append((raw, sum(t * f for t, f in zip(op_times[j : j + k], factors[j : j + k])) / raw))
    return out


class TracedPasses:
    """Marks pass boundaries in a tracer's span list."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.starts: list[int] = []
        self.layers: list[dict] = []

    def before(self) -> None:
        self.starts.append(len(self.tracer.names))

    def after(self) -> None:
        self.layers.append(self.tracer.layers(self.starts[-1], len(self.tracer.names)))


def trace_run(ops, tally: Tally, calib: machine.Calibration, budget: float, spans_path: Path) -> dict:
    import tracing

    k = len(ops)
    untraced = pass_factors(*passes(ops, tally, calib, budget / 3, 1), k)
    untraced_s = statistics.median(w * f for w, f in untraced)

    tracer = tracing.Tracer()
    marks = TracedPasses(tracer)
    tracer.install()
    try:
        traced = pass_factors(*passes(ops, tally, calib, budget / 3, 1, marks), k)
    finally:
        tracer.restore()
    traced_s = statistics.median(w * f for w, f in traced)
    tracer.dump(spans_path, marks.starts)
    # seconds at the reference speed, as in the untraced run
    for layers, (_, f) in zip(marks.layers, traced):
        for key in layers:
            if key.endswith(("_s", "_us")):
                layers[key] *= f

    nodes = tracing.NodeCounter()
    nodes.install()
    try:
        run_pass(ops, tally, calib)
    finally:
        nodes.restore()

    out = {key: statistics.median_low(p[key] for p in marks.layers) for key in marks.layers[0]}
    out["oracle.subsets"] = tracer.subsets // len(marks.starts)
    out["counter.depth_max"] = tracer.depth_max
    out.update(nodes.metrics())
    # The recursion runs inside estimate_marginal, or, if a later program
    # stops calling that name from estimate_count, in the count's own
    # time; the sum covers both.
    n = out["estimator.nodes"]
    recursion_s = out["counter.self_s"] + out["estimator.marginal_s"]
    out["estimator.ns_per_node"] = recursion_s / n * 1e9 if n else 0.0
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(workloads.GENERATE), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "time", "trace"], required=True)
    p.add_argument("--budget", type=float, default=0.0, help="seconds of passes to run")
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    specs = workloads.GENERATE[args.workload](args.seed, args.workdir / "inputs")

    # set-up: from before the program is imported until its inputs are built
    calib = machine.Calibration()
    calib.tick()
    start = time.perf_counter()
    ops = workloads.make_ops(specs)
    out = {"setup_raw_s": time.perf_counter() - start, "ops_per_pass": len(ops)}
    for _ in range(SETUP_CHUNKS):
        calib.tick()
    out["setup_factor"] = calib.factor()
    if args.mode != "setup":
        refs = json.loads((args.workdir / "refs.json").read_text())
        for op in ops:
            op.exact = refs.get(op.label)
        tally = Tally()
        if args.mode == "time":
            out["op_times_raw"], out["op_factors"] = passes(
                ops, tally, calib, args.budget, workloads.MIN_PASSES[args.workload]
            )
        else:
            out["layers"] = trace_run(ops, tally, calib, args.budget, args.workdir / "spans.tsv")
        out.update(
            attempted=tally.attempted,
            failed=tally.failed,
            wrong=tally.wrong,
            failures=tally.failures,
            err_over_eps_max=tally.err_over_eps_max,
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
