"""covercount benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload dense-deep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run first cross-checks the benchmark's exact references against the
program's brute-force oracle, then computes the workload's exact
answers once and writes them to the work directory, so that no
measuring process spends time or memory on them.  With ``--trace 0`` it
then starts ``SETUPS`` fresh worker processes one after another: the first
``MEASURED`` split ``--seconds`` of untraced passes between them, the
rest only set up.  With ``--trace 1`` one worker runs the traced
passes (see worker.py).  Times are reported in seconds at a reference
machine speed (see machine.py).  The last stdout line is the JSON
result; failed operations are listed on stderr.  NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import exact
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 11  # set-up samples behind setup_s
MEASURED = 4  # processes that share the timed passes
DEADLINE_S = 170  # the whole run ends within this, or fails

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "graph.parse_s": "s",
    "cnf.parse_s": "s",
    "cnf.to_graph_s": "s",
    "counter.count_s": "s",
    "counter.chain_s": "s",
    "counter.self_s": "s",
    "counter.depth_max": "count",
    "estimator.marginal_s": "s",
    "estimator.marginal_calls": "count",
    "estimator.call_us": "us",
    "estimator.nodes": "count",
    "estimator.nodes_base": "count",
    "estimator.nodes_free": "count",
    "estimator.nodes_dangling": "count",
    "estimator.nodes_normal": "count",
    "estimator.truncated_ratio": "ratio",
    "estimator.ns_per_node": "ns",
    "oracle.count_s": "s",
    "oracle.count_calls": "count",
    "oracle.subsets": "count",
    "verify.self_s": "s",
    "verify.sensitivity_s": "s",
    "accuracy.err_over_eps_max": "ratio",
    "trace.overhead_ratio": "ratio",
}


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def start_worker(workload: str, seed: int, mode: str, budget: float, deadline: float) -> dict:
    # EC_THREADS=1: the tracer's span stack and the serial on_node pass
    # assume the program runs its marginals on one thread.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", EC_THREADS="1")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--mode={mode}",
        f"--budget={budget}",
        f"--workdir={workdir(workload)}",
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workdir(workload: str) -> Path:
    return ROOT / ".perfbench_work" / workload


def write_references(workload: str, seed: int) -> None:
    """Compute the exact answer of every operation that has one, by label."""
    specs = workloads.GENERATE[workload](seed, workdir(workload) / "inputs")
    refs = {label: reference() for label, _, _, _, reference in specs if reference is not None}
    assert len({spec[0] for spec in specs}) == len(specs), "operation labels must be unique"
    (workdir(workload) / "refs.json").write_text(json.dumps(refs))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of the samples at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=list(workloads.GENERATE), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "covercount" / "__init__.py").is_file():
        return fail(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import covercount

    if Path(covercount.__file__).resolve().parent != SRC / "covercount":
        return fail(f"covercount imported from {covercount.__file__}, not from {SRC}")

    try:
        exact.cross_check()
    except AssertionError as exc:
        return fail(f"exact reference disagrees with the oracle: {exc}")
    workdir(args.workload).mkdir(parents=True, exist_ok=True)
    write_references(args.workload, args.seed)

    try:
        if args.trace:
            runs = [start_worker(args.workload, args.seed, "trace", args.seconds, deadline)]
        else:
            runs = [
                start_worker(args.workload, args.seed, "time", args.seconds / MEASURED, deadline)
                for _ in range(MEASURED)
            ]
            setups = [start_worker(args.workload, args.seed, "setup", 0.0, deadline) for _ in range(SETUPS - MEASURED)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = {label: why for r in runs for label, why in r["failures"].items()}
    for label, why in sorted(failures.items()):
        print(f"failed op: {label}: {why}", file=sys.stderr)

    err_over_eps_max = max(r["err_over_eps_max"] for r in runs)
    if args.trace:
        values = runs[0]["layers"]
        values["accuracy.err_over_eps_max"] = err_over_eps_max
    else:
        # times in seconds at the reference machine speed, each operation
        # scaled by its own factor (see machine.py)
        k = runs[0]["ops_per_pass"]
        raw = [t for r in runs for t in r["op_times_raw"]]
        scaled = [t * f for r in runs for t, f in zip(r["op_times_raw"], r["op_factors"])]
        passes = [scaled[j : j + k] for j in range(0, len(scaled), k)]
        walls = [sum(times) for times in passes]
        # each operation's median over its repeats; the median of those is
        # immune to noise reordering the repeats of two operations
        per_op = [statistics.median(times[i] for times in passes) for i in range(k)]
        # the highest quantile with ten samples beyond it, fixed by the
        # fewest samples a run can take
        q = 1.0 - 10.0 / (MEASURED * workloads.MIN_PASSES[args.workload] * k)
        values = {
            "setup_s": statistics.median(r["setup_raw_s"] * r["setup_factor"] for r in runs + setups),
            "wall_s": statistics.median(walls),
            "op_s_p50": statistics.median(per_op),
            "op_s_tail": quantile(scaled, q),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        print(f"op_s_tail is the p{100 * q:.1f} of {len(scaled)} per-operation samples")
        factors = [f for r in runs for f in r["op_factors"]]
        print(
            "unscaled: setup_s %.6g wall_s %.6g; operation speed factors %.4f-%.4f, median %.4f"
            % (
                statistics.median(r["setup_raw_s"] for r in runs + setups),
                statistics.median(sum(raw[j : j + k]) for j in range(0, len(raw), k)),
                min(factors),
                max(factors),
                statistics.median(factors),
            )
        )
        print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
        print(f"err_over_eps_max {err_over_eps_max:.6g} (worst |estimate/exact - 1| / eps)")

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
