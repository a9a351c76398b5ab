"""Best-of-N wall time of ``estimate_count`` on cycles, grids and complete
graphs, for one or more checkouts.

    python scripts/bench_cycles.py --out BENCH_flat_workspace.json \\
        --side parent=../parent/src:grid6x6,k8,cycle1000 \\
        --side change=src:grid6x6,k8,cycle1000

Each ``--side LABEL=SRC:INSTANCES`` names a checkout's ``src`` directory
and the instances to run on it: ``cycle<n>`` (a bare ``<n>`` means the
same), ``grid<r>x<c>`` and ``k<n>``.  Every (side, instance) runs in
``PROCESSES`` fresh interpreters with that ``src`` on PYTHONPATH, the
sides taking turns within each instance (the first side leads in even
rounds, the last in odd ones).  In each process one untimed count with
an ``on_node`` counter gives the recursion node total, then
``--repeats`` timed counts give that process's best wall time.  Each
row is one process; ``ratios`` holds, per instance, the median over
rounds of each side's best time over the first side's best in the same
round.  The output records the machine's ``nproc`` and the Python
version with the rows.  Each row also holds the count's ``value_hex``
(``ApproxCount.value.hex()``); after writing the record the script
exits nonzero if two sides disagree on ``nodes`` or ``value_hex`` for
the same instance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESSES = 5  # fresh interpreters per (side, instance)


def build(instance: str):
    """The graph an instance name stands for, built in the child interpreter."""
    from covercount.generate import cycle_graph
    from covercount.graph import Graph

    name = instance.lower()
    if name.isdigit():
        return cycle_graph(int(name))
    if name.startswith("cycle"):
        return cycle_graph(int(name[5:]))
    if name.startswith("grid"):
        r, c = (int(tok) for tok in name[4:].split("x"))
        edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
        edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
        return Graph.from_edges(edges)
    if name.startswith("k"):
        n = int(name[1:])
        return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])
    raise ValueError(f"unknown instance {instance!r}; expected cycle<n>, grid<r>x<c> or k<n>")


def measure(instance: str, eps: float, repeats: int) -> dict:
    """Run inside the child interpreter."""
    from covercount.counter import estimate_count

    g = build(instance)
    nodes = 0

    def bump(*_):
        nonlocal nodes
        nodes += 1

    result = estimate_count(g, eps, on_node=bump)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        estimate_count(g, eps)
        walls.append(time.perf_counter() - start)
    best = min(walls)
    return {
        "instance": instance,
        "n": g.vertex_count,
        "m": g.edge_count,
        "depth": result.depth_used,
        "nodes": nodes,
        "value_hex": result.value.hex(),
        "best_s": best,
        "walls_s": walls,
        "us_per_edge": best / g.edge_count * 1e6,
        "ns_per_node": best / nodes * 1e9,
    }


def run_child(src: Path, instance: str, eps: float, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--child", instance, "--epsilon", str(eps), "--repeats", str(repeats)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
        return {"instance": instance, "error": last}
    return json.loads(proc.stdout)


def git_state(src: Path) -> dict:
    """The checkout's commit, and whether ``src`` differs from it."""

    def git(*argv: str) -> str:
        cmd = ["git", "-C", str(src), *argv]
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip()

    return {
        "commit": git("rev-parse", "--short", "HEAD") or None,
        "uncommitted_changes": bool(git("status", "--porcelain", "--", ".")),
    }


def median_ratios(rows: list[dict], base: str) -> list[dict]:
    """Per instance and side, the median over rounds of its best time over
    the base side's best in the same round."""
    best = {(row["side"], row["instance"], row["round"]): row["best_s"] for row in rows if "best_s" in row}
    out = []
    for side, instance in dict.fromkeys((side, inst) for side, inst, _ in best if side != base):
        ratios = [
            best[side, instance, r] / best[base, instance, r]
            for r in range(PROCESSES)
            if (side, instance, r) in best and (base, instance, r) in best
        ]
        if ratios:
            median = statistics.median(ratios)
            out.append({"side": side, "base": base, "instance": instance, "median_ratio": median, "ratios": ratios})
    return out


def disagreements(rows: list[dict]) -> list[str]:
    """One line per instance whose rows differ in ``nodes`` or ``value_hex``."""
    outcomes: dict[str, dict[tuple, set[str]]] = {}
    for row in rows:
        if "nodes" in row:
            by_outcome = outcomes.setdefault(row["instance"], {})
            by_outcome.setdefault((row["nodes"], row["value_hex"]), set()).add(row["side"])
    return [
        f"{instance}: " + "; ".join(f"nodes={n} value={v} from {sorted(s)}" for (n, v), s in by_outcome.items())
        for instance, by_outcome in outcomes.items()
        if len(by_outcome) > 1
    ]


def parse_side(spec: str) -> tuple[str, Path, list[str]]:
    label, rest = spec.split("=", 1)
    src, instances = rest.rsplit(":", 1)
    return label, Path(src), [tok for tok in instances.split(",") if tok]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--side", action="append", type=parse_side, default=[], help="LABEL=SRC:INSTANCE,...")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path)
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args()

    if args.child is not None:
        print(json.dumps(measure(args.child, args.epsilon, args.repeats)))
        return 0

    sides = {label: git_state(src) for label, src, _ in args.side}
    # i-th instance of every side, then the (i+1)-th, each in PROCESSES
    # rounds that alternate the sides' order: a drift in machine speed
    # then hits the sides alike instead of one side's whole list
    jobs = []
    for i in range(max((len(instances) for _, _, instances in args.side), default=0)):
        present = [(label, src, instances[i]) for label, src, instances in args.side if i < len(instances)]
        for r in range(PROCESSES):
            jobs.extend((r, *job) for job in (present if r % 2 == 0 else present[::-1]))
    rows = []
    for r, label, src, instance in jobs:
        row = {"side": label, "round": r, **run_child(src, instance, args.epsilon, args.repeats)}
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)
    record = {
        "what": (
            f"best-of-{args.repeats} wall time of estimate_count(g, {args.epsilon}) "
            f"in each of {PROCESSES} fresh interpreters per side and instance"
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sides": sides,
        "rows": rows,
        "ratios": median_ratios(rows, args.side[0][0]) if args.side else [],
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    mismatched = disagreements(rows)
    for line in mismatched:
        print(f"sides disagree on {line}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
