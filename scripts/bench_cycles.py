"""Best-of-5 wall time of ``estimate_count`` at eps 0.2 on cycles, grids and
complete graphs, and of ``run_verification``, for one or more source trees.

    python scripts/bench_cycles.py --out BENCH_flat_workspace.json \\
        --side parent=../parent/src --side change=src \\
        --instances grid6x6,k8,cycle1000

Each ``--side LABEL=SRC`` names a source tree (a checkout's ``src``),
recorded as its path and the sha256 of its ``*.py`` files; a label given
twice, or a run with no side or no instance, is an error before anything
runs.  Every instance (``cycle<n>``, ``grid<r>x<c>``, ``k<n>`` or
``verify<seed>``) runs on every side in ``PROCESSES`` fresh interpreters
per side with that ``src`` on PYTHONPATH, the sides taking turns within
each instance (the first side leads in even rounds, the last in odd
ones).  Each process runs ``REPEATS`` timed runs, none traced, and is one
row with its best wall time.  A graph instance's runs are counts, and
from those bit-identical counts its row holds the ``depth``, the
``nodes`` (``ApproxCount.nodes``; a tree without that field gives an
error row), the ``value_hex`` (``ApproxCount.value.hex()``) and
``marginals_sha256``, the sha256 of every marginal's ``.hex()`` in chain
order.  A ``verify<seed>`` instance runs ``run_verification(seed=<seed>)``
with the ``verify`` command's defaults, and its row holds
``suites_sha256``, the sha256 of the JSON list of every suite's name,
pass flag and detail, in their place.  ``ratios`` holds, per instance,
the median over rounds of each side's best time over the first side's
best in the same round.  The output records the machine's ``nproc`` and
the Python version with the rows; after writing it the script exits
nonzero if a run failed or two sides disagree on ``nodes``,
``value_hex``, ``marginals_sha256`` or ``suites_sha256`` for the same
instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

EPSILON = 0.2
REPEATS = 5  # timed runs per interpreter, of which the best is kept
PROCESSES = 5  # fresh interpreters per (side, instance)


def build(instance: str):
    """The graph an instance name stands for, built in the child interpreter."""
    from covercount.generate import cycle_graph
    from covercount.graph import Graph

    name = instance.lower()
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
    raise ValueError(f"unknown instance {instance!r}; expected cycle<n>, grid<r>x<c>, k<n> or verify<seed>")


def best_of(run) -> tuple[object, list[float]]:
    """The last of ``REPEATS`` timed calls of ``run`` and every call's wall time."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - start)
    return result, walls


def measure(instance: str) -> dict:
    """Run inside the child interpreter."""
    if instance.lower().startswith("verify"):
        return measure_verify(instance)
    from covercount.counter import estimate_count

    g = build(instance)
    result, walls = best_of(lambda: estimate_count(g, EPSILON))
    best = min(walls)
    return {
        "instance": instance,
        "n": g.vertex_count,
        "m": g.edge_count,
        "depth": result.depth_used,
        "nodes": result.nodes,
        "value_hex": result.value.hex(),
        "marginals_sha256": hashlib.sha256(" ".join(p.hex() for _, p in result.marginals).encode()).hexdigest(),
        "best_s": best,
        "walls_s": walls,
        "us_per_edge": best / g.edge_count * 1e6,
        "ns_per_node": best / result.nodes * 1e9,
    }


def measure_verify(instance: str) -> dict:
    """A ``verify<seed>`` instance, run inside the child interpreter."""
    from covercount.verify import run_verification

    seed = int(instance[len("verify") :])
    results, walls = best_of(lambda: run_verification(seed=seed))
    suites = json.dumps([[r.name, r.passed, r.detail] for r in results])
    return {
        "instance": instance,
        "seed": seed,
        "suites_sha256": hashlib.sha256(suites.encode()).hexdigest(),
        "best_s": min(walls),
        "walls_s": walls,
    }


def run_child(src: Path, instance: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--child", instance]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
        return {"instance": instance, "error": last}
    return json.loads(proc.stdout)


def source_digest(src: Path) -> str:
    """sha256 of the tree's ``*.py`` files: relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(src).as_posix() for path in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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


# the fields on which two sides' rows must agree, by their name in a disagreement line
AGREEMENT = {"nodes": "nodes", "value_hex": "value", "marginals_sha256": "marginals", "suites_sha256": "suites"}


def disagreements(rows: list[dict]) -> list[str]:
    """One line per instance whose rows differ in any ``AGREEMENT`` field."""
    outcomes: dict[str, dict[str, set[str]]] = {}
    for row in rows:
        outcome = " ".join(f"{name}={row[key]}" for key, name in AGREEMENT.items() if key in row)
        if outcome:  # an error row has none
            outcomes.setdefault(row["instance"], {}).setdefault(outcome, set()).add(row["side"])
    return [
        f"{instance}: " + "; ".join(f"{outcome} from {sorted(sides)}" for outcome, sides in by_outcome.items())
        for instance, by_outcome in outcomes.items()
        if len(by_outcome) > 1
    ]


def parse_side(spec: str) -> tuple[str, Path]:
    label, src = spec.split("=", 1)
    return label, Path(src)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--side", action="append", type=parse_side, default=[], help="LABEL=SRC")
    p.add_argument(
        "--instances", type=lambda s: [tok for tok in s.split(",") if tok], default=[], help="INSTANCE,..."
    )
    p.add_argument("--out", type=Path)
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args()

    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    if not args.side or not args.instances:
        p.error("a run needs at least one --side and one instance")
    if len(dict(args.side)) < len(args.side):
        p.error("repeated --side label")

    sides = {label: {"src": str(src), "sha256": source_digest(src)} for label, src in args.side}
    rows = []
    for instance in args.instances:
        # PROCESSES rounds that alternate the sides' order: a drift in
        # machine speed then hits the sides alike
        for r in range(PROCESSES):
            for label, src in args.side if r % 2 == 0 else args.side[::-1]:
                row = {"side": label, "round": r, **run_child(src, instance)}
                print(json.dumps(row), file=sys.stderr)
                rows.append(row)
    record = {
        "what": (
            f"best-of-{REPEATS} wall time of estimate_count(g, {EPSILON}), or of run_verification(seed=<seed>) "
            f"for verify<seed>, in each of {PROCESSES} fresh interpreters per side and instance"
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sides": sides,
        "rows": rows,
        "ratios": median_ratios(rows, args.side[0][0]),
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    mismatched = disagreements(rows)
    for line in mismatched:
        print(f"sides disagree on {line}", file=sys.stderr)
    failed = sum("error" in row for row in rows)
    if failed:
        print(f"{failed} of {len(rows)} runs failed", file=sys.stderr)
    return 1 if mismatched or failed else 0


if __name__ == "__main__":
    sys.exit(main())
