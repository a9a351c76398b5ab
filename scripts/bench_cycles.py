"""Best-of-N wall time of ``estimate_count`` on n-cycles, for one or more checkouts.

    python scripts/bench_cycles.py --out BENCH_single_workspace.json \\
        --side parent=../parent/src:250,500,1000 --side change=src:1000,4000,16000

Each ``--side LABEL=SRC:SIZES`` names a checkout's ``src`` directory and
the cycle sizes to run on it.  Every (side, n) runs in a fresh
interpreter with that ``src`` on PYTHONPATH: one untimed count with an
``on_node`` counter gives the recursion node total, then ``--repeats``
timed counts give the best wall time.  The output records the
machine's ``nproc`` and the Python version with the rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def measure(n: int, eps: float, repeats: int) -> dict:
    """Run inside the child interpreter."""
    from covercount.counter import estimate_count
    from covercount.generate import cycle_graph

    g = cycle_graph(n)
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
        "n": n,
        "m": g.edge_count,
        "depth": result.depth_used,
        "nodes": nodes,
        "best_s": best,
        "walls_s": walls,
        "us_per_edge": best / g.edge_count * 1e6,
        "ns_per_node": best / nodes * 1e9,
    }


def run_child(src: Path, n: int, eps: float, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--child", str(n), "--epsilon", str(eps), "--repeats", str(repeats)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
        return {"n": n, "error": last}
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


def parse_side(spec: str) -> tuple[str, Path, list[int]]:
    label, rest = spec.split("=", 1)
    src, sizes = rest.rsplit(":", 1)
    return label, Path(src), [int(tok) for tok in sizes.split(",") if tok]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--side", action="append", type=parse_side, default=[], help="LABEL=SRC:N1,N2,...")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path)
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()

    if args.child is not None:
        print(json.dumps(measure(args.child, args.epsilon, args.repeats)))
        return 0

    rows = []
    sides = {}
    for label, src, sizes in args.side:
        sides[label] = git_state(src)
        for n in sizes:
            row = {"side": label, **run_child(src, n, args.epsilon, args.repeats)}
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    record = {
        "what": f"best-of-{args.repeats} wall time of estimate_count(cycle_graph(n), {args.epsilon})",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sides": sides,
        "rows": rows,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
