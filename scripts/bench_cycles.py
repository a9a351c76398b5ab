"""Wall time of ``estimate_count`` at eps 0.2 on cycles, grids, complete
graphs and random multigraphs, of ``run_verification``, and of the CLI
from a text file, for one or more source trees.

    python scripts/bench_cycles.py --out BENCH_flat_workspace.json \\
        --side parent=../parent/src --side change=src \\
        --instances grid6x6,k8,cycle1000

Each ``--side LABEL=SRC`` names a source tree (a checkout's ``src``),
recorded as its path and the sha256 of its ``*.py`` files; a label given
twice, or a run with no side or no instance, is an error before anything
runs.  Each side's ``SRC/covercount`` is imported into this interpreter as
``covercount_side<i>``, ``i`` its position, so a tree must import its own
modules relatively.  Each instance (``cycle<n>``, ``path<n>``, ``grid<r>x<c>``,
``k<n>``, ``k<a>x<b>``, ``reg<d>n<n>``, ``multi<seed>``, ``verify<seed>``,
``text<graph>`` or ``ring<k>``) runs in ``ROUNDS`` rounds.
``path<n>`` is the path on n vertices, edge i joining i and i + 1, from
``perfbench/gen.py``'s ``path_edges``, as ``sparse-text`` counts ``path600``.
``grid<r>x<c>`` takes its edges,
and so its elimination order, from ``perfbench/gen.py``'s ``grid_edges``:
each vertex's right then down edge, row by row, as perfbench's
``dense-deep`` does (records made before this order numbered every
horizontal edge before every vertical one).
``k<a>x<b>`` is the complete bipartite graph K_{a,b}; its b-side
vertices have degree a and its a-side ones degree b, so ``k2x70`` reaches
sibling counts past the estimator's per-count tables.
``reg<d>n<n>`` is the simple d-regular graph on n vertices that
``perfbench/gen.py``'s ``random_regular_edges(n, d, random.Random(1))``
draws, edges ascending: perfbench's ``dense-deep`` draws graphs of the
sizes ``reg4n20`` and ``reg5n12`` from its own seeds.  n * d must be
even and d below n.
``multi<seed>`` is the side's ``random_multigraph(seed, max_vertices=12,
max_edges=40)``, which has the free, dangling and parallel edges that the
other families lack.  A round is one run per side, back to back, the first
side leading in even rounds and the last in odd ones, and each run is one
row: one untraced call, timed after an untimed ``gc.collect()``, with the
side's function looked up before it.
``text<graph>``, for ``graph`` a ``cycle``, ``path``, ``grid``, ``k`` or ``reg`` instance, is
that graph written by ``perfbench/gen.py``'s ``graph_file_text`` with seed
``TEXT_SEED`` (permuted vertex labels, shuffled lines), and ``ring<k>`` the
ring CNF ``ring_cnf_text(ring_privates(k, Random(k)))``; each row times the
side's ``cli.main`` on the file, ``count FILE --epsilon 0.2`` or ``from-cnf
FILE --epsilon 0.2``, parse included, and holds ``stdout_sha256``, the sha256
of what it printed; a nonzero exit is a failed run.
A graph instance's row holds, from the count it times, the ``depth``, the
``nodes`` (``ApproxCount.nodes``; a tree without it gives an error row),
the ``value_hex`` and ``marginals_sha256``, the sha256 of every marginal's
``.hex()`` in chain order, with ``wall_s`` and the ``us_per_edge`` and
``ns_per_node`` it gives, each only when its divisor, ``m`` or ``nodes``,
is positive (``k1`` has neither).  A ``verify<seed>`` row times
``run_verification(seed=<seed>)`` at the ``verify`` defaults and holds
``suites_sha256``, the sha256 of the JSON list of every suite's name, pass
flag and detail.  A side that fails to import gives an error row in every
round.  ``ratios`` holds, per instance and side, every round's time over
the first side's, with their ``q1``, ``median_ratio`` and ``q3``.  The
record holds ``nproc`` and the Python version; after writing it the script
exits nonzero if a run failed or two sides disagree on ``nodes``,
``value_hex``, ``marginals_sha256``, ``suites_sha256`` or ``stdout_sha256``
for an instance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import ModuleType

EPSILON = 0.2
ROUNDS = 75  # rows per (side, instance): one run each, the sides back to back
TEXT_SEED = 1  # the label permutation and line order of every text<graph> file


def load(src: Path, position: int) -> ModuleType:
    """``src/covercount`` imported afresh as ``covercount_side<position>`` (a label may hold dots)."""
    name = f"covercount_side{position}"
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    init = src / "covercount" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def module(side: ModuleType, name: str) -> ModuleType:
    return importlib.import_module(f"{side.__name__}.{name}")


@functools.cache
def perfbench_gen() -> ModuleType:
    """``perfbench/gen.py``, read from its file, so that both tools build the same inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def edge_list(instance: str) -> tuple[int, list[tuple[int, ...]]]:
    """The vertex count and edge list of a ``cycle``, ``path``, ``grid``, ``k`` or ``reg`` instance, edge i the
    list's i-th."""
    gen, name = perfbench_gen(), instance.lower()
    if name.startswith("cycle"):
        n = int(name[5:])
        return n, gen.cycle_edges(n)
    if name.startswith("path"):
        n = int(name[4:])
        return n, gen.path_edges(n)
    if name.startswith("grid"):
        r, c = (int(tok) for tok in name[4:].split("x"))
        return r * c, gen.grid_edges(r, c)
    if name.startswith("reg"):
        d, n = (int(tok) for tok in name[3:].split("n"))
        return n, gen.random_regular_edges(n, d, random.Random(1))
    if name.startswith("k") and "x" in name:
        a, b = (int(tok) for tok in name[1:].split("x"))
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    if name.startswith("k"):
        n = int(name[1:])
        return n, gen.complete_edges(n)
    raise ValueError(
        f"unknown instance {instance!r}; expected cycle<n>, path<n>, grid<r>x<c>, k<n>, k<a>x<b>, reg<d>n<n>, "
        "multi<seed>, verify<seed>, ring<k> or text<graph>"
    )


def build(side: ModuleType, instance: str):
    """The graph an instance name stands for, built with the side's own code."""
    generate, Graph = module(side, "generate"), module(side, "graph").Graph
    name = instance.lower()
    if name.startswith("cycle"):
        return generate.cycle_graph(int(name[5:]))
    if name.startswith("multi"):
        return generate.random_multigraph(int(name[5:]), max_vertices=12, max_edges=40)
    return Graph.from_edges(edge_list(name)[1])


def cli_input(instance: str) -> tuple[str, str]:
    """The subcommand and file text of a ``text<graph>`` or ``ring<k>`` instance."""
    gen, name = perfbench_gen(), instance.lower()
    if name.startswith("ring"):
        k = int(name[4:])
        return "from-cnf", gen.ring_cnf_text(gen.ring_privates(k, random.Random(k)))
    n, edges = edge_list(name[4:])
    return "count", gen.graph_file_text(n, edges, random.Random(TEXT_SEED))


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` run in process: its exit code and what it prints to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def timed(run, *args, **kwargs) -> tuple[object, float]:
    """``run(*args, **kwargs)`` and its wall time, after an untimed ``gc.collect()``."""
    gc.collect()
    start = time.perf_counter()
    result = run(*args, **kwargs)
    return result, time.perf_counter() - start


def measure(side: ModuleType, instance: str) -> dict:
    """One row: one timed run of the instance on the side."""
    if instance.lower().startswith("verify"):
        seed = int(instance[len("verify") :])
        results, wall = timed(module(side, "verify").run_verification, seed=seed)
        suites = json.dumps([[r.name, r.passed, r.detail] for r in results])
        digest = hashlib.sha256(suites.encode()).hexdigest()
        return {"seed": seed, "suites_sha256": digest, "wall_s": wall}
    if instance.lower().startswith(("text", "ring")):
        command, text = cli_input(instance)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_text(text)
            argv = [command, str(path), "--epsilon", str(EPSILON)]
            (code, out, err), wall = timed(run_cli, module(side, "cli").main, argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return {"command": command, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(), "wall_s": wall}
    g = build(side, instance)
    result, wall = timed(module(side, "counter").estimate_count, g, EPSILON)
    row = {
        "n": g.vertex_count,
        "m": g.edge_count,
        "depth": result.depth_used,
        "nodes": result.nodes,
        "value_hex": result.value.hex(),
        "marginals_sha256": hashlib.sha256(" ".join(p.hex() for _, p in result.marginals).encode()).hexdigest(),
        "wall_s": wall,
    }
    if g.edge_count:
        row["us_per_edge"] = wall / g.edge_count * 1e6
    if result.nodes:
        row["ns_per_node"] = wall / result.nodes * 1e9
    return row


def error(exc: BaseException) -> str:
    """The last line of the exception's traceback."""
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def source_digest(src: Path) -> str:
    """sha256 of the tree's ``*.py`` files: relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(src).as_posix() for path in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def round_ratios(rows: list[dict], base: str) -> list[dict]:
    """Per instance and side, every round's time over the base side's time in
    the same round, with the quartiles of those ratios."""
    wall = {(row["side"], row["instance"], row["round"]): row["wall_s"] for row in rows if "wall_s" in row}
    out = []
    for side, instance in dict.fromkeys((side, inst) for side, inst, _ in wall if side != base):
        ratios = [
            wall[side, instance, r] / wall[base, instance, r]
            for r in range(ROUNDS)
            if (side, instance, r) in wall and (base, instance, r) in wall
        ]
        if ratios:
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
            quartiles = {"q1": q1, "median_ratio": median, "q3": q3}
            out.append({"side": side, "base": base, "instance": instance, **quartiles, "ratios": ratios})
    return out


# the fields on which two sides' rows must agree, by their name in a disagreement line
AGREEMENT = {
    "nodes": "nodes",
    "value_hex": "value",
    "marginals_sha256": "marginals",
    "suites_sha256": "suites",
    "stdout_sha256": "stdout",
}


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
    p.add_argument("--instances", type=lambda s: [tok for tok in s.split(",") if tok], default=[], help="INSTANCE,...")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    if not args.side or not args.instances:
        p.error("a run needs at least one --side and one instance")
    if len(dict(args.side)) < len(args.side):
        p.error("repeated --side label")

    sides = {label: {"src": str(src), "sha256": source_digest(src)} for label, src in args.side}
    loaded = []  # (label, package or the import's error line)
    for position, (label, src) in enumerate(args.side):
        try:
            loaded.append((label, load(src, position)))
        except Exception as exc:  # the side gets an error row in every round
            loaded.append((label, error(exc)))
    rows = []
    for instance in args.instances:
        # a round is one run per side, back to back, the leader alternating,
        # so a burst of host load or a drift in machine speed hits the sides alike
        for r in range(ROUNDS):
            for label, side in loaded if r % 2 == 0 else loaded[::-1]:
                try:
                    row = {"error": side} if isinstance(side, str) else measure(side, instance)
                except Exception as exc:
                    row = {"error": error(exc)}
                row = {"side": label, "round": r, "instance": instance, **row}
                print(json.dumps(row), file=sys.stderr)
                rows.append(row)
    record = {
        "what": (
            f"wall time of one run of estimate_count(g, {EPSILON}), of run_verification(seed=<seed>) for "
            f"verify<seed>, or of cli.main on a written file for text<graph> and ring<k>, per side in each of "
            f"{ROUNDS} rounds per instance, the sides back to back in one interpreter"
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sides": sides,
        "rows": rows,
        "ratios": round_ratios(rows, args.side[0][0]),
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
