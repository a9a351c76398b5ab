"""The benchmark's workloads: seeded inputs, the operations run on them,
and the check of each result.

Workloads (see NOTES.md for the per-layer predictions):

* ``sparse-text``: the CLI (``count`` and ``from-cnf``) on large
  low-degree inputs, where conditioning (the elimination chain and the
  per-marginal setup) is most of the work.  One input, a ring CNF of
  about 1,400 variables, has a count past float range; it stays in the
  list so that its failure is counted, not hidden.
* ``dense-deep``: ``estimate_count`` on small dense graphs, where the
  truncated recursion is nearly all the work.
* ``verify-sweep``: ``run_verification`` with the ``verify`` CLI
  defaults: tens of thousands of tiny marginal calls, the oracle and the
  sensitivity suites.

Every operation calls the program through module attributes looked up
at call time (``cli.main``, ``counter.estimate_count``,
``verify.run_verification``), so the traced run can wrap them.  This
module does not import the program; ``make_ops`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import exact
import gen

# Passes each measuring process runs at least, whatever the time budget;
# this fixes the per-operation sample count behind op_s_tail.  Each pass
# has an odd number of operations, so that the median operation time
# falls inside the samples of one operation, not between two.
MIN_PASSES = {"sparse-text": 2, "dense-deep": 2, "verify-sweep": 1}

# Outcome of one operation.  FAILED is an exception, a nonzero CLI exit
# or a count past float range; WRONG is a count outside the eps
# guarantee (or a failed verify suite) and makes the run incorrect.
OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    """One timed call into the program and how to judge its result."""

    label: str
    run: Callable[[], object]
    check: Callable[["Op", object], tuple[str, float]]
    eps: float = 0.0
    exact: Optional[int] = field(default=None, repr=False)


def _within_eps(op: Op, log_count: float) -> tuple[str, float]:
    """Compare a natural-log count with the exact reference."""
    rel = abs(math.expm1(log_count - math.log(op.exact)))
    return (OK if rel <= op.eps else WRONG), rel / op.eps


def _finite_count(op: Op, count) -> tuple[str, float]:
    if not (isinstance(count, (int, float)) and math.isfinite(count) and count > 0):
        return FAILED, 0.0  # past float range (inf) or missing
    return _within_eps(op, math.log(count))


def _check_cli(op: Op, result) -> tuple[str, float]:
    code, out = result
    if code != 0:
        return FAILED, 0.0
    payload = json.loads(out.strip().splitlines()[-1])
    count = payload.get("count")
    if count is None:
        # a count past float range may be reported in log space only
        if payload.get("log_count") is not None:
            return _within_eps(op, payload["log_count"])
        if payload.get("log10_count") is not None:
            return _within_eps(op, payload["log10_count"] * math.log(10))
    return _finite_count(op, count)


def _check_count(op: Op, result) -> tuple[str, float]:
    return _finite_count(op, result.value)


_FPTAS = re.compile(r"worst_rel_err=(\S+) allowed=(\S+)")


def _check_verify(op: Op, results) -> tuple[str, float]:
    worst = []
    for r in results:
        if r.name.startswith("fptas-"):
            m = _FPTAS.search(r.detail)
            if m is None:
                raise ValueError(f"unreadable fptas detail {r.detail!r}")
            worst.append(float(m.group(1)) / float(m.group(2)))
    if not worst:
        raise ValueError("run_verification reported no fptas suite")
    return (OK if all(r.passed for r in results) else WRONG), max(worst)


def _cli_call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# A workload's generator returns specs: (label, kind, payload, eps,
# reference).  Generators use only the benchmark's own code, so their
# time is not part of set-up; make_ops turns specs into operations with
# the program's own constructors, and that is.  The references are
# called once per run by run.py, never in a measuring process.


def sparse_text(seed: int, workdir: Path) -> list[tuple]:
    rng = random.Random(f"sparse-text:{seed}")
    workdir.mkdir(exist_ok=True)
    specs = []
    for name, n, eps in (("cycle", 1000, 0.2), ("path", 600, 0.1), ("cycle", 300, 0.1)):
        edges = gen.cycle_edges(n) if name == "cycle" else gen.path_edges(n)
        path = workdir / f"{name}{n}.txt"
        path.write_text(gen.graph_file_text(n, edges, rng))
        ref = (lambda n=n: exact.lucas(n)) if name == "cycle" else (lambda n=n: exact.fibonacci(n - 1))
        specs.append((f"count {name}{n}", "cli", ["count", str(path)], eps, ref))
    # k=700 gives about 1,400 variables and a count near 2^1300: past float range.
    for k, eps in ((150, 0.2), (350, 0.1), (500, 0.2), (700, 0.2)):
        privates = gen.ring_privates(k, rng)
        path = workdir / f"ring{k}.cnf"
        path.write_text(gen.ring_cnf_text(privates))
        specs.append((f"from-cnf ring{k}", "cli", ["from-cnf", str(path)], eps, lambda p=privates: exact.ring_cnf_count(p)))
    return specs


def dense_deep(seed: int, workdir: Path) -> list[tuple]:
    rng = random.Random(f"dense-deep:{seed}")
    grid = (36, gen.grid_edges(6, 6))
    k8 = (8, gen.complete_edges(8))
    specs = [(f"grid6x6 eps={eps}", "count", grid, eps, lambda: exact.grid_count(6, 6)) for eps in (0.2, 0.1)]
    # Independent random graphs: one 4-regular graph's recursion size
    # varies by about a fifth with its seed, so several damp the spread.
    # None at eps 0.1 (about 510k nodes each): the pass must stay short
    # enough for MIN_PASSES passes in each measuring process.
    regular = ((20, 4, 0.2), (20, 4, 0.2), (12, 5, 0.2), (12, 5, 0.2), (12, 5, 0.1))
    for i, (n, d, eps) in enumerate(regular):
        graph = (n, gen.random_regular_edges(n, d, rng))
        specs.append((f"{d}-regular#{i} n={n} eps={eps}", "count", graph, eps, lambda g=graph: exact.vertex_inclusion_exclusion(*g)))
    specs += [(f"K8 eps={eps}", "count", k8, eps, lambda: exact.vertex_inclusion_exclusion(*k8)) for eps in (0.2, 0.1)]
    return specs


def verify_sweep(seed: int, workdir: Path) -> list[tuple]:
    rng = random.Random(f"verify-sweep:{seed}")
    # five corpora per pass: one call's time varies by about 12% with its seed
    return [(f"verify seed={s}", "verify", s, 0.0, None) for s in (rng.randrange(1 << 31) for _ in range(5))]


GENERATE = {"sparse-text": sparse_text, "dense-deep": dense_deep, "verify-sweep": verify_sweep}


def make_ops(specs: list[tuple]) -> list[Op]:
    """Import the program and build its inputs: the timed part of set-up."""
    from covercount import Graph, cli, counter, verify

    ops = []
    for label, kind, payload, eps, _reference in specs:
        if kind == "cli":
            argv = [*payload, "--epsilon", str(eps)]
            ops.append(Op(label, lambda argv=argv: _cli_call(cli, argv), _check_cli, eps))
        elif kind == "count":
            n, edges = payload
            g = Graph(range(n), list(enumerate(edges)))
            ops.append(Op(label, lambda g=g, eps=eps: counter.estimate_count(g, eps), _check_count, eps))
        else:
            ns = cli.build_parser().parse_args(["verify", "--seed", str(payload)])
            kwargs = dict(
                max_edges=ns.max_edges,
                epsilons=tuple(ns.epsilons),
                seed=ns.seed,
                instances=ns.instances,
                trials=ns.trials,
            )
            ops.append(Op(label, lambda kw=kwargs: verify.run_verification(**kw), _check_verify))
    return ops
