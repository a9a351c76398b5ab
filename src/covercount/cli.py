"""Command-line surface: exact and approximate counting, marginals,
CNF reduction, verification, and benchmarking.

JSON results go to stdout, diagnostics and traces to stderr.  Exact
counts are rendered as decimal strings so downstream tools never lose
precision; ``Decimal`` renders them, so counts past the interpreter's
int-to-string digit limit print in full.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from decimal import Decimal
from pathlib import Path

from .cnf import parse_cnf, to_graph
from .counter import depth_for, estimate_count
from .estimator import estimate_marginal
from .generate import cycle_graph, random_multigraph, star_graph
from .graph import Graph, parse_graph
from .oracle import DEFAULT_FRONTIER_CAP, NoEdgeCoverError, exact_count, exact_marginal
from .verify import run_verification

DEFAULT_MARGINAL_EPSILON = 0.1


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8-sig"))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, allow_nan=False))


def _count_payload(g: Graph, eps: float) -> dict:
    result = estimate_count(g, eps)
    log_value = result.log_value if result.value > 0.0 else None
    # past float range the count is inf; log_count still carries it
    return {
        "count": result.value if math.isfinite(result.value) else None,
        "log_count": log_value,
        "log10_count": log_value / math.log(10) if log_value is not None else None,
        "epsilon": eps,
        "depth": result.depth_used,
        "m": g.edge_count,
        "n": g.vertex_count,
        "isolated": result.value == 0.0,
    }


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    _emit({"count": str(Decimal(exact_count(g, cap=args.cap)))})
    return 0


def cmd_count(args) -> int:
    _emit(_count_payload(_load_graph(args.graph), args.epsilon))
    return 0


def cmd_marginal(args) -> int:
    g = _load_graph(args.graph)
    if g.has_isolated_vertex():
        raise NoEdgeCoverError("graph has no edge covers; marginal undefined")
    if args.depth is not None:
        depth = args.depth
    else:
        depth = depth_for(max(g.edge_count, 1), DEFAULT_MARGINAL_EPSILON)
    on_node = None
    if args.trace:
        def on_node(d, e, kind, branch):
            print(f"depth={d} edge={e} kind={kind.name[0]} branch={branch}", file=sys.stderr)
    estimate = estimate_marginal(g, args.edge, depth, on_node)
    payload = {"estimate": estimate, "depth": depth}
    if args.exact:
        frac = exact_marginal(g, args.edge)
        payload["exact_num"] = frac.numerator
        payload["exact_den"] = frac.denominator
    _emit(payload)
    return 0


def cmd_from_cnf(args) -> int:
    phi = parse_cnf(Path(args.cnf).read_text(encoding="utf-8-sig"))
    g = to_graph(phi)
    payload = _count_payload(g, args.epsilon)
    payload["vars"] = phi.num_vars
    payload["clauses"] = len(phi.clauses)
    if args.exact:
        payload["exact"] = str(Decimal(exact_count(g)))
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    results = run_verification(
        max_edges=args.max_edges,
        epsilons=tuple(args.epsilons),
        seed=args.seed,
        instances=args.instances,
        trials=args.trials,
    )
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} {r.detail}")
        failed += not r.passed
    print(f"{'PASS' if failed == 0 else 'FAIL'} total suites={len(results)} failed={failed}")
    return 0 if failed == 0 else 1


def _bench_graph(family: str, size: int, seed: int) -> Graph:
    if family == "cycle":
        return cycle_graph(size)
    if family == "star":
        return star_graph(size)
    return random_multigraph(seed * 7_919 + size, max_vertices=size, max_edges=2 * size)


def cmd_bench(args) -> int:
    # a bad size fails here, before anything reaches stdout
    graphs = [_bench_graph(args.family, size, args.seed) for size in args.sizes]
    print("n,m,L,nodes_expanded,wall_ms,estimate")
    for g in graphs:
        start = time.perf_counter()
        result = estimate_count(g, args.epsilon)
        wall_ms = (time.perf_counter() - start) * 1e3
        print(
            f"{g.vertex_count},{g.edge_count},{result.depth_used},{result.nodes},{wall_ms:.3f},{result.value:.12g}"
        )
    return 0


def _epsilon(value: str) -> float:
    try:
        eps = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if not 0.0 < eps < 1.0:
        raise argparse.ArgumentTypeError(f"epsilon must be in (0, 1), got {value}")
    return eps


def _integer(low: int | None = None):
    def integer(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
        if low is not None and n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return n

    return integer


def _listed(item):
    def listed(value: str) -> list:
        values = [item(tok) for tok in value.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        return values

    return listed


@functools.cache  # built once: nothing mutates it, and each cmd_* looks up its callees when called
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercount",
        description="Approximate and exact edge-cover counting for multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact count of a graph file by a frontier dynamic program")
    p.add_argument("graph")
    cap_help = "most frontier vertices open at once; the DP holds at most 2^cap states"
    p.add_argument("--cap", type=_integer(0), default=DEFAULT_FRONTIER_CAP, help=cap_help)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("count", help="approximate count with the accuracy guarantee")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("marginal", help="estimate the absence marginal of one edge")
    p.add_argument("graph")
    p.add_argument("--edge", type=_integer(), required=True)
    p.add_argument(
        "--depth",
        type=_integer(0),
        default=None,
        help=f"recursion budget; defaults to the depth an epsilon={DEFAULT_MARGINAL_EPSILON} count would use",
    )
    p.add_argument("--exact", action="store_true", help="also report the exact rational marginal")
    p.add_argument("--trace", action="store_true", help="write one line per computation-tree node to stderr")
    p.set_defaults(fn=cmd_marginal)

    p = sub.add_parser("from-cnf", help="count satisfying assignments of a read-twice monotone CNF")
    p.add_argument("cnf")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--exact", action="store_true", help="also report the exact count")
    p.set_defaults(fn=cmd_from_cnf)

    p = sub.add_parser("verify", help="run the oracle-vs-estimator verification suites")
    p.add_argument("--max-edges", type=_integer(1), help="largest corpus graph, in edges")
    p.add_argument("--epsilons", type=_listed(_epsilon))
    p.add_argument("--seed", type=_integer())
    p.add_argument("--instances", type=_integer(0), help="random multigraphs per sweep")
    p.add_argument("--trials", type=_integer(1), help="sensitivity trials per combinator")
    defaults = inspect.signature(run_verification).parameters.items()
    p.set_defaults(fn=cmd_verify, **{name: param.default for name, param in defaults})

    p = sub.add_parser("bench", help="CSV runtime/size sweep for one graph family")
    p.add_argument("--family", choices=["cycle", "star", "random"], required=True)
    p.add_argument("--sizes", type=_listed(_integer(1)), required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--seed", type=_integer(), default=0)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, RecursionError, ArithmeticError) as exc:
        # str() of a KeyError quotes its key
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
