"""Checks that this tree's ``src`` gives the same results as BASE_SRC, the ``src``
directory of a base commit:

    mkdir -p ../parent && git archive <base> src | tar -x -C ../parent
    python3 scripts/same_as_base.py ../parent/src

Both trees are imported into one interpreter by ``bench_cycles.py``'s
``load``, and each writes a report of keyed lines:

- ``count <inst>``: the value's hex, node count and marginals digest of
  ``estimate_count(g, 0.2)``, as ``bench_cycles.measure`` reports them, on
  cycle12, k5, grid3x3, multi3, multi4, k2x70, k8, reg4n20, path601 and exits,
  each graph built by the tree's own code.  The multi<seed> graphs have the
  free, dangling and parallel edges the other families lack, K_{2,70} sibling
  counts past the kernel's tables, and K8 and the 4-regular reg4n20
  (``bench_cycles``' ``reg<d>n<n>``, seed 1) the deep normal roots whose Y and
  Z families an untraced count walks in one pass, K8's falling back to two
  walks at their first level.  path601 (``bench_cycles``' ``path<n>``, 600
  edges) is nearly all bare runs, which an untraced dangling root reads from a
  table, and ``EXITS`` is a graph on which the depth-9 walks of such roots
  meet a run edge that dangles where it ends and, at the last level, an X
  sibling cleared when it came back; they are built by the side's
  ``Graph.from_edges``;
- ``traced <inst>``: the same count with a hook on cycle12, k5, grid3x3, multi3,
  multi4, k8, reg4n20, path601, exits and multi4s: the sha256 of the hook
  stream, the node count and the value's hex, so a traced chain, which walks
  every step and each normal root's Y family before its Z family, cannot move
  either.
  multi4s is multi4 with each vertex v renamed 10^12 + 7v and each edge e
  renamed 3 + 1000e, built by the side's ``Graph(vertices, edges)``: both maps
  are increasing, so every order is multi4's, but its ids are not 0..k-1, so
  the estimator's workspace must translate them;
- ``graph multi4, shuffled``: the value's hex and node count of
  ``estimate_count(g, 0.2)`` for ``g`` the side's ``Graph(vertices, edges)``
  over multi4's vertex list and ``(id, endpoints)`` items, each shuffled once
  with a fresh ``random.Random(5)`` by this tree's code, so the order of
  ``Graph.__init__``'s tables counts, as ``Graph.from_edges``'s id-ordered
  items cannot show;
- ``verify --seed 1|2``: the exit code, so a change cannot add a failing
  suite, and every suite line of the report but its ``total``;
- ``cli <argv>``: the exit code and the sha256 of stdout and of stderr of
  ``cli.main(argv)``, run in process, on files written once with this tree's
  code: ``marginal --trace`` on multi3, multi4 and K_{2,70} at edges 0, 5 and
  11 and on multi4s at edges 3, 5003 and 11003 (the same edges renamed), each
  at depths 2 and 4 (at depth 2, K_{2,70} gives dangling nodes whose 69
  children are all truncated); ``from-cnf --epsilon 0.2 --exact`` on a seeded
  60-clause ring CNF from ``perfbench/gen.py`` and on a seeded read-twice CNF
  with 12 clauses over 40 variables, rendered by ``render_cnf``, whose clauses
  share variables in no fixed order, so ``to_graph``'s incidence order counts;
  ``count --epsilon 0.2`` and ``exact`` on a seeded 4x5 grid written by
  ``perfbench/gen.py``'s ``graph_file_text`` (permuted labels, shuffled lines)
  and on multi3 and multi4 with their lines shuffled, some normal edges' ends
  swapped, and comments after items, on lines of their own and after blank
  lines; ``count --epsilon 0.2`` on multi4s; untraced ``marginal`` on path601
  at edges 0, 300 and 590 and depths 12, 63 and 64: edge 590's tree reaches
  the path's end, edge 0's and edge 300's do not, and depth 64 is past the
  bare-run table.  multi3's count does not depend
  on the order of ``parse_graph``'s tables; multi4's and the grid's do.
  Three runs exit 1 with a one-line error, so their bytes count too:
  ``marginal --edge 999 --depth 2`` on multi3, which has no edge 999;
  ``count --epsilon 0.2`` on a graph file whose last edge has an undeclared
  endpoint; ``from-cnf --epsilon 0.2`` on a CNF with a negative literal.

Every line of the base's report must appear byte for byte in this tree's, so
nothing can move while a change may still add lines.  Each missing line is
printed to stderr and the exit is 1; otherwise the exit is 0.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from bench_cycles import build, load, module, perfbench_gen, run_cli

COUNTED = ("cycle12", "k5", "grid3x3", "multi3", "multi4", "k2x70", "k8", "reg4n20", "path601")
TRACED = ("cycle12", "k5", "grid3x3", "multi3", "multi4", "k8", "reg4n20", "path601")
# edge 0's X children 1 and 2 joined by an 8-edge run, whose walk from 2 meets 1 cleared at its
# last level, and a 5-edge path from vertex 1 that ends in an edge dangling at vertex 34
RUN, TAIL = [3, *range(10, 17), 2], [1, *range(30, 35)]
EXITS = [(0, 1), (0, 2), (0, 3), *zip(RUN, RUN[1:]), *zip(TAIL, TAIL[1:]), (TAIL[-1],)]
CNF_SEED = 1  # the read-twice CNF's clauses


def multi4s_vertex(v: int) -> int:  # multi4s's name for multi4's vertex v
    return 10**12 + 7 * v


def multi4s_edge(e: int) -> int:  # multi4s's name for multi4's edge e
    return 3 + 1000 * e


def write_inputs(side, tmp: Path) -> tuple[list[list[str]], dict[str, tuple[list, list]]]:
    """The input files, written with ``side``'s code, the argv of every CLI run on them,
    and the vertex list and edge items of each graph that each side builds with its own
    ``Graph(...)``: multi4's shuffled, and multi4s's."""
    graph, cnf, gen = module(side, "graph"), module(side, "cnf"), perfbench_gen()
    multi4 = build(side, "multi4")
    shuffled = sorted(multi4.vertices), [(e, multi4.endpoints(e)) for e in multi4.edge_ids]
    for items in shuffled:
        random.Random(5).shuffle(items)
    scaled = [multi4s_vertex(v) for v in sorted(multi4.vertices)], [
        (multi4s_edge(e), tuple(map(multi4s_vertex, multi4.endpoints(e)))) for e in multi4.edge_ids
    ]
    for name in ("multi3", "multi4", "k2x70", "path601"):
        (tmp / f"{name}.graph").write_text(graph.format_graph(build(side, name)))
    (tmp / "multi4s.graph").write_text(graph.format_graph(graph.Graph(*scaled)))
    (tmp / "ring.cnf").write_text(gen.ring_cnf_text(gen.ring_privates(60, random.Random(31))))
    rng = random.Random(CNF_SEED)
    clauses = [set() for _ in range(12)]
    for var in range(1, 41):  # each in two clauses
        for i in rng.sample(range(12), 2):
            clauses[i].add(var)
    phi = cnf.RtwMonCnf(40, tuple(map(frozenset, clauses)))
    (tmp / "rtw.cnf").write_text(cnf.render_cnf(phi))
    (tmp / "undeclared.graph").write_text("v 0\nv 1\ne 0 0 1\nd 1 1\ne 2 1 2\n")
    (tmp / "negative.cnf").write_text("p cnf 3 2\n1 2 0\n2 -3 0\n")
    (tmp / "grid.graph").write_text(gen.graph_file_text(20, gen.grid_edges(4, 5), random.Random(37)))
    for name in ("multi3", "multi4"):
        lines = (tmp / f"{name}.graph").read_text().splitlines()
        random.Random(5).shuffle(lines)
        text = [f"# {name}, its lines shuffled"]
        for i, line in enumerate(lines):
            tag, *ids = line.split()
            if tag == "e" and i % 2:
                line = f"e {ids[0]} {ids[2]} {ids[1]}"
            text.append(f"{line}  # item {i}" if i % 3 else line)
            if i % 7 == 0:
                text.append("\n   # a comment after a blank line")
        (tmp / f"{name}c.graph").write_text("\n".join(text) + "\n")

    runs = [
        ["marginal", str(tmp / f"{name}.graph"), "--edge", str(e), "--depth", str(d), "--trace"]
        # edges 0, 5 and 11 under each file's own ids
        for name, edge_id in (("multi3", int), ("multi4", int), ("k2x70", int), ("multi4s", multi4s_edge))
        for e in map(edge_id, (0, 5, 11))
        for d in (2, 4)
    ]
    runs += [["from-cnf", str(tmp / name), "--epsilon", "0.2", "--exact"] for name in ("ring.cnf", "rtw.cnf")]
    for name in ("grid.graph", "multi3c.graph", "multi4c.graph"):
        runs += [["count", str(tmp / name), "--epsilon", "0.2"], ["exact", str(tmp / name)]]
    runs.append(["count", str(tmp / "multi4s.graph"), "--epsilon", "0.2"])
    runs += [
        ["marginal", str(tmp / "path601.graph"), "--edge", str(e), "--depth", str(d)]
        for e in (0, 300, 590)
        for d in (12, 63, 64)
    ]
    runs += [
        ["marginal", str(tmp / "multi3.graph"), "--edge", "999", "--depth", "2"],
        ["count", str(tmp / "undeclared.graph"), "--epsilon", "0.2"],
        ["from-cnf", str(tmp / "negative.cnf"), "--epsilon", "0.2"],
    ]
    runs += [["verify", "--seed", "1"], ["verify", "--seed", "2"]]
    return runs, {"multi4, shuffled": shuffled, "multi4s": scaled}


def report(side, runs: list[list[str]], items: dict[str, tuple[list, list]], tmp: Path) -> list[str]:
    """The side's report lines: its counts, traced counts, the shuffled constructor's count,
    then one or more lines per CLI run."""
    counter, Graph = module(side, "counter"), module(side, "graph").Graph
    counted = {inst: build(side, inst) for inst in COUNTED}
    counted["exits"] = Graph.from_edges(EXITS)
    traced = {inst: build(side, inst) for inst in TRACED}
    traced["exits"] = Graph.from_edges(EXITS)
    traced["multi4s"] = Graph(*items["multi4s"])
    lines = []
    for inst, g in counted.items():
        result = counter.estimate_count(g, 0.2)
        digest = hashlib.sha256(" ".join(p.hex() for _, p in result.marginals).encode()).hexdigest()
        lines.append(f"count {inst}: value {result.value.hex()} nodes {result.nodes} marginals {digest}")
    for inst, g in traced.items():
        stream = hashlib.sha256()

        def hook(depth, edge, kind, branch):
            stream.update(f"{depth} {edge} {kind.name} {branch}\n".encode())

        result = counter.estimate_count(g, 0.2, on_node=hook)
        lines.append(f"traced {inst}: hooks {stream.hexdigest()} nodes {result.nodes} value {result.value.hex()}")
    result = counter.estimate_count(Graph(*items["multi4, shuffled"]), 0.2)
    lines.append(f"graph multi4, shuffled: value {result.value.hex()} nodes {result.nodes}")
    main = module(side, "cli").main
    for argv in runs:
        code, out, err = run_cli(main, argv)
        key = " ".join(argv).replace(f"{tmp}/", "")
        if argv[0] == "verify":
            lines.append(f"{key}: exit {code}")
            lines += [f"{key}: {line}" for line in out.splitlines() if line.split()[1] != "total"]
        else:
            out, err = (hashlib.sha256(buf.encode()).hexdigest() for buf in (out, err))
            lines.append(f"cli {key}: exit {code} stdout {out} stderr {err}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "covercount").is_dir():
        print("usage: same_as_base.py BASE_SRC (a directory holding a covercount package)", file=sys.stderr)
        return 2
    base, change = load(Path(argv[0]), 0), load(Path(__file__).resolve().parents[1] / "src", 1)
    with tempfile.TemporaryDirectory() as tmp:
        runs, items = write_inputs(change, Path(tmp))
        theirs, ours = report(base, runs, items, Path(tmp)), set(report(change, runs, items, Path(tmp)))
    missing = [line for line in theirs if line not in ours]
    for line in missing:
        print(f"missing from the change's report: {line}", file=sys.stderr)
    print(f"{len(theirs) - len(missing)} of {len(theirs)} base report lines found in the change's")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
