#!/usr/bin/env bash
# Usage: scripts/same_as_base.sh BASE_SRC
#
# Checks that this tree's src gives the same results as BASE_SRC, the src directory of a base
# commit (for instance `git archive <base> src | tar -x -C <dir>`, then <dir>/src).  Exits 1 on
# the first difference.  Five checks:
# - scripts/bench_cycles.py with the two trees as its sides on cycle12, k5, grid3x3, multi3, multi4
#   and k2x70: it exits nonzero when the sides disagree on any node count, value or marginal, so
#   the default path stays bit-identical; the multi<seed> graphs add the free, dangling and
#   parallel edges that the other three lack, and k2x70's degree-70 vertices the sibling counts
#   past the kernel's per-count tables;
# - the traced count, estimate_count(g, 0.2, on_node=...), on cycle12, k5, grid3x3, multi3 and
#   multi4: the sha256 of the hook stream, the node count and the value's hex must match the
#   base's, so a count's hook stream cannot move, the calls of a subtree the chain replays
#   included, which no single marginal reaches;
# - verify's report at seeds 1 and 2: every suite line of the base but its total must appear byte
#   for byte in the change's, so a suite's result cannot move, while a change may add suites;
# - marginal --trace on the multi<seed> graphs and K_{2,70} at a few edges and depths: stdout and
#   stderr must match the base's byte for byte, as the trace format is stable; at these depths
#   dangling nodes whose children are all truncated trace dangling, free and parallel children,
#   and at depth 2 K_{2,70}'s degree-70 vertices give such nodes past the kernel's tables;
# - from-cnf --epsilon 0.2 --exact on a seeded ring CNF from perfbench/gen.py: stdout must match
#   the base's byte for byte, so the CNF frontend's path to the count is checked too.
set -euo pipefail

if [ "$#" -ne 1 ] || [ ! -d "$1/covercount" ]; then
  echo "usage: $0 BASE_SRC (a directory holding a covercount package)" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# its rows go to stderr; show them only when it fails
if ! python3 scripts/bench_cycles.py --side base="$base" --side change=src \
  --instances cycle12,k5,grid3x3,multi3,multi4,k2x70 > /dev/null 2> "$tmp/bench.err"; then
  cat "$tmp/bench.err" >&2
  exit 1
fi

# each tree's own graphs and counter, through bench_cycles.py's loader
traced_counts() {
  python3 - "$1" <<'EOF'
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, "scripts")
from bench_cycles import build, load, module

side = load(Path(sys.argv[1]), 0)
for instance in ("cycle12", "k5", "grid3x3", "multi3", "multi4"):
    stream = hashlib.sha256()

    def hook(depth, edge, kind, branch):
        stream.update(f"{depth} {edge} {kind.name} {branch}\n".encode())

    result = module(side, "counter").estimate_count(build(side, instance), 0.2, on_node=hook)
    print(instance, stream.hexdigest(), result.nodes, result.value.hex())
EOF
}
traced_counts "$base" > "$tmp/base.txt"
traced_counts "$PWD/src" > "$tmp/change.txt"
if ! cmp -s "$tmp/base.txt" "$tmp/change.txt"; then
  printf 'traced count: hook stream, node count or value differs from the base\n'
  diff "$tmp/base.txt" "$tmp/change.txt" || true
  exit 1
fi

for seed in 1 2; do
  PYTHONPATH="$base" python3 -m covercount verify --seed "$seed" > "$tmp/base.txt"
  PYTHONPATH=src python3 -m covercount verify --seed "$seed" > "$tmp/change.txt"
  missing=$(grep -v '^[A-Z]* total ' "$tmp/base.txt" | grep -vxFf "$tmp/change.txt" || true)
  if [ -n "$missing" ]; then
    printf 'verify --seed %s: base lines missing from the change:\n%s\n' "$seed" "$missing"
    exit 1
  fi
done

for s in 3 4; do
  PYTHONPATH=src python3 -c "from covercount.generate import random_multigraph; from covercount.graph import format_graph; print(format_graph(random_multigraph($s, max_vertices=12, max_edges=40)), end='')" > "$tmp/multi$s.graph"
done
PYTHONPATH=src python3 -c "from covercount.graph import Graph, format_graph; print(format_graph(Graph.from_edges([(i, 2 + j) for i in range(2) for j in range(70)])), end='')" > "$tmp/k2x70.graph"
for name in multi3 multi4 k2x70; do
  for e in 0 5 11; do
    for d in 2 4; do
      args=(marginal "$tmp/$name.graph" --edge "$e" --depth "$d" --trace)
      PYTHONPATH="$base" python3 -m covercount "${args[@]}" > "$tmp/base.out" 2> "$tmp/base.err"
      PYTHONPATH=src python3 -m covercount "${args[@]}" > "$tmp/change.out" 2> "$tmp/change.err"
      if ! cmp -s "$tmp/base.out" "$tmp/change.out" || ! cmp -s "$tmp/base.err" "$tmp/change.err"; then
        printf 'marginal --trace %s --edge %s --depth %s: output differs from the base\n' "$name" "$e" "$d"
        exit 1
      fi
    done
  done
done

cnf="$tmp/ring.cnf"
python3 -c "import random, sys; sys.path.insert(0, 'perfbench'); from gen import ring_cnf_text, ring_privates; print(ring_cnf_text(ring_privates(60, random.Random(31))), end='')" > "$cnf"
args=(from-cnf "$cnf" --epsilon 0.2 --exact)
PYTHONPATH="$base" python3 -m covercount "${args[@]}" > "$tmp/base.out"
PYTHONPATH=src python3 -m covercount "${args[@]}" > "$tmp/change.out"
if ! cmp -s "$tmp/base.out" "$tmp/change.out"; then
  printf 'from-cnf --epsilon 0.2 --exact on the ring CNF: output differs from the base\n'
  exit 1
fi
