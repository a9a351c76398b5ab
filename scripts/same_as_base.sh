#!/usr/bin/env bash
# Usage: scripts/same_as_base.sh BASE_SRC
#
# Checks that this tree's src gives the same results as BASE_SRC, the src directory of a base
# commit (for instance `git archive <base> src | tar -x -C <dir>`, then <dir>/src).  Exits 1 on
# the first difference.  Three checks:
# - scripts/bench_cycles.py with the two trees as its sides on cycle12, k5, grid3x3, multi3 and
#   multi4: it exits nonzero when the sides disagree on any node count, value or marginal, so the
#   default path stays bit-identical; the multi<seed> graphs add the free, dangling and parallel
#   edges that the other three lack;
# - verify's report at seeds 1 and 2: every suite line of the base but its total must appear byte
#   for byte in the change's, so a suite's result cannot move, while a change may add suites;
# - marginal --trace on the multi<seed> graphs at a few edges and depths: stdout and stderr must
#   match the base's byte for byte, as the trace format is stable; at these depths dangling nodes
#   whose children are all truncated trace dangling, free and parallel children.
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
  --instances cycle12,k5,grid3x3,multi3,multi4 > /dev/null 2> "$tmp/bench.err"; then
  cat "$tmp/bench.err" >&2
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
  graph="$tmp/multi$s.graph"
  PYTHONPATH=src python3 -c "from covercount.generate import random_multigraph; from covercount.graph import format_graph; print(format_graph(random_multigraph($s, max_vertices=12, max_edges=40)), end='')" > "$graph"
  for e in 0 5 11; do
    for d in 2 4; do
      args=(marginal "$graph" --edge "$e" --depth "$d" --trace)
      PYTHONPATH="$base" python3 -m covercount "${args[@]}" > "$tmp/base.out" 2> "$tmp/base.err"
      PYTHONPATH=src python3 -m covercount "${args[@]}" > "$tmp/change.out" 2> "$tmp/change.err"
      if ! cmp -s "$tmp/base.out" "$tmp/change.out" || ! cmp -s "$tmp/base.err" "$tmp/change.err"; then
        printf 'marginal --trace multi%s --edge %s --depth %s: output differs from the base\n' "$s" "$e" "$d"
        exit 1
      fi
    done
  done
done
