"""Per-layer tracing from outside the program.

``Tracer`` replaces public module attributes with wrappers that record
one span (name, start, end, parent) per call and puts the originals
back on ``restore``.  Spans stay in memory until ``dump``.  A layer's
self time is its span's duration minus the durations of its child spans;
the program is single-threaded, so children never overlap and no span
ever waits on a queue.

``NodeCounter`` counts recursion nodes by branch through the public
``on_node`` hook.  The callback slows the recursion, so it runs in a
pass of its own and contributes no timings.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

from covercount import cli, counter, oracle, verify

# (module, attribute, span name): every call the workloads make into a layer.
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "parse_graph", "graph.parse"),
    (cli, "parse_cnf", "cnf.parse"),
    (cli, "to_graph", "cnf.to_graph"),
    (cli, "estimate_count", "counter.count"),
    (counter, "estimate_count", "counter.count"),
    (verify, "estimate_count", "counter.count"),
    (counter, "elimination_chain", "counter.chain"),
    (counter, "estimate_marginal", "estimator.marginal"),
    (verify, "estimate_marginal", "estimator.marginal"),
    (verify, "exact_count", "oracle.count"),
    (oracle, "exact_count", "oracle.count"),
    (verify, "exact_marginal", "oracle.marginal"),
    (verify, "sensitivity_bounds_suite", "verify.sensitivity"),
    (verify, "run_verification", "verify.run"),
)

# Entry points that take the public on_node hook.
HOOKED = (
    (cli, "estimate_count"),
    (counter, "estimate_count"),
    (verify, "estimate_count"),
    (verify, "estimate_marginal"),
)


class _Patches:
    def __init__(self):
        self._saved = []

    def patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self.subsets = 0  # sum of 2^m over oracle enumerations
        self.depth_max = 0

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            self.patch(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, original, name):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        is_count = name == "counter.count"
        is_oracle = name == "oracle.count"

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            if is_oracle and not args[0].has_isolated_vertex():
                self.subsets += 1 << args[0].edge_count
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if is_count:
                self.depth_max = max(self.depth_max, result.depth_used)
            return result

        return wrapper

    def layers(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over spans lo..hi-1 (one pass)."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        oracle_s = 0.0
        for i in range(lo, hi):
            name = names[i]
            dur = ends[i] - starts[i]
            total[name] += dur
            own[name] += dur - child[i - lo]
            calls[name] += 1
            p = parents[i]
            if name.startswith("oracle.") and (p < 0 or not names[p].startswith("oracle.")):
                oracle_s += dur
        marginal_calls = calls["estimator.marginal"]
        return {
            "cli.self_s": own["cli.main"],
            "graph.parse_s": total["graph.parse"],
            "cnf.parse_s": total["cnf.parse"],
            "cnf.to_graph_s": total["cnf.to_graph"],
            "counter.count_s": total["counter.count"],
            "counter.chain_s": total["counter.chain"],
            "counter.self_s": own["counter.count"],
            "estimator.marginal_s": total["estimator.marginal"],
            "estimator.marginal_calls": marginal_calls,
            "estimator.call_us": total["estimator.marginal"] / marginal_calls * 1e6 if marginal_calls else 0.0,
            "oracle.count_s": oracle_s,
            "oracle.count_calls": calls["oracle.count"],
            "verify.self_s": own["verify.run"],
            "verify.sensitivity_s": total["verify.sensitivity"],
        }

    def dump(self, path, pass_starts: list[int]) -> None:
        """Write every span as tab-separated pass, name, start, end, parent."""
        bounds = pass_starts + [len(self.names)]
        with open(path, "w") as f:
            f.write("pass\tname\tstart\tend\tparent\n")
            for k in range(len(pass_starts)):
                for i in range(bounds[k], bounds[k + 1]):
                    f.write(f"{k}\t{self.names[i]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")


class NodeCounter(_Patches):
    def __init__(self):
        super().__init__()
        self.branches: Counter[str] = Counter()

    def __call__(self, depth, edge, kind, branch) -> None:
        self.branches[branch] += 1

    def install(self) -> None:
        for module, attr in HOOKED:
            self.patch(module, attr, self._hook(getattr(module, attr)))

    def _hook(self, original):
        def hooked(*args, **kwargs):
            return original(*args, on_node=self, **kwargs)

        return hooked

    def metrics(self) -> dict[str, float]:
        b = self.branches
        nodes = sum(b.values())
        out = {"estimator.nodes": nodes}
        for branch in ("base", "free", "dangling", "normal"):
            out[f"estimator.nodes_{branch}"] = b[branch]
        out["estimator.truncated_ratio"] = b["base"] / nodes if nodes else 0.0
        return out
