"""scripts/bench_cycles.py names each side by its source content, loads each
side's tree under its own name and runs that tree's code (its own generator
for a ``multi<seed>`` instance, its own ``Graph`` for a ``k<a>x<b>`` one), times one run per
side per round, back to back, counts each graph only in the count it times, times
``run_verification`` for a ``verify<seed>`` instance, names every instance
whose sides disagree, fails when a run fails, and refuses a side label given
twice or a run that would measure nothing."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_cycles

    return bench_cycles


def make_tree(root: Path, estimator: bytes = b"X = 1\n") -> Path:
    (root / "covercount").mkdir(parents=True)
    (root / "covercount" / "__init__.py").write_bytes(b"")
    (root / "covercount" / "estimator.py").write_bytes(estimator)
    return root


def counting_tree(root: Path, counter: str) -> Path:
    """A tree whose ``cycle_graph`` builds a stand-in graph and whose ``counter.py`` is ``counter``."""
    tree = make_tree(root)
    (tree / "covercount" / "graph.py").write_text("Graph = None\n")
    (tree / "covercount" / "generate.py").write_text(
        "from types import SimpleNamespace\n\n"
        "def cycle_graph(n):\n"
        "    return SimpleNamespace(vertex_count=n, edge_count=n)\n"
    )
    (tree / "covercount" / "counter.py").write_text(counter)
    return tree


def test_byte_identical_trees_get_one_digest(bench, tmp_path):
    assert bench.source_digest(make_tree(tmp_path / "a")) == bench.source_digest(make_tree(tmp_path / "b"))


def test_a_one_byte_edit_changes_the_digest(bench, tmp_path):
    a = make_tree(tmp_path / "a", b"X = 1\n")
    b = make_tree(tmp_path / "b", b"X = 2\n")
    assert bench.source_digest(a) != bench.source_digest(b)


def test_compiled_files_leave_the_digest_alone(bench, tmp_path):
    tree = make_tree(tmp_path / "a")
    before = bench.source_digest(tree)
    (tree / "covercount" / "__pycache__").mkdir()
    (tree / "covercount" / "__pycache__" / "estimator.cpython-311.pyc").write_bytes(b"\x00compiled")
    assert bench.source_digest(tree) == before


def test_disagreements_name_instances_whose_nodes_or_values_differ(bench):
    def row(side, instance, nodes, value_hex, marginals="aa"):
        return {"side": side, "instance": instance, "nodes": nodes, "value_hex": value_hex, "marginals_sha256": marginals}

    rows = [row(side, "k8", 23415, "0x1.8p+4") for side in ("parent", "change") for _ in range(2)]
    rows += [row("parent", "grid6x6", 10, "0x1.0p+0"), row("change", "grid6x6", 11, "0x1.0p+0")]
    rows += [row("parent", "cycle9", 10, "0x1.0p+0"), row("change", "cycle9", 10, "0x1.8p+0")]
    # equal nodes and count, different marginals: a rounded product can hide a changed factor
    rows += [row("parent", "cycle12", 10, "0x1.0p+0", "aa"), row("change", "cycle12", 10, "0x1.0p+0", "bb")]
    rows.append({"side": "change", "instance": "k8", "error": "MemoryError"})
    assert bench.disagreements(rows) == [
        "grid6x6: nodes=10 value=0x1.0p+0 marginals=aa from ['parent']; nodes=11 value=0x1.0p+0 marginals=aa from ['change']",
        "cycle9: nodes=10 value=0x1.0p+0 marginals=aa from ['parent']; nodes=10 value=0x1.8p+0 marginals=aa from ['change']",
        "cycle12: nodes=10 value=0x1.0p+0 marginals=aa from ['parent']; nodes=10 value=0x1.0p+0 marginals=bb from ['change']",
    ]


def test_a_verify_row_runs_the_command_defaults_and_digests_every_suite(bench, monkeypatch):
    side = bench.load(SRC, 0)
    verify = bench.module(side, "verify")
    calls = []
    SuiteResult = verify.SuiteResult
    results = [SuiteResult("decay-bound", True, "worst_err=1.0e-01"), SuiteResult("fptas-eps=0.5", False, "x")]

    def run_verification(**kwargs):
        calls.append(kwargs)
        return results

    monkeypatch.setattr(verify, "run_verification", run_verification)
    row = bench.measure(side, "verify712")

    # the verify command's defaults are run_verification's own (tests/test_verify.py)
    assert calls == [{"seed": 712}]
    text = '[["decay-bound", true, "worst_err=1.0e-01"], ["fptas-eps=0.5", false, "x"]]'
    assert row["suites_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert row["seed"] == 712 and isinstance(row["wall_s"], float) and row["wall_s"] >= 0
    assert not {"nodes", "value_hex", "marginals_sha256"} & set(row)


def test_disagreements_name_verify_instances_whose_suites_differ(bench):
    rows = [{"side": side, "instance": "verify0", "suites_sha256": "aa"} for side in ("parent", "change")]
    rows += [{"side": "parent", "instance": "verify3", "suites_sha256": "aa"}]
    rows += [{"side": "change", "instance": "verify3", "suites_sha256": "bb"}]
    rows.append({"side": "change", "instance": "verify0", "error": "ValueError"})
    assert bench.disagreements(rows) == ["verify3: suites=aa from ['parent']; suites=bb from ['change']"]


def test_a_row_records_the_digest_of_its_marginals_in_chain_order(bench):
    from covercount import counter, generate

    row = bench.measure(bench.load(SRC, 0), "cycle7")
    text = " ".join(p.hex() for _, p in counter.estimate_count(generate.cycle_graph(7), bench.EPSILON).marginals)
    assert row["marginals_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_a_row_runs_only_its_timed_counts_and_traces_none(bench, monkeypatch):
    side = bench.load(SRC, 0)
    counter = bench.module(side, "counter")
    real = counter.estimate_count
    hooks = []

    def counted(g, eps, on_node=None):
        hooks.append(on_node)
        return real(g, eps, on_node)

    monkeypatch.setattr(counter, "estimate_count", counted)
    bench.measure(side, "cycle7")
    assert hooks == [None]


def test_a_multi_instance_is_built_by_the_sides_own_generator(bench, tmp_path):
    tree = counting_tree(tmp_path / "a", "")
    with open(tree / "covercount" / "generate.py", "a") as f:
        f.write("\ndef random_multigraph(seed, **sizes):\n    return seed, sizes\n")
    assert bench.build(bench.load(tree, 0), "multi4") == (4, {"max_vertices": 12, "max_edges": 40})


def test_a_multi_instance_has_free_dangling_and_parallel_edges(bench):
    from covercount import counter, generate

    side = bench.load(SRC, 0)
    g = bench.build(side, "multi3")
    want = generate.random_multigraph(3, max_vertices=12, max_edges=40)
    ends = [g.endpoints(e) for e in g.edge_ids]
    assert list(g.edge_ids) == list(want.edge_ids) and ends == [want.endpoints(e) for e in want.edge_ids]
    # what CI's base-vs-change step runs it for: cycles, grids and complete graphs have none of these
    assert {len(pair) for pair in ends} == {0, 1, 2}
    assert len({pair for pair in ends if len(pair) == 2}) < sum(len(pair) == 2 for pair in ends)
    row = bench.measure(side, "multi3")
    result = counter.estimate_count(want, bench.EPSILON)
    assert (row["m"], row["nodes"], row["value_hex"]) == (38, result.nodes, result.value.hex())


def test_an_unknown_instance_names_every_family(bench):
    with pytest.raises(ValueError) as raised:
        bench.build(bench.load(SRC, 0), "wheel5")
    assert str(raised.value).endswith("expected cycle<n>, grid<r>x<c>, k<n>, k<a>x<b>, multi<seed> or verify<seed>")


def test_a_complete_bipartite_instance_is_built_by_the_sides_own_graph(bench):
    from covercount import counter, estimator
    from covercount.graph import Graph

    side = bench.load(SRC, 0)
    g = bench.build(side, "k2x70")
    want = Graph.from_edges([(i, 2 + j) for i in range(2) for j in range(70)])
    assert type(g) is bench.module(side, "graph").Graph
    assert g.vertices == want.vertices and [g.endpoints(e) for e in g.edge_ids] == [
        want.endpoints(e) for e in want.edge_ids
    ]
    # what the base-vs-change gate runs it for: a vertex whose siblings outnumber the kernel's tables
    assert len(g.incident_edges(0)) - 1 >= estimator._TABLE_SIZE
    row = bench.measure(side, "k2x70")
    result = counter.estimate_count(want, bench.EPSILON)
    assert (row["m"], row["nodes"], row["value_hex"]) == (140, result.nodes, result.value.hex())


@pytest.mark.parametrize("instance", ["cycle7", "k5"])
def test_a_rows_nodes_are_the_counts_own_and_the_node_streams_length(bench, instance):
    side = bench.load(SRC, 0)
    row = bench.measure(side, instance)
    stream = []
    g = bench.build(side, instance)
    result = bench.module(side, "counter").estimate_count(g, bench.EPSILON, on_node=lambda *node: stream.append(node))
    assert row["nodes"] == result.nodes == len(stream) > 0


def test_a_side_whose_count_has_no_nodes_gives_error_rows_and_exit_1(bench, tmp_path):
    # a tree whose ApproxCount predates the recursion counting its own nodes
    old = counting_tree(
        tmp_path / "old",
        "from typing import NamedTuple\n\n"
        "class ApproxCount(NamedTuple):\n"
        "    value: float\n"
        "    log_value: float\n"
        "    depth_used: int\n"
        "    marginals: tuple\n\n"
        "def estimate_count(g, eps, on_node=None):\n"
        "    return ApproxCount(1.0, 0.0, 1, ())\n"
    )
    out = tmp_path / "record.json"
    argv = [str(SCRIPTS / "bench_cycles.py"), "--side", f"old={old}", "--instances", "cycle5", "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)

    assert proc.returncode == 1, proc.stderr
    rows = json.loads(out.read_text())["rows"]
    message = "AttributeError: 'ApproxCount' object has no attribute 'nodes'"
    assert [row["error"] for row in rows] == [message] * bench.ROUNDS


def test_failed_runs_make_the_exit_nonzero_after_the_record(bench, tmp_path):
    broken = make_tree(tmp_path / "broken")
    (broken / "covercount" / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    out = tmp_path / "record.json"
    argv = [str(SCRIPTS / "bench_cycles.py"), "--side", f"broken={broken}", "--instances", "cycle5", "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)

    assert proc.returncode == 1, proc.stderr
    record = json.loads(out.read_text())
    assert [row["error"] for row in record["rows"]] == ["ImportError: broken on purpose"] * bench.ROUNDS
    assert record["ratios"] == []


def test_a_repeated_side_label_fails_before_any_run(tmp_path):
    # importing this tree leaves a marker file, so a started child would show
    marker = tmp_path / "imported"
    tree = make_tree(tmp_path / "a")
    (tree / "covercount" / "__init__.py").write_text(f"open({str(marker)!r}, 'w').close()\n")
    out = tmp_path / "record.json"
    argv = [str(SCRIPTS / "bench_cycles.py"), "--side", f"x={tree}", "--side", f"x={tree}", "--instances", "cycle5"]
    proc = subprocess.run([sys.executable, *argv, "--out", str(out)], capture_output=True, text=True)

    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("error: repeated --side label")
    assert not marker.exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--instances", "cycle5"], ["--side", "x=src", "--instances", ","]],
    ids=["no-side", "no-instance"],
)
def test_a_run_that_measures_nothing_fails_before_any_run(tmp_path, argv):
    out = tmp_path / "record.json"
    argv = [str(SCRIPTS / "bench_cycles.py"), *argv, "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)

    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith("error: a run needs at least one --side and one instance")
    assert not out.exists()



# a counter whose every count reports the given number of nodes
COUNTER = (
    "from types import SimpleNamespace\n\n"
    "def estimate_count(g, eps, on_node=None):\n"
    "    return SimpleNamespace(value=1.0, depth_used=1, nodes={}, marginals=())\n"
)


def test_each_side_runs_its_own_tree_and_the_callers_covercount_is_untouched(bench, monkeypatch, tmp_path, capsys):
    import covercount.counter

    own = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "covercount"}
    a, b = counting_tree(tmp_path / "a", COUNTER.format(3)), counting_tree(tmp_path / "b", COUNTER.format(4))
    out = tmp_path / "record.json"
    argv = ["bench_cycles.py", "--side", f"a.1={a}", "--side", f"b.2={b}", "--instances", "cycle5", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(bench, "ROUNDS", 4)  # even, so each side leads twice

    assert bench.main() == 1
    assert {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "covercount"} == own
    assert sys.modules["covercount.counter"] is covercount.counter
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.startswith("sides disagree on cycle5: nodes=3 value=0x1.0000000000000p+0 marginals=")
    assert "from ['a.1']; nodes=4 " in line and line.endswith("from ['b.2']")
    # each side is named by its position, since a label may hold dots
    assert sys.modules["covercount_side1"].__file__ == str(b / "covercount" / "__init__.py")
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 * bench.ROUNDS and {row["nodes"] for row in rows if row["side"] == "b.2"} == {4}


def test_the_sides_take_turns_leading_and_every_rounds_ratio_is_kept(bench, monkeypatch, tmp_path):
    out = tmp_path / "record.json"
    argv = ["bench_cycles.py", "--side", f"a={SRC}", "--side", f"b={SRC}", "--instances", "cycle7", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(bench, "ROUNDS", 4)  # even, so each side leads twice

    assert bench.main() == 0
    record = json.loads(out.read_text())
    [entry] = record["ratios"]
    assert (entry["side"], entry["base"], entry["instance"]) == ("b", "a", "cycle7")
    assert len(entry["ratios"]) == bench.ROUNDS
    assert entry["q1"] <= entry["median_ratio"] <= entry["q3"]
    rows = record["rows"]
    assert [row["round"] for row in rows] == [r for r in range(bench.ROUNDS) for _ in "ab"]
    assert [row["side"] for row in rows[::2]] == ["a" if r % 2 == 0 else "b" for r in range(bench.ROUNDS)]


def recording_sides(monkeypatch, tmp_path, labels: str) -> tuple[list, list]:
    """One tree per label whose count appends the label to a list all of them import:
    that list, and the ``--side`` arguments naming the trees."""
    shared = ModuleType("bench_order")
    shared.calls = []
    monkeypatch.setitem(sys.modules, "bench_order", shared)
    counter = (
        "import bench_order\n"
        "from types import SimpleNamespace\n\n"
        "def estimate_count(g, eps, on_node=None):\n"
        "    bench_order.calls.append({!r})\n"
        "    return SimpleNamespace(value=1.0, depth_used=1, nodes=1, marginals=())\n"
    )
    argv = []
    for label in labels:
        argv += ["--side", f"{label}={counting_tree(tmp_path / label, counter.format(label))}"]
    return shared.calls, argv


def test_a_round_is_one_run_per_side_back_to_back(bench, monkeypatch, tmp_path):
    calls, sides = recording_sides(monkeypatch, tmp_path, "ab")
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", ["bench_cycles.py", *sides, "--instances", "cycle5", "--out", str(out)])
    monkeypatch.setattr(bench, "ROUNDS", 4)

    assert bench.main() == 0
    assert " ".join(calls) == "a b b a a b b a"
    rows = json.loads(out.read_text())["rows"]
    assert all(row["ns_per_node"] == row["wall_s"] / row["nodes"] * 1e9 for row in rows)


def test_three_sides_run_in_turn_and_both_later_sides_get_ratios(bench, monkeypatch, tmp_path):
    # an A/A side beside the change: its ratios are the record's own noise floor
    calls, sides = recording_sides(monkeypatch, tmp_path, "abc")
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", ["bench_cycles.py", *sides, "--instances", "cycle5", "--out", str(out)])
    monkeypatch.setattr(bench, "ROUNDS", 4)

    assert bench.main() == 0
    assert " ".join(calls) == "a b c c b a a b c c b a"
    ratios = json.loads(out.read_text())["ratios"]
    assert [(entry["side"], entry["base"], entry["instance"]) for entry in ratios] == [
        ("b", "a", "cycle5"),
        ("c", "a", "cycle5"),
    ]
    assert all(len(entry["ratios"]) == bench.ROUNDS for entry in ratios)
