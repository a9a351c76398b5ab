"""scripts/bench_cycles.py names each side by its source content, counts each
graph only in the counts it times, times ``run_verification`` for a
``verify<seed>`` instance, names every instance whose sides disagree, fails
when a run fails, and refuses a side label given twice or a run that would
measure nothing."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    import covercount.verify
    from covercount.verify import SuiteResult

    calls = []
    results = [SuiteResult("decay-bound", True, "worst_err=1.0e-01"), SuiteResult("fptas-eps=0.5", False, "x")]

    def run_verification(**kwargs):
        calls.append(kwargs)
        return results

    monkeypatch.setattr(covercount.verify, "run_verification", run_verification)
    row = bench.measure("verify712")

    # the verify command's defaults are run_verification's own (tests/test_verify.py)
    assert calls == [{"seed": 712}] * bench.REPEATS
    text = '[["decay-bound", true, "worst_err=1.0e-01"], ["fptas-eps=0.5", false, "x"]]'
    assert row["suites_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert row["seed"] == 712 and len(row["walls_s"]) == bench.REPEATS and row["best_s"] == min(row["walls_s"])
    assert not {"nodes", "value_hex", "marginals_sha256"} & set(row)


def test_disagreements_name_verify_instances_whose_suites_differ(bench):
    rows = [{"side": side, "instance": "verify0", "suites_sha256": "aa"} for side in ("parent", "change")]
    rows += [{"side": "parent", "instance": "verify3", "suites_sha256": "aa"}]
    rows += [{"side": "change", "instance": "verify3", "suites_sha256": "bb"}]
    rows.append({"side": "change", "instance": "verify0", "error": "ValueError"})
    assert bench.disagreements(rows) == ["verify3: suites=aa from ['parent']; suites=bb from ['change']"]


def test_a_row_records_the_digest_of_its_marginals_in_chain_order(bench, monkeypatch):
    from covercount.counter import estimate_count

    monkeypatch.setattr(bench, "REPEATS", 1)
    row = bench.measure("cycle7")
    text = " ".join(p.hex() for _, p in estimate_count(bench.build("cycle7"), bench.EPSILON).marginals)
    assert row["marginals_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_a_child_runs_only_its_timed_counts_and_traces_none(bench, monkeypatch):
    import covercount.counter

    real = covercount.counter.estimate_count
    hooks = []

    def counted(g, eps, on_node=None):
        hooks.append(on_node)
        return real(g, eps, on_node)

    monkeypatch.setattr(covercount.counter, "estimate_count", counted)
    bench.measure("cycle7")
    assert hooks == [None] * bench.REPEATS


@pytest.mark.parametrize("instance", ["cycle7", "k5"])
def test_a_rows_nodes_are_the_counts_own_and_the_node_streams_length(bench, monkeypatch, instance):
    from covercount.counter import estimate_count

    monkeypatch.setattr(bench, "REPEATS", 1)
    row = bench.measure(instance)
    stream = []
    result = estimate_count(bench.build(instance), bench.EPSILON, on_node=lambda *node: stream.append(node))
    assert row["nodes"] == result.nodes == len(stream) > 0


def test_a_side_whose_count_has_no_nodes_gives_error_rows_and_exit_1(tmp_path):
    # a tree whose ApproxCount predates the recursion counting its own nodes
    old = make_tree(tmp_path / "old")
    (old / "covercount" / "graph.py").write_text("Graph = None\n")
    (old / "covercount" / "generate.py").write_text(
        "from types import SimpleNamespace\n\n"
        "def cycle_graph(n):\n"
        "    return SimpleNamespace(vertex_count=n, edge_count=n)\n"
    )
    (old / "covercount" / "counter.py").write_text(
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
    assert [row["error"] for row in rows] == ["AttributeError: 'ApproxCount' object has no attribute 'nodes'"] * 5


def test_failed_runs_make_the_exit_nonzero_after_the_record(tmp_path):
    broken = make_tree(tmp_path / "broken")
    (broken / "covercount" / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    out = tmp_path / "record.json"
    argv = [str(SCRIPTS / "bench_cycles.py"), "--side", f"broken={broken}", "--instances", "cycle5", "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)

    assert proc.returncode == 1, proc.stderr
    record = json.loads(out.read_text())
    assert [row["error"] for row in record["rows"]] == ["ImportError: broken on purpose"] * 5
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
