"""scripts/same_as_base.py passes a base tree that is a byte copy of ``src``
and fails one whose ``--trace`` line differs by one byte, whose table
builder keeps edges in input order, whose ``Graph.__init__`` alone does, or
whose estimator workspace reverses the incidence rows it translates from
sparse edge ids, naming each report line that moved."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_as_base.py"
SRC = SCRIPT.parent.parent / "src"


def gate(tmp_path: Path, edit: tuple[str, str, str] | None = None) -> subprocess.CompletedProcess:
    """The gate run against a copy of ``src`` with at most one edit (module file, old, new)."""
    base = tmp_path / "src"
    shutil.copytree(SRC, base, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        name, old, new = edit
        path = base / "covercount" / name
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return subprocess.run([sys.executable, str(SCRIPT), str(base)], capture_output=True, text=True)


def test_a_byte_copy_of_src_passes(tmp_path):
    run = gate(tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_a_one_byte_trace_edit_fails_and_names_every_trace_run(tmp_path):
    run = gate(tmp_path, ("cli.py", 'f"depth={d} edge=', 'f"depth={d};edge='))
    assert run.returncode == 1
    missing = run.stderr.splitlines()
    # multi3, multi4, K_{2,70} and multi4s, each at 3 edges and 2 depths; nothing else moved
    assert len(missing) == 24
    assert all(re.search(r" cli marginal \S+ --edge \d+ --depth \d --trace: exit 0 ", line) for line in missing)


def missing_keys(run: subprocess.CompletedProcess) -> list[str]:
    return sorted(line.split(": ", 1)[1].split(":")[0] for line in run.stderr.splitlines())


def test_an_input_order_builder_fails_on_every_shuffled_input_whose_count_reads_it(tmp_path):
    run = gate(tmp_path, ("graph.py", "for e in sorted(edges)}", "for e in edges}"))
    assert run.returncode == 1
    # multi3c's count does not depend on edge order; exact counts do not either
    assert missing_keys(run) == [
        "cli count grid.graph --epsilon 0.2",
        "cli count multi4c.graph --epsilon 0.2",
        "graph multi4, shuffled",
    ]


def test_an_input_order_constructor_fails_on_the_shuffled_constructor_only(tmp_path):
    input_order = """for eid, ends in emap.items():
            for u in ends:
                adj[u].append(eid)
        self._edges, self._adj = emap, {v: tuple(adj[v]) for v in adj}"""
    run = gate(tmp_path, ("graph.py", "self._edges, self._adj = _tables(adj, emap)", input_order))
    assert run.returncode == 1
    assert missing_keys(run) == ["graph multi4, shuffled"]


def test_a_workspace_that_reverses_translated_rows_fails_on_multi4s_only(tmp_path):
    # every other input has dense ids, so the translation never runs on it; an
    # untraced count of multi4s reads the same value and node count either way
    row = "inc = [tuple(map(edge_no, row)) for row in inc]"
    reversed_rows = "inc = [tuple(map(edge_no, row))[::-1] for row in inc]"
    run = gate(tmp_path, ("estimator.py", row, reversed_rows))
    assert run.returncode == 1
    assert missing_keys(run) == sorted(
        [f"cli marginal multi4s.graph --edge {e} --depth {d} --trace" for e in (3, 5003, 11003) for d in (2, 4)]
        + ["traced multi4s"]
    )
