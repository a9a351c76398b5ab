"""scripts/same_as_base.py passes a base tree that is a byte copy of ``src``
and fails one whose ``--trace`` line differs by one byte, naming each
report line that moved."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_as_base.py"
SRC = SCRIPT.parent.parent / "src"


def gate(tmp_path: Path, edit: tuple[str, str] | None = None) -> subprocess.CompletedProcess:
    """The gate run against a copy of ``src`` with at most one edit to its ``cli.py``."""
    base = tmp_path / "src"
    shutil.copytree(SRC, base, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        cli = base / "covercount" / "cli.py"
        text = cli.read_text()
        assert text.count(edit[0]) == 1
        cli.write_text(text.replace(*edit))
    return subprocess.run([sys.executable, str(SCRIPT), str(base)], capture_output=True, text=True)


def test_a_byte_copy_of_src_passes(tmp_path):
    run = gate(tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_a_one_byte_trace_edit_fails_and_names_every_trace_run(tmp_path):
    run = gate(tmp_path, ('f"depth={d} edge=', 'f"depth={d};edge='))
    assert run.returncode == 1
    missing = run.stderr.splitlines()
    # multi3, multi4 and K_{2,70}, each at 3 edges and 2 depths; nothing else moved
    assert len(missing) == 18
    assert all(re.search(r" cli marginal \S+ --edge \d+ --depth \d --trace: exit 0 ", line) for line in missing)
