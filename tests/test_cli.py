import json
import math
import subprocess
import sys

import pytest

from conftest import lucas
from covercount import cli
from covercount.cli import main
from covercount.generate import cycle_graph, path_graph
from covercount.graph import format_graph

C4_TEXT = "v 0\nv 1\nv 2\nv 3\ne 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\n"
CNF_TEXT = "p cnf 3 2\n1 2 0\n2 3 0\n"
# stdout of `verify --max-edges 6 --instances 25 --trials 500 --seed 3`
SMALL_VERIFY_REPORT = (
    "PASS decay-bound worst_err=5.000e-01 bound_at_worst=1.500e+00\n"
    "PASS decay-bound-dangling-free worst_err=5.000e-01 bound_at_worst=5.000e-01\n"
    "PASS half-bound max_estimate=0.5 min_estimate=0.0\n"
    "PASS fptas-eps=0.5 worst_rel_err=2.220e-16 allowed=0.5\n"
    "PASS fptas-eps=0.2 worst_rel_err=2.220e-16 allowed=0.2\n"
    "PASS fptas-eps=0.1 worst_rel_err=2.220e-16 allowed=0.1\n"
    "PASS exact-identities checked=364 violations=0\n"
    "PASS dangling-combine-sensitivity trials=500 worst_margin=0.000e+00\n"
    "PASS normal-combine-sensitivity trials=500 worst_margin=0.000e+00\n"
    "PASS total suites=9 failed=0\n"
)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(C4_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_c4(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "exact", c4_file)
        assert code == 0
        assert json.loads(out) == {"count": "7"}

    def test_big_counts_stay_decimal_strings(self, capsys, tmp_path):
        path = tmp_path / "free.graph"
        path.write_text("".join(f"f {i}\n" for i in range(24)))
        code, out, _ = run_cli(capsys, "exact", str(path))
        assert code == 0
        assert json.loads(out) == {"count": str(2**24)}

    def test_over_cap_fails_without_numbers(self, capsys, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text("".join(f"f {i}\n" for i in range(30)))
        code, out, err = run_cli(capsys, "exact", str(path))
        assert code == 1
        assert out == ""
        assert "oracle too large" in err


class TestCount:
    def test_single_edge(self, capsys, tmp_path):
        path = tmp_path / "single.graph"
        path.write_text("v 0\nv 1\ne 0 0 1\n")
        code, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 1.0
        assert payload["m"] == 1 and payload["n"] == 2
        assert payload["isolated"] is False

    def test_c4_fields(self, capsys, c4_file):
        _, out, _ = run_cli(capsys, "count", c4_file, "--epsilon", "0.1")
        payload = json.loads(out)
        assert set(payload) == {"count", "log_count", "log10_count", "epsilon", "depth", "m", "n", "isolated"}
        assert 6.3 <= payload["count"] <= 7.7

    def test_isolated_vertex_yields_zero_with_null_log(self, capsys, tmp_path):
        path = tmp_path / "iso.graph"
        path.write_text("v 0\nv 1\nd 0 0\n")
        _, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "0.5")
        payload = json.loads(out)
        assert payload["count"] == 0.0
        assert payload["log_count"] is None
        assert payload["log10_count"] is None
        assert payload["isolated"] is True

    @pytest.mark.parametrize(
        "text, log_exact",
        [
            (format_graph(cycle_graph(2000)), math.log(lucas(2000))),
            ("".join(f"f {i}\n" for i in range(1100)), 1100 * math.log(2)),
        ],
        ids=["cycle2000", "free1100"],
    )
    def test_past_float_range_reports_null_count(self, capsys, tmp_path, text, log_exact):
        path = tmp_path / "big.graph"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "0.2")
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["count"] is None
        assert abs(math.expm1(payload["log_count"] - log_exact)) <= 0.2

    def test_log10_count_of_cycle2000_within_eps_of_lucas(self, capsys, tmp_path):
        path = tmp_path / "cycle2000.graph"
        path.write_text(format_graph(cycle_graph(2000)))
        _, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "0.2")
        payload = json.loads(out)
        assert payload["log10_count"] == payload["log_count"] / math.log(10)
        assert abs(payload["log10_count"] - math.log10(lucas(2000))) <= math.log10(1.2)

    def test_epsilon_validated(self, capsys, c4_file):
        with pytest.raises(SystemExit):
            main(["count", c4_file, "--epsilon", "1.5"])


class TestMarginal:
    def test_free_edge(self, capsys, tmp_path):
        path = tmp_path / "free.graph"
        path.write_text("f 0\n")
        code, out, _ = run_cli(capsys, "marginal", str(path), "--edge", "0", "--depth", "4")
        assert code == 0
        assert json.loads(out) == {"estimate": 0.5, "depth": 4}

    def test_exact_flag_adds_rational(self, capsys, c4_file):
        _, out, _ = run_cli(capsys, "marginal", c4_file, "--edge", "0", "--exact")
        payload = json.loads(out)
        assert payload["exact_num"] == 2 and payload["exact_den"] == 7
        assert abs(payload["estimate"] - 2 / 7) < 1e-6

    def test_trace_goes_to_stderr(self, capsys, c4_file):
        code, out, err = run_cli(capsys, "marginal", c4_file, "--edge", "0", "--depth", "5", "--trace")
        assert code == 0
        json.loads(out)
        lines = err.strip().splitlines()
        assert lines
        assert lines[0].startswith("depth=5 edge=0 kind=N branch=normal")
        for line in lines:
            fields = dict(part.split("=") for part in line.split())
            assert fields["kind"] in {"N", "D", "F"}
            assert fields["branch"] in {"base", "free", "dangling", "normal"}

    def test_unknown_edge_fails(self, capsys, c4_file):
        code, out, err = run_cli(capsys, "marginal", c4_file, "--edge", "9")
        assert code == 1
        assert out == ""
        assert "unknown edge" in err


class TestFromCnf:
    def test_example(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text(CNF_TEXT)
        code, out, _ = run_cli(capsys, "from-cnf", str(path), "--epsilon", "0.1", "--exact")
        payload = json.loads(out)
        assert code == 0
        assert payload["vars"] == 3 and payload["clauses"] == 2
        assert payload["exact"] == "5"
        assert 4.5 <= payload["count"] <= 5.5
        assert payload["log10_count"] == pytest.approx(math.log10(payload["count"]), rel=1e-12)

    def test_bad_formula_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 -2 0\n")
        code, out, err = run_cli(capsys, "from-cnf", str(path), "--epsilon", "0.1")
        assert code == 1
        assert out == ""
        assert "not monotone" in err


class TestVerify:
    def test_small_run_passes_and_reproduces(self, capsys):
        argv = ["verify", "--max-edges", "6", "--instances", "25", "--trials", "500", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert any("decay-bound " in line for line in lines)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code2 == 0
        assert out2 == out  # byte-reproducible under a fixed seed

    def test_small_run_matches_the_recorded_report(self, capsys):
        argv = ["verify", "--max-edges", "6", "--instances", "25", "--trials", "500", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == SMALL_VERIFY_REPORT


class TestBench:
    def test_cycle_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "cycle", "--sizes", "8,12", "--epsilon", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,L,nodes_expanded,wall_ms,estimate"
        assert len(lines) == 3
        for line in lines[1:]:
            n, m, L, nodes, wall_ms, estimate = line.split(",")
            assert int(nodes) > 0
            assert float(wall_ms) >= 0
            assert float(estimate) > 0

    def test_reproducible_apart_from_wall_time(self, capsys):
        argv = ["bench", "--family", "random", "--sizes", "6", "--epsilon", "0.5", "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)

        def strip_wall(text):
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            return [row[:4] + row[5:] for row in rows]

        assert strip_wall(first) == strip_wall(second)


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "exact", "/no/such/file.graph")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("e 0 0 1\n")
        code, out, err = run_cli(capsys, "exact", str(path))
        assert code == 1
        assert out == ""
        assert "undeclared vertex" in err


    def test_recursion_too_deep_is_a_one_line_error(self, capsys, tmp_path):
        # edge 0 of a long path starts a chain of dangling edges one frame each
        path = tmp_path / "path3000.graph"
        path.write_text(format_graph(path_graph(3001)))
        code, out, err = run_cli(capsys, "marginal", str(path), "--edge", "0", "--depth", "5000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1

    def test_arithmetic_error_is_a_one_line_error(self, capsys, c4_file, monkeypatch):
        def overflow(*_):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "estimate_count", overflow)
        code, out, err = run_cli(capsys, "count", c4_file, "--epsilon", "0.2")
        assert code == 1
        assert out == ""
        assert err == "error: math range error\n"

    def test_undecodable_file_names_the_codec_failure(self, capsys, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xff")
        code, out, err = run_cli(capsys, "count", str(path), "--epsilon", "0.2")
        assert code == 1
        assert out == ""
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def test_module_entry_point(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(C4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "covercount", "exact", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"count": "7"}
