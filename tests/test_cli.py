import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest

from conftest import lucas, path_graph, scattered_id_graph, wide_frontier_graph
from covercount import cli
from covercount.cli import main
from covercount.generate import cycle_graph
from covercount.graph import format_graph
from reference import reference_marginal

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
    "PASS dangling-combine-sensitivity trials=500 worst_margin=-4.937e-04\n"
    "PASS normal-combine-sensitivity trials=500 worst_margin=-6.840e-02\n"
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
        path = tmp_path / "wide.graph"
        path.write_text(format_graph(wide_frontier_graph(25)))
        code, out, err = run_cli(capsys, "exact", str(path))
        assert code == 1
        assert out == ""
        assert "oracle too large" in err

    def test_free_edges_count_past_24_edges(self, capsys, tmp_path):
        path = tmp_path / "free.graph"
        path.write_text("".join(f"f {i}\n" for i in range(30)))
        code, out, _ = run_cli(capsys, "exact", str(path))
        assert code == 0
        assert json.loads(out) == {"count": str(2**30)}

    @pytest.mark.parametrize("argv", [["--cap", "-1"], ["--cap", "x"]])
    def test_bad_cap_is_an_argparse_error(self, capsys, c4_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(["exact", c4_file, *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("covercount exact: error: argument --cap:")

    def test_counts_past_the_int_digit_limit_print_in_full(self, capsys, tmp_path):
        path = tmp_path / "cycle30000.graph"
        path.write_text(format_graph(cycle_graph(30_000)))
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "exact", str(path))
        assert code == 0
        count = json.loads(out)["count"]
        assert len(count) > limit  # str() of the int would raise ValueError
        assert Decimal(count) == lucas(30_000)
        assert sys.get_int_max_str_digits() == limit


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

    def test_an_epsilon_whose_reciprocal_overflows(self, capsys, tmp_path):
        # 6 / 1e-320 is inf in floats; the depth budget is taken from logs instead
        path = tmp_path / "single.graph"
        path.write_text("v 0\nv 1\ne 0 0 1\n")
        code, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "1e-320")
        assert code == 0
        assert json.loads(out)["count"] == 1.0

    def test_c4_fields(self, capsys, c4_file):
        _, out, _ = run_cli(capsys, "count", c4_file, "--epsilon", "0.1")
        payload = json.loads(out)
        assert set(payload) == {"count", "log_count", "log10_count", "epsilon", "depth", "m", "n", "isolated"}
        assert 6.3 <= payload["count"] <= 7.7

    @pytest.mark.parametrize(
        "text", ["v 0\nv 1\ne 0 0 1\n", "v 0\nv 1\nv 2\nv 3\ne 0 0 1\ne 1 2 3\n"], ids=["k2", "matching2"]
    )
    def test_a_count_of_one_logs_zero_not_negative_zero(self, capsys, tmp_path, text):
        # K2 and a two-edge matching: every marginal is 0, so the log sum is 0.0
        path = tmp_path / "one.graph"
        path.write_text(text)
        _, out, _ = run_cli(capsys, "count", str(path), "--epsilon", "0.5")
        assert '"count": 1.0, "log_count": 0.0, "log10_count": 0.0,' in out

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

    def test_trace_names_the_files_own_ids(self, capsys, tmp_path):
        g = scattered_id_graph()
        path = tmp_path / "scattered.graph"
        path.write_text(format_graph(g))
        e = 10**12
        # depth 0 truncates the root itself; at depth 1 every dangling child
        # of the root has all of its own children truncated by the kernel
        for depth, root_branch in ((0, "base"), (1, "normal"), (4, "normal")):
            argv = ["marginal", str(path), "--edge", str(e), "--depth", str(depth), "--trace"]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            want = []
            assert json.loads(out)["estimate"] == reference_marginal(g, e, depth, on_node=lambda *a: want.append(a))
            lines = [f"depth={d} edge={x} kind={cli._KIND_CHAR[k]} branch={b}" for d, x, k, b in want]
            assert err.splitlines() == lines
            assert lines[0] == f"depth={depth} edge={e} kind=N branch={root_branch}"
            if depth:
                assert {f"edge={x}" for x in (10**12 + 1, 10**13, 10**12 + 7)} <= {line.split()[1] for line in lines}
            if depth == 1:
                assert f"depth=0 edge={10**12 + 7} kind=F branch=base" in lines

    def test_negative_depth_is_an_argparse_error(self, capsys, c4_file):
        with pytest.raises(SystemExit) as exc:
            main(["marginal", c4_file, "--edge", "0", "--depth", "-3"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == "covercount marginal: error: argument --depth: must be at least 0, got -3"

    def test_unknown_edge_fails(self, capsys, c4_file):
        code, out, err = run_cli(capsys, "marginal", c4_file, "--edge", "9")
        assert code == 1
        assert out == ""
        assert "unknown edge" in err

    @pytest.mark.parametrize("flag", [[], ["--exact"], ["--trace"]], ids=["estimate", "exact", "trace"])
    def test_a_graph_with_no_edge_cover_is_a_one_line_error(self, capsys, tmp_path, flag):
        # vertex 2 has no edge, so there is no cover to take a marginal over
        path = tmp_path / "isolated.graph"
        path.write_text("v 0\nv 1\nv 2\ne 0 0 1\n")
        code, out, err = run_cli(capsys, "marginal", str(path), "--edge", "0", *flag)
        assert code == 1
        assert out == ""
        assert err == "error: graph has no edge covers; marginal undefined\n"


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

    def test_ring_of_30_clauses_counts_exactly(self, capsys, tmp_path):
        # each variable joins two neighbouring clauses: the graph is a 30-cycle
        path = tmp_path / "ring30.cnf"
        path.write_text("p cnf 30 30\n" + "".join(f"{i + 1} {(i + 1) % 30 + 1} 0\n" for i in range(30)))
        code, out, _ = run_cli(capsys, "from-cnf", str(path), "--epsilon", "0.2", "--exact")
        assert code == 0
        assert json.loads(out)["exact"] == "1860498" == str(lucas(30))

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


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "-5", "--instances", "-3"], "argument --trials: must be at least 1, got -5"),
            (["--trials", "0"], "argument --trials: must be at least 1, got 0"),
            (["--instances", "-3"], "argument --instances: must be at least 0, got -3"),
            (["--epsilons", ","], "argument --epsilons: must list at least one value"),
            (["--max-edges", "0", "--instances", "0", "--trials", "1"], "argument --max-edges: must be at least 1, got 0"),
        ],
        ids=["trials-5-instances-3", "trials0", "instances-3", "no-epsilons", "max-edges0"],
    )
    def test_counts_below_their_floor_are_argparse_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"covercount verify: error: {message}"

    def test_no_instances_is_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-edges", "3", "--instances", "0", "--trials", "1")
        assert code == 0
        assert out.splitlines()[-1] == "PASS total suites=9 failed=0"

    def test_a_suite_with_nothing_to_check_reports_zero_error(self, capsys):
        # no corpus graph up to 2 edges has a dangling or free edge
        code, out, _ = run_cli(capsys, "verify", "--max-edges", "2", "--instances", "0")
        assert code == 0
        assert out.splitlines()[1] == "PASS decay-bound-dangling-free worst_err=0.000e+00 bound_at_worst=0.000e+00"

    def test_one_trial_reports_its_own_margin(self, capsys):
        argv = ["verify", "--max-edges", "4", "--instances", "0", "--trials", "1", "--seed", "0"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-2] == "PASS normal-combine-sensitivity trials=1 worst_margin=-1.126e+00"


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

    @pytest.mark.parametrize(
        "family, sizes", [("cycle", [8, 64, 256]), ("random", [6, 10, 20])], ids=["cycle", "random"]
    )
    def test_one_count_per_size_whose_nodes_match_an_on_node_stream(self, capsys, monkeypatch, family, sizes):
        calls = []
        estimate_count = cli.estimate_count

        def counting(*args, **kwargs):
            calls.append(args)
            return estimate_count(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_count", counting)
        argv = ["bench", "--family", family, "--sizes", ",".join(map(str, sizes)), "--epsilon", "0.5", "--seed", "4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == len(sizes)
        for line, size in zip(out.strip().splitlines()[1:], sizes):
            stream = []
            estimate_count(cli._bench_graph(family, size, 4), 0.5, on_node=lambda *a: stream.append(a))
            assert int(line.split(",")[3]) == len(stream) > 0

    def test_no_sizes_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "cycle", "--sizes", ",", "--epsilon", "0.5"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == "covercount bench: error: argument --sizes: must list at least one value"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["count", "g.graph", "--epsilon", "abc"],
                "covercount count: error: argument --epsilon: expected a number, got 'abc'",
            ),
            (
                ["verify", "--epsilons", "0.2,abc"],
                "covercount verify: error: argument --epsilons: expected a number, got 'abc'",
            ),
            (
                ["bench", "--family", "cycle", "--sizes", "4,x", "--epsilon", "0.5"],
                "covercount bench: error: argument --sizes: expected an integer, got 'x'",
            ),
            (
                ["bench", "--family", "random", "--sizes", "0", "--epsilon", "0.5"],
                "covercount bench: error: argument --sizes: must be at least 1, got 0",
            ),
        ],
        ids=["count-epsilon", "verify-epsilons", "bench-sizes", "bench-size0"],
    )
    def test_a_malformed_number_is_named_without_a_private_name(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == message
        # argparse names a type function that raises ValueError: "invalid _epsilon value"
        assert re.search(r"\b_\w", err) is None, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "G", "--cap", "x"],
            ["marginal", "G", "--edge", "x"],
            ["marginal", "G", "--edge", "0", "--depth", "x"],
            ["verify", "--max-edges", "x"],
            ["verify", "--seed", "x"],
            ["verify", "--instances", "x"],
            ["verify", "--trials", "x"],
            ["bench", "--family", "cycle", "--sizes", "x", "--epsilon", "0.5"],
            ["bench", "--family", "cycle", "--sizes", "8", "--epsilon", "0.5", "--seed", "x"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[argv.index('x') - 1]}",
    )
    def test_every_integer_option_reads_a_malformed_value_alike(self, capsys, c4_file, argv):
        option = argv[argv.index("x") - 1]
        with pytest.raises(SystemExit) as exc:
            main([c4_file if arg == "G" else arg for arg in argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"covercount {argv[0]}: error: argument {option}: expected an integer, got 'x'"

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

    @pytest.mark.parametrize(
        "family, sizes, message", [("cycle", "8,2", "cycle needs at least 3 vertices")], ids=["cycle-8,2"]
    )
    def test_bench_bad_size_prints_no_rows(self, capsys, family, sizes, message):
        code, out, err = run_cli(capsys, "bench", "--family", family, "--sizes", sizes, "--epsilon", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, name, text",
    [
        (["count", "--epsilon", "0.2"], "c4.graph", "# café\n" + C4_TEXT),
        (["from-cnf", "--epsilon", "0.2"], "f.cnf", "c café\n" + CNF_TEXT),
    ],
    ids=["count", "from-cnf"],
)
def test_utf8_files_read_under_an_ascii_locale(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "covercount", command[0], str(path), *command[1:]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (0, proc.stdout, "") == run_cli(capsys, command[0], str(path), *command[1:])


@pytest.mark.parametrize(
    "command, name, text",
    [
        (["count", "--epsilon", "0.2"], "c4.graph", C4_TEXT),
        (["exact"], "c4.graph", C4_TEXT),
        (["from-cnf", "--epsilon", "0.2"], "f.cnf", CNF_TEXT),
    ],
    ids=["count", "exact", "from-cnf"],
)
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, command, name, text):
    plain = tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / f"bom-{name}"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    expected = run_cli(capsys, command[0], str(plain), *command[1:])
    assert expected[0] == 0
    assert run_cli(capsys, command[0], str(marked), *command[1:]) == expected


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
