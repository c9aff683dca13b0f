"""CLI surface: subcommand behavior, exit-code contract, JSON output."""

import json
import re
import shlex
from pathlib import Path

import pytest

from factorspec import build_hnb, complete, from_edge_list, graph, spectral, to_graph6
from factorspec.cli import build_parser, main
from catalogs import CACHE_DIR, connected_graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fractional_k3_fails(self, capsys):
        code, out, _ = run(capsys, "check", "--g6", "Bw", "--a", "1", "--b", "2",
                           "--mode", "fractional")
        assert code == 1
        assert "verdict: false" in out
        assert "witness_S: [0]" in out

    def test_integer_k4_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--g6", to_graph6(complete(4)).decode(),
                           "--a", "1", "--b", "2")
        assert code == 0
        assert "verdict: true" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "--g6", "Bw", "--a", "1", "--b", "2",
                           "--mode", "fractional", "--json")
        data = json.loads(out)
        assert code == 1
        assert data["schema"] == 1
        assert data["verdict"] is False
        assert data["min_value"] == -1

    def test_human_lines_match_json(self, capsys):
        hnb = to_graph6(build_hnb(7, 3)).decode()
        for mode in ("integer", "fractional"):
            argv = ("check", "--g6", hnb, "--a", "1", "--b", "3", "--mode", mode)
            code, out, _ = run(capsys, *argv)
            assert code == 1
            assert out.splitlines()[0] == "verdict: false"
            human = dict(line.split(": ", 1) for line in out.splitlines())
            data = json.loads(run(capsys, *argv, "--json")[1])
            assert {key: json.loads(value) for key, value in human.items()} == {
                key: value for key, value in data.items() if key not in ("schema", "mode")
            }

    def test_edges_file(self, capsys, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text("# triangle\n3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "check", "--edges", str(path), "--a", "1", "--b", "2")
        assert code == 0  # K_3 has all [1,2]-factors

    def test_gf_mode(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        ffile = tmp_path / "f.txt"
        gfile.write_text("1\n1\n1\n1\n")
        ffile.write_text("2\n2\n2\n2\n")
        code, out, _ = run(capsys, "check", "--g6", to_graph6(complete(4)).decode(),
                           "--mode", "gf", "--g", str(gfile), "--f", str(ffile))
        assert code == 0

    def test_gf_mode_needs_files(self, capsys):
        code, _, err = run(capsys, "check", "--g6", "Bw", "--mode", "gf")
        assert code == 2 and "error" in err

    def test_invalid_bounds(self, capsys):
        code, _, err = run(capsys, "check", "--g6", "Bw", "--a", "2", "--b", "1")
        assert code == 2

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "check", "--g6", "B", "--a", "1", "--b", "2")
        assert code == 2

    def test_missing_ab(self, capsys):
        code, _, err = run(capsys, "check", "--g6", "Bw")
        assert code == 2

    def test_gf_files_outside_gf_mode(self, capsys):
        code, out, err = run(capsys, "check", "--g6", "Bw", "--a", "1", "--b", "2",
                             "--g", "/nonexistent")
        assert (code, out, err) == (
            2, "", "error: --mode integer takes --a and --b, not --g or --f\n")

    def test_bounds_in_gf_mode(self, capsys, tmp_path):
        gfile, ffile = tmp_path / "g.txt", tmp_path / "f.txt"
        gfile.write_text("1 1 1\n")
        ffile.write_text("2 2 2\n")
        code, out, err = run(capsys, "check", "--g6", "Bw", "--mode", "gf",
                             "--g", str(gfile), "--f", str(ffile), "--a", "1")
        assert (code, out, err) == (2, "", "error: --mode gf takes --g and --f, not --a or --b\n")


class TestRho:
    def test_hnb_json(self, capsys):
        code, out, _ = run(capsys, "rho", "--hnb", "48,4", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["n_minus_2"] == 46
        assert data["exceeds"] is True
        assert 46 < data["rho"] < 47

    def test_dense(self, capsys):
        code, out, _ = run(capsys, "rho", "--g6", to_graph6(complete(4)).decode())
        assert code == 0
        assert "rho = 3" in out

    @pytest.mark.parametrize("n", [3 * 10**5, 10**6])
    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_hnb_exceeds_where_the_float_rounds_to_n_minus_2(self, capsys, n, b):
        code, out, err = run(capsys, "rho", "--hnb", f"{n},{b}", "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["exceeds"] is True and data["n_minus_2"] == n - 2

    def test_bad_hnb_params(self, capsys):
        code, _, err = run(capsys, "rho", "--hnb", "5,5")
        assert code == 2

    def test_hnb_order_beyond_a_double_is_usage_error(self, capsys):
        code, out, err = run(capsys, "rho", "--hnb", f"{10**400},2")
        assert (code, out) == (2, "")
        assert err == "error: --hnb: N - 1 exceeds the largest double, 1.79769e+308\n"

    def test_uncertifiable_tol_is_usage_error(self, capsys):
        # the dense radius certifies against the fixed spectral.RHO_TOL
        with pytest.raises(SystemExit) as info:
            main(["rho", "--g6", "Ch", "--tol", "1e-300"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol 1e-300" in captured.err


class TestInternalErrors:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        from factorspec import cli

        def broken(*args, **kwargs):
            raise KeyError("injected")

        monkeypatch.setattr(cli, "has_all_ab_factors", broken)
        code, out, err = run(capsys, "check", "--g6", "Bw", "--a", "1", "--b", "2")
        assert code == 3
        assert out == "" and err.startswith("internal error: KeyError")

    def test_convergence_error_exits_3(self, capsys, monkeypatch):
        from factorspec import cli
        from factorspec.spectral import ConvergenceError, SpectralResult

        def unconverged(*args, **kwargs):
            raise ConvergenceError("injected", SpectralResult(1.0, 1.0, 5, "dense-iteration"))

        monkeypatch.setattr(cli, "spectral_radius", unconverged)
        code, out, err = run(capsys, "rho", "--g6", "Ch")
        assert code == 3
        assert out == "" and err.startswith("internal error: ConvergenceError: injected")
        assert "Traceback" not in err


class TestConstruct:
    def test_hnb_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "hnb", "--n", "6", "--b", "3")
        assert code == 0
        from factorspec import parse_graph6

        g = parse_graph6(out.strip())
        assert [g.degree(v) for v in range(6)] == [2, 5, 5, 4, 4, 4]

    def test_g1_needs_a(self, capsys):
        code, _, err = run(capsys, "construct", "g1", "--n", "31", "--b", "2")
        assert code == 2

    def test_g2_json(self, capsys):
        code, out, _ = run(capsys, "construct", "g2", "--n", "12", "--b", "1", "--json")
        data = json.loads(out)
        assert code == 0 and data["n"] == 12

    @pytest.mark.parametrize("kind", ["hnb", "g2"])
    def test_a_only_for_g1(self, capsys, kind):
        code, out, err = run(capsys, "construct", kind, "--n", "12", "--b", "2", "--a", "99")
        assert (code, out, err) == (2, "", f"error: construct {kind} does not take --a\n")


class TestVerify:
    def test_lemma24(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma24", "--nmax", "12")
        assert code == 0
        assert "PASS" in out

    def test_lemma23_small(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma23", "--amax", "1", "--bmax", "2")
        assert code == 0

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "verify", "quotient", "--n-grid", "10", "--b-grid", "2,3")
        assert code == 0

    def test_k1join(self, capsys):
        code, out, _ = run(capsys, "verify", "k1join", "--n-grid", "10")
        assert code == 0

    def test_zero_cases_is_a_usage_error(self, capsys):
        # b = 50 is out of range for n = 10, so the sweep has nothing to check
        code, out, err = run(capsys, "verify", "quotient", "--n-grid", "10", "--b-grid", "50")
        assert code == 2 and out == ""
        assert "zero cases" in err

    def test_hong_needs_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "hong"])
        assert info.value.code == 2
        assert "required: --input" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lemma24", "--tol", "1e-3"],
        ["lemma24", "--input", "x.g6"],
        ["k1join", "--b-grid", "2"],
    ], ids=["tol", "input", "b-grid"])
    def test_other_targets_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(["verify", *argv])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_lemma24_counterexample_exits_1(self, capsys, monkeypatch):
        from factorspec import extremal

        monkeypatch.setattr(extremal, "delta", lambda *args: -3)
        code, out, err = run(capsys, "verify", "lemma24", "--nmax", "5")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("hnb-witnesses: FAIL (4 cases, 3 failures, ")
        assert lines[1:] == [
            f"  failure: {{'n': {n}, 'b': {b}, 'mode': 'integer', 'value': -3, 'witness_T': [0]}}"
            for n, b in [(4, 3), (5, 3), (5, 4)]
        ]

    @staticmethod
    def root_at_n_minus_2(first, join, tail):
        """x - (n - 2): the quotient polynomial of a join whose radius is n - 2."""
        return (1, 2 - (first + join + tail))

    def test_lemma23_counterexample_exits_1(self, capsys, monkeypatch):
        from factorspec import harness

        monkeypatch.setattr(harness, "layout_charpoly", self.root_at_n_minus_2)
        code, out, err = run(capsys, "verify", "lemma23", "--amax", "1", "--bmax", "1", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["failures"] == [{
            "a": 1, "b": 1, "n": 16, "f_nm2": "0", "f_nm3": "-1",
            "rho_g1": 14.0, "rho_g2": 14.0,
        }]

    def test_k1join_counterexample_exits_1(self, capsys, monkeypatch):
        from factorspec import harness

        monkeypatch.setattr(harness, "layout_charpoly", self.root_at_n_minus_2)
        code, out, err = run(capsys, "verify", "k1join", "--n-grid", "6", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["failures"] == [
            {"n": 6, "r": 2, "rho": 4.0},
            {"n": 6, "r": 3, "rho": 4.0},
        ]

    @pytest.mark.parametrize("argv, cases, name", [
        (["lemma24"], 1369, "hnb-witnesses"),
        (["lemma23"], 15, "g1-g2-spectral-bounds"),
        (["quotient"], 9, "quotient-transfer"),
        (["k1join"], 1098, "hub-two-cliques-bound"),
        (["hong", "--input", str(CACHE_DIR / "graphs7.g6")], 853, "hong-bound"),
    ], ids=["lemma24", "lemma23", "quotient", "k1join", "hong"])
    def test_golden_defaults(self, capsys, argv, cases, name):
        code, out, err = run(capsys, "verify", *argv, "--json")
        assert (code, err) == (0, "")
        assert out == (f'{{"cases_run": {cases}, "failures": [], "name": "{name}", '
                       '"schema": 1}\n')

    def test_hong_with_catalog(self, capsys, tmp_path):
        path = tmp_path / "cat.g6"
        path.write_bytes(b"\n".join(to_graph6(g) for g in connected_graphs(4)) + b"\n")
        code, out, _ = run(capsys, "verify", "hong", "--input", str(path))
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma24", "--nmax", "10", "--json")
        data = json.loads(out)
        assert data["schema"] == 1 and data["failures"] == []


class TestMineAndSuite:
    @pytest.fixture()
    def catalog5(self, tmp_path):
        path = tmp_path / "n5.g6"
        path.write_bytes(b"\n".join(to_graph6(g) for g in connected_graphs(5)) + b"\n")
        return str(path)

    def test_mine(self, capsys, catalog5):
        code, out, _ = run(capsys, "mine", "--input", catalog5, "--a", "1", "--b", "2",
                           "--mode", "integer", "--workers", "1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["cases_run"] == 21
        assert data["failing_count"] > 0
        assert data["argmax_graph"]

    def test_mine_single_hnb(self, capsys, tmp_path):
        path = tmp_path / "one.g6"
        path.write_bytes(to_graph6(build_hnb(8, 3)) + b"\n")
        code, out, _ = run(capsys, "mine", "--input", path.as_posix(), "--a", "1",
                           "--b", "3", "--mode", "integer", "--json")
        data = json.loads(out)
        assert data["failing_count"] == 1 and data["hnb_is_argmax"] is True

    def test_suite_passes(self, capsys, catalog5):
        code, out, _ = run(capsys, "suite", "--input", catalog5, "--mode", "integer",
                           "--nmax", "5", "--grid", "1,2;2,3", "--workers", "1")
        assert code == 0
        assert "PASS" in out

    def test_suite_json(self, capsys, catalog5):
        code, out, _ = run(capsys, "suite", "--input", catalog5, "--mode", "fractional",
                           "--nmax", "5", "--grid", "1,2", "--workers", "1", "--json")
        data = json.loads(out)
        assert code == 0 and data["mismatches"] == []

    def test_suite_zero_cases_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_bytes(to_graph6(complete(3)) + b"\n")
        code, out, err = run(capsys, "suite", "--input", str(path), "--mode", "integer",
                             "--nmax", "2")
        assert code == 2 and out == ""
        assert "zero cases" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "mine", "--input", "/nonexistent.g6", "--a", "1",
                           "--b", "2", "--mode", "integer")
        assert code == 2


class TestLenient:
    # K3 and P3, each followed by a malformed line
    BAD = b"Bw\nB\nBg\nBww\n"
    COMMANDS = (
        ["suite", "--mode", "integer", "--json"],
        ["mine", "--a", "1", "--b", "2", "--mode", "integer", "--json"],
        ["verify", "hong", "--json"],
    )

    def test_strict_names_the_first_bad_line(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(self.BAD)
        for argv in self.COMMANDS:
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 2 and out == ""
            assert err == "error: line 2: truncated graph6 body: need 1 bytes, got 0\n"

    def test_lenient_reports_what_it_skipped(self, capsys, tmp_path):
        bad, clean = tmp_path / "bad.g6", tmp_path / "clean.g6"
        bad.write_bytes(self.BAD)
        clean.write_bytes(b"Bw\nBg\n")
        for argv in self.COMMANDS:
            code, out, err = run(capsys, *argv, "--input", str(bad), "--lenient")
            assert json.loads(out)["cases_run"] > 0
            assert err == ("warning: skipped 2 malformed line(s); first: line 2: "
                           "truncated graph6 body: need 1 bytes, got 0\n")
            # stdout as on the clean catalog, where nothing is skipped or said
            assert run(capsys, *argv, "--input", str(clean), "--lenient") == (code, out, "")


class TestDenseOrderGuard:
    """Orders above MAX_DENSE_ORDER are usage errors, refused before any
    n^2 allocation; the constant is lowered so the tests stay small."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_DENSE_ORDER", 8)

    def test_edges_file(self, capsys, tmp_path, monkeypatch):
        from factorspec import cli

        def build(n, edges):  # [0] * n would take 8 GB at the order below
            assert n <= 8, "graph built above the limit"
            return from_edge_list(n, edges)

        monkeypatch.setattr(cli, "from_edge_list", build)
        path = tmp_path / "big.edges"
        path.write_text("1000000000\n0 1\n")
        code, out, err = run(capsys, "check", "--edges", str(path), "--a", "1", "--b", "2")
        assert code == 2 and out == ""
        assert err == f"error: edge file {path} has order 1000000000, above the dense limit 8\n"
        path.write_text("8\n0 1\n")
        assert run(capsys, "check", "--edges", str(path), "--a", "1", "--b", "2")[0] == 1

    def test_construct_and_quotient(self, capsys):
        code, out, err = run(capsys, "construct", "hnb", "--n", "9", "--b", "3")
        assert code == 2 and out == "" and "construction has order 9" in err
        assert run(capsys, "construct", "hnb", "--n", "8", "--b", "3")[0] == 0
        code, out, err = run(capsys, "verify", "quotient", "--n-grid", "9", "--b-grid", "3")
        assert code == 2 and out == "" and "above the dense limit 8" in err

    def test_dense_rho(self, capsys, monkeypatch):
        def no_matrix(g):
            raise AssertionError("adjacency matrix built above the limit")

        monkeypatch.setattr(spectral, "_adjacency_bits", no_matrix)
        code, out, err = run(capsys, "rho", "--g6", to_graph6(complete(9)).decode())
        assert code == 2 and out == "" and "graph has order 9" in err

    def test_closed_form_rho_is_not_guarded(self, capsys):
        code, out, _ = run(capsys, "rho", "--hnb", "100000,7")
        assert code == 0 and "rho(hnb(100000,7))" in out


class TestEnumerationCaps:
    """The decider caps are fixed: larger inputs are usage errors naming the
    cap, and no flag lifts them."""

    @pytest.mark.parametrize("n, mode, loop, cap", [
        (17, "integer", "3^n", 16), (17, "gf", "3^n", 16), (23, "fractional", "2^n", 22),
    ])
    def test_above_cap(self, capsys, tmp_path, n, mode, loop, cap):
        gfile, ffile = tmp_path / "g.txt", tmp_path / "f.txt"
        gfile.write_text("1 " * n)
        ffile.write_text("2 " * n)
        demands = ["--g", str(gfile), "--f", str(ffile)] if mode == "gf" else ["--a", "1", "--b", "2"]
        g6 = to_graph6(from_edge_list(n, [])).decode()
        code, out, err = run(capsys, "check", "--g6", g6, "--mode", mode, *demands)
        assert (code, out, err) == (2, "", f"error: n={n} exceeds the {loop} enumeration cap {cap}\n")

    @pytest.mark.parametrize("argv", [
        ["check", "--g6", "Bw", "--a", "1", "--b", "2"],
        ["mine", "--input", "unused.g6", "--a", "1", "--b", "2", "--mode", "integer"],
    ], ids=["check", "mine"])
    def test_no_cap_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--cap", "20"])
        assert info.value.code == 2
        assert "unrecognized arguments: --cap 20" in capsys.readouterr().err


class TestParseErrors:
    """Malformed numbers name their file and line, or their flag, and the bad token."""

    @pytest.mark.parametrize("text, message", [
        ("3\n0 1\n0 1 2\n", "line 3: expected 'u v', got '0 1 2'"),
        ("# comment\n3\n0 x\n", "line 3: 'x' is not an integer"),
        ("three\n0 1\n", "line 1: 'three' is not an integer"),
        ("3\n0 9\n", "line 2: edge (0, 9) out of range for n=3"),
        ("3\n1 1\n", "line 2: loop (1, 1) not allowed in a simple graph"),
        ("-1\n", "line 1: order -1 is negative"),
    ], ids=["three-values", "non-integer", "order", "out-of-range", "loop", "negative-order"])
    def test_edge_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--edges", str(path), "--a", "1", "--b", "2")
        assert (code, out, err) == (2, "", f"error: edge file {path} {message}\n")

    def test_vertex_function_file(self, capsys, tmp_path):
        good, bad = tmp_path / "f.txt", tmp_path / "g.txt"
        good.write_text("2 2 2\n")
        bad.write_text("# g\n1 2 x\n")
        code, out, err = run(capsys, "check", "--g6", "Bw", "--mode", "gf",
                             "--g", str(bad), "--f", str(good))
        assert (code, out) == (2, "")
        assert err == f"error: {bad} line 2: 'x' is not an integer\n"

    def test_hnb_needs_two_values(self, capsys):
        assert run(capsys, "rho", "--hnb", "5") == (2, "", "error: --hnb: expected N,B, got '5'\n")

    def test_grid_pair(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_text("Bw\n")
        code, out, err = run(capsys, "suite", "--input", str(path), "--mode", "integer",
                             "--grid", "1,2;3")
        assert (code, out, err) == (2, "", "error: --grid: expected a,b, got '3'\n")

    @pytest.mark.parametrize("argv", [
        ["check", "--g6", "B\u00e9", "--a", "1", "--b", "2"],
        ["rho", "--g6", "B\u00e9"],
    ], ids=["check", "rho"])
    def test_non_ascii_graph6(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: non-ascii character in record\n")

    @pytest.mark.parametrize("argv, message", [
        (["quotient", "--n-grid", "10,x"], "--n-grid: 'x' is not an integer"),
        (["quotient", "--b-grid", "2,3.5"], "--b-grid: '3.5' is not an integer"),
        (["k1join", "--n-grid", "ten"], "--n-grid: 'ten' is not an integer"),
    ], ids=["n-grid", "b-grid", "k1join"])
    def test_int_list(self, capsys, argv, message):
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def readme_cli_lines() -> list[str]:
    """The ``factorspec ...`` lines of the README's CLI block, trailing
    comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [re.sub(r"\s+#.*", "", line) for line in block.splitlines()
            if line.startswith("factorspec ")]


class TestReadme:
    def test_cli_block_found(self):
        assert len(readme_cli_lines()) >= 15

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_example_parses(self, line):
        # a bracketed flag is optional: the line must parse with and without it
        optional = re.findall(r"\[(--[\w-]+)\]", line)
        for keep in (False, True):
            text = re.sub(r"\[(--[\w-]+)\]", r"\1" if keep else "", line)
            argv = shlex.split(text)[1:]
            build_parser().parse_args(argv)
            if not optional:
                break


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_check_requires_source(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "--a", "1", "--b", "2"])
        assert info.value.code == 2
