"""CLI subcommands: JSON reports, exit codes, configuration plumbing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import BGIT_CORPUS_SEED, M_EMP, continued_fraction_slope, far_pair_corpus
import fareyulfp
from fareyulfp import cli, farey
from fareyulfp.bounds import BoundParams, Surface, n_bound
from fareyulfp.cli import Config, run
from fareyulfp.errors import PreconditionViolation
from fareyulfp.farey import INFINITY, Geodesic, MobiusMap, apply, geodesics


def invoke(capsys, argv: list[str]) -> dict:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestConfig:
    def test_validation(self):
        with pytest.raises(PreconditionViolation):
            Config(M=0)
        with pytest.raises(PreconditionViolation):
            Config(delta=-1)

    def test_defaults(self):
        config = Config()
        assert config.M == 100 and config.delta == 17 and config.seed == 0
        assert config.delta == fareyulfp.slices.DEFAULT_DELTA_HYP


class TestCommands:
    def test_dist(self, capsys):
        report = invoke(capsys, ["dist", "1/0", "3/8"])
        assert report["outputs"]["distance"] == 3
        assert report["command"] == "dist"
        assert report["config"]["kind"] == "torus"
        assert report["version"] == fareyulfp.__version__ == "0.1.0"

    def test_dist_deterministic(self, capsys):
        one = invoke(capsys, ["dist", "1/0", "5/12"])
        two = invoke(capsys, ["dist", "1/0", "5/12"])
        assert one["outputs"] == two["outputs"]

    def test_geod_round_trip(self, capsys):
        from fareyulfp.farey import Geodesic

        report = invoke(capsys, ["geod", "1/0", "1/2"])
        out = report["outputs"]
        assert out["count"] == 2
        for text in out["geodesics"]:
            g = Geodesic.parse(text)
            assert str(g.start) == "1/0" and str(g.end) == "1/2"

    def test_twist(self, capsys):
        full = invoke(capsys, ["twist", "1/0", "3", "0/1"])["outputs"]["result"]
        twice_half = invoke(
            capsys, ["--kind", "sphere", "twist", "1/0", "3", "0/1", "--half"]
        )["outputs"]["result"]
        assert full.endswith("/1") and twice_half.endswith("/1")

    def test_project(self, capsys):
        out = invoke(capsys, ["project", "--core", "1/0", "1/3", "13/3"])["outputs"]
        assert out["distance"] == 6
        assert out["twist"]["1/3"] == "1/3"

    def test_ulfp_witness_and_cover(self, capsys, tmp_path):
        curves = tmp_path / "curves.txt"
        curves.write_text("# family\n1/3\n13/3\n25/3\n")
        witness = invoke(
            capsys, ["ulfp", "--set", str(curves), "--l", "5", "--k", "2"]
        )["outputs"]["certificate"]
        assert witness["type"] == "witness"
        covered = invoke(
            capsys, ["ulfp", "--set", str(curves), "--l", "11", "--k", "2"]
        )["outputs"]["certificate"]
        assert covered["type"] == "covered"
        assert all(len(entry["centers"]) <= 1 for entry in covered["covers"])

    def test_audit_bgit(self, capsys, tmp_path):
        pairs = far_pair_corpus(BGIT_CORPUS_SEED, 10)
        pair_file = tmp_path / "pairs.txt"
        pair_file.write_text(
            "\n".join(f"{a} {b}" for a, b in pairs) + "\n# trailing comment\n"
        )
        out = invoke(capsys, ["audit-bgit", "--pairs", str(pair_file)])["outputs"]
        assert out["pairs_audited"] == 10
        assert out["m_emp"] <= M_EMP

    def test_slice(self, capsys):
        out = invoke(
            capsys, ["--M", "1", "slice", "1/0", "1/2", "0/1", "--delta", "1"]
        )["outputs"]
        assert out["size"] == 4 and out["exact"] is True
        assert out["bound"] == "5832"

    def test_weak_index(self, capsys):
        out = invoke(capsys, ["weak-index", "--geodesic", "1/0,0/1,1/3,3/8"])[
            "outputs"
        ]
        assert out["index"] == 3 and out["attaining"]["core"] == "1/3"

    def test_bounds(self, capsys):
        out = invoke(
            capsys,
            ["--M", "1", "bounds", "--surface", "1,1", "--l", "1", "--k", "2"],
        )["outputs"]
        assert out["value"] == "100" and out["mode"] == "exact"
        slice_out = invoke(
            capsys, ["--M", "1", "bounds", "--surface", "0,4", "--l", "1", "--k", "2", "--slice"]
        )["outputs"]
        assert len(slice_out["bounds"]) == 2

    @pytest.mark.parametrize("surface", ["1,1", "0,5"])
    def test_bounds_slice_is_bounds_weak_M(self, capsys, surface):
        argv = ["--M", "7", "bounds", "--surface", surface, "--l", "1", "--k", "2"]
        tight = invoke(capsys, [*argv, "--slice"])["outputs"]
        weak = invoke(capsys, [*argv, "--weak", "7"])["outputs"]
        assert json.dumps(tight, indent=2) == json.dumps(weak, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--surface", "1,1", "--l", "1", "--k", "2", "--weak", "6"],
            ["slice", "--weak-D", "6", "--delta", "1", "--", "1/0", "1/2", "0/1"],
        ],
        ids=["bounds", "slice"],
    )
    def test_D_below_M_exits_three_with_the_one_message(self, capsys, argv):
        code = run(["--M", "7", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.strip() == "error: weak-tight bound requires D >= M"

    def test_bounds_beyond_float_range(self, capsys):
        # xi = 88: log10 of the bound is far above the largest float
        out = invoke(capsys, ["bounds", "--surface", "30,1", "--l", "1", "--k", "2"])["outputs"]
        assert out["mode"] == "log10" and out["value"].startswith("10^")
        envelope = n_bound(Surface(30, 1), BoundParams(1, 2, 100)).log10_upper
        assert envelope > 10**309
        assert abs(Fraction(out["value"][3:]) - envelope) <= Fraction(1, 2 * 10**6)

    def test_graph_ulfp(self, capsys, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text("0\n2\n5\n")
        out = invoke(
            capsys,
            ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", "1", "--k", "2"],
        )["outputs"]
        assert out["type"] == "witness" and out["separation"] == 1


    @pytest.mark.parametrize("l", [str(2**63 - 1), str(2**63), str(2**64)])
    def test_graph_ulfp_radius_beyond_the_graph(self, capsys, tmp_path, l):
        graph = tmp_path / "graph.txt"
        graph.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text("0\n2\n5\n")
        out = invoke(
            capsys,
            ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", l, "--k", "2"],
        )["outputs"]
        assert out == {"type": "covered", "centers": [0], "radius": int(l)}


class TestExitCodes:
    def test_argument_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["dist", "1/0"])
        assert err.value.code == 2

    def test_hypothesis_violation_exits_three(self, capsys):
        code = run(["slice", "1/0", "1/2", "7/2", "--delta", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "geodesic" in captured.err

    def test_bad_config_exits_three(self, capsys):
        code = run(["--M", "0", "dist", "1/0", "0/1"])
        assert code == 3

    def test_annulus_core_projection_exits_three(self, capsys):
        code = run(["project", "--core", "1/2", "1/2", "1/3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.strip() == "error: 1/2 is the core of the annulus"

    def test_internal_check_failure_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(farey, "_distance_normalized", lambda t: -1)
        farey._hull_normalized.cache_clear()
        code = run(["geod", "1/0", "2/5"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        line = captured.err.strip()
        assert line.startswith("error: internal check failed:") and "2/5" in line

    @staticmethod
    def bad_argument(capsys, argv: list[str]) -> str:
        """Run argv, require exit 2 without a traceback; return the error line."""
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err.strip().splitlines()[-1]

    def test_malformed_slope_exits_two(self, capsys):
        line = self.bad_argument(capsys, ["dist", "1/2/3", "0/1"])
        assert "error:" in line and "1/2/3" in line

    def test_zero_over_zero_exits_two(self, capsys):
        line = self.bad_argument(capsys, ["dist", "0/0", "1/1"])
        assert "error:" in line and "0/0" in line

    def test_missing_set_file_exits_two(self, capsys, tmp_path):
        missing = str(tmp_path / "nonexistent")
        line = self.bad_argument(capsys, ["ulfp", "--set", missing, "--l", "2", "--k", "2"])
        assert line.startswith("error:") and missing in line

    def test_surface_below_complexity_one_exits_two(self, capsys):
        line = self.bad_argument(capsys, ["bounds", "--surface", "0,2", "--l", "1", "--k", "2"])
        assert "error:" in line and "0,2" in line

    def test_slice_and_weak_together_exit_two(self, capsys):
        argv = ["bounds", "--surface", "1,1", "--l", "1", "--k", "2", "--slice", "--weak", "200"]
        line = self.bad_argument(capsys, argv)
        assert "error:" in line and "--weak" in line and "--slice" in line

    def test_malformed_set_line_exits_two(self, capsys, tmp_path):
        curves = tmp_path / "curves.txt"
        curves.write_text("# family\n1/3\n1/2/3\n")
        line = self.bad_argument(capsys, ["ulfp", "--set", str(curves), "--l", "2", "--k", "2"])
        assert line.startswith(f"error: {curves}:3: ") and "1/2/3" in line

    def test_malformed_pairs_line_exits_two(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1/0 1/2/3\n")
        line = self.bad_argument(capsys, ["audit-bgit", "--pairs", str(pairs)])
        assert line.startswith(f"error: {pairs}:1: ") and "1/2/3" in line

    def test_malformed_graph_line_exits_two(self, capsys, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("x y\n")
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text("0\n")
        argv = ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", "1", "--k", "2"]
        line = self.bad_argument(capsys, argv)
        assert line.startswith(f"error: {graph}:1: ") and "'x y'" in line

    def test_extra_graph_edge_row_exits_two(self, capsys, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("3 1\n0 1\n1 2\n")
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text("0\n")
        argv = ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", "1", "--k", "2"]
        line = self.bad_argument(capsys, argv)
        assert line.startswith(f"error: {graph}") and "expected 1 edges, found 2" in line

    def test_malformed_vertex_set_line_exits_two(self, capsys, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("3 2\n0 1\n1 2\n")
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text("0\n# comment\n\nv2\n")
        argv = ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", "1", "--k", "2"]
        line = self.bad_argument(capsys, argv)
        assert line.startswith(f"error: {vertex_set}:4: ") and "v2" in line

    @pytest.mark.parametrize(
        "edges, vertices, message",
        [
            ("4 2\n0 1\n2 3\n", "0\n3\n", "query set spans several components"),
            ("3 2\n0 1\n1 2\n", "0\n3\n", "vertex 3 is not in 0..2"),
            ("3 2\n0 1\n1 2\n", "-1\n0\n", "vertex -1 is not in 0..2"),
        ],
        ids=["disconnected", "vertex-n", "vertex-minus-one"],
    )
    def test_graph_ulfp_precondition_exits_three(self, capsys, tmp_path, edges, vertices, message):
        graph = tmp_path / "graph.txt"
        graph.write_text(edges)
        vertex_set = tmp_path / "set.txt"
        vertex_set.write_text(vertices)
        argv = ["graph-ulfp", "--graph", str(graph), "--set", str(vertex_set), "--l", "1", "--k", "2"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "l, k, message",
        [("-5", "100", "l must be positive"), ("3", "1", "k must lie in (1, 8]")],
        ids=["negative-l", "k-one"],
    )
    def test_ulfp_rejects_bad_l_and_k_on_a_small_set(self, capsys, tmp_path, l, k, message):
        curves = tmp_path / "curves.txt"
        curves.write_text("1/0\n0/1\n1/2\n")
        code = run(["ulfp", "--set", str(curves), "--l", l, "--k", k])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.strip() == f"error: {message}"


    @pytest.mark.parametrize("mode", [[], ["--slice"], ["--weak", "200"]], ids=["n", "slice", "weak"])
    @pytest.mark.parametrize(
        "l, k, message",
        [("-5", "0", "l must be positive"), ("3", "1", "k must exceed 1")],
        ids=["negative-l", "k-one"],
    )
    def test_bounds_rejects_bad_l_and_k_in_every_mode(self, capsys, mode, l, k, message):
        code = run(["bounds", "--surface", "1,1", *mode, "--l", l, "--k", k])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.strip() == f"error: {message}"

class TestDigitLimit:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dist", "1/0", "1/2"], 0),
            (["audit-bgit", "--pairs", "{missing}"], 2),
            (["slice", "1/0", "1/2", "7/2", "--delta", "1"], 3),
        ],
    )
    def test_run_restores_the_callers_limit(self, capsys, tmp_path, argv, code):
        argv = [a.format(missing=tmp_path / "nonexistent") for a in argv]
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)  # differs from any limit run sets
        try:
            assert run(argv) == code
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("cap, code", [("2147483547", 0), ("2147483548", 3), (str(10**20), 3)])
    def test_digit_cap_must_fit_a_c_int(self, capsys, cap, code):
        # run() raises the int-to-str limit, a C int, to the cap plus 100
        before = sys.get_int_max_str_digits()
        assert run(["--digit-cap", cap, "dist", "1/0", "1/2"]) == code
        assert sys.get_int_max_str_digits() == before
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and captured.err.strip() == "error: invalid configuration value"

    def test_slice_bound_honours_the_digit_cap(self, capsys):
        capped = ["--digit-cap", "2", "--M", "1"]
        out = invoke(capsys, [*capped, "slice", "1/0", "1/2", "0/1", "--delta", "1"])["outputs"]
        argv = [*capped, "bounds", "--surface", "1,1", "--slice", "--l", "1", "--k", "2"]
        bounds = invoke(capsys, argv)["outputs"]["bounds"]
        assert out["bound"] == bounds[0] == "10^3.765818"

    def test_argv_slopes_parse_under_the_digit_cap(self, capsys):
        # (10^4400 + 1)/10^4400, too long for the default 4 300-digit limit;
        # a file of slopes is read under the cap, so the command line is too
        big = "1" + "0" * 4399 + "1/1" + "0" * 4400
        assert invoke(capsys, ["dist", "1/0", big])["outputs"]["distance"] == 2
        longer = "1" + "0" * 10_001 + "/1"  # past the 10 000-digit floor of the limit
        before = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exit_info:
            run(["--digit-cap", "1", "dist", "1/0", longer])
        assert exit_info.value.code == 2 and sys.get_int_max_str_digits() == before
        assert "Exceeds the limit" in capsys.readouterr().err
        report = invoke(capsys, ["--digit-cap", "20000", "dist", "1/0", longer])
        assert report["outputs"]["distance"] == 1

    def test_outputs_beyond_the_default_limit_print(self, capsys):
        # slopes that parse under the default 4 300-digit limit can have
        # twist coordinates far longer than it
        core = f"{10**3000 + 1}/{10**2999 + 3}"
        y = f"{7 * 10**3000 + 9}/{10**3000 + 11}"
        twist = invoke(capsys, ["project", "--core", core, y, "1/0"])["outputs"]["twist"]
        assert max(len(text) for text in twist.values()) > 12_000


class TestModuleEntryPoint:
    @staticmethod
    def module_run(*argv: str) -> subprocess.CompletedProcess:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "fareyulfp.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    def test_prints_the_report(self):
        done = self.module_run("dist", "1/0", "3/8")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["outputs"]["distance"] == 3

    def test_exits_two_through_main(self):
        done = self.module_run("dist", "1/2/3", "0/1")
        assert done.returncode == 2 and done.stdout == ""
        assert "1/2/3" in done.stderr and "Traceback" not in done.stderr

    def test_closed_pipe_exits_one_without_traceback(self):
        # the 131 KB report overfills the pipe, so a write meets the closed end
        target = continued_fraction_slope([2] * 14)
        src = str(Path(__file__).resolve().parents[1] / "src")
        command = [sys.executable, "-m", "fareyulfp.cli", "geod", "1/0", str(target)]
        with subprocess.Popen(
            command, env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and b"Traceback" not in err, err


class TestEnvironment:
    def test_env_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("ULFP_M", "7")
        monkeypatch.setenv("ULFP_DELTA", "4")
        monkeypatch.setenv("ULFP_SEED", "9")
        report = invoke(capsys, ["dist", "1/0", "0/1"])
        assert report["config"]["M"] == 7
        assert report["config"]["delta"] == 4
        assert report["config"]["seed"] == 9

    @pytest.mark.parametrize("name", ["ULFP_M", "ULFP_DELTA", "ULFP_SEED"])
    def test_malformed_fallback_exits_two(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code = run(["dist", "1/0", "1/2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.strip() == f"error: {name} must be an integer, got 'abc'"

    def test_flags_beat_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ULFP_M", "7")
        report = invoke(capsys, ["--M", "11", "dist", "1/0", "0/1"])
        assert report["config"]["M"] == 11


class TestGeodListing:
    """`geod` counts every geodesic and lists at most GEOD_LIST_CAP of them."""

    @staticmethod
    def pairs(n: int):
        t = continued_fraction_slope([2] * n)
        m = MobiusMap(2, 1, 3, 2).compose(MobiusMap(1, 0, -2, 1))
        return [(INFINITY, t), (apply(m, INFINITY), apply(m, t))]

    def test_listing_is_the_least_paths_and_marked_truncated(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GEOD_LIST_CAP", 50)
        for x, y in self.pairs(8):
            out = invoke(capsys, ["geod", "--", str(x), str(y)])["outputs"]
            assert out["count"] == 55 and out["truncated"] is True
            assert out["geodesics"] == [str(g) for g in sorted(geodesics(x, y))[:50]]

    def test_reports_under_the_cap_are_unchanged(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GEOD_LIST_CAP", 55)
        for x, y in self.pairs(8):
            out = invoke(capsys, ["geod", "--", str(x), str(y)])["outputs"]
            found = sorted(geodesics(x, y))
            assert out == {"count": len(found), "geodesics": [str(g) for g in found]}

    def test_count_of_f42_geodesics_lists_only_the_cap(self, capsys):
        x, y = self.pairs(40)[0]
        out = invoke(capsys, ["geod", str(x), str(y)])["outputs"]
        assert out["count"] == 267914296 and out["truncated"] is True
        assert len(out["geodesics"]) == cli.GEOD_LIST_CAP == 10_000
        first = [Geodesic.parse(text) for text in out["geodesics"][:100]]
        assert all(g.start == x and g.end == y for g in first)
        keys = [[tuple(map(int, v.split("/"))) for v in text.split(",")] for text in out["geodesics"]]
        assert keys == sorted(keys)
