"""End-to-end command-line behavior through the in-process entry point."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from triregion import parse_ideal
from triregion.cli import COMMANDS, _as_text, main
from conftest import standard_by_scan

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """The ``triregion ...`` lines of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("triregion ")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerdictCommands:
    def test_count_deep_parallelogram(self, capsys):
        # the d = 64 parallelogram is one forced chain, deeper than the recursion limit
        code, out, _ = run(capsys, "count", "--ideal", "x^32, y^32, z^64", "--degree", "64")
        assert code == 0
        assert json.loads(out) == {"count": "1", "exact": True}

    def test_wlp_true(self, capsys):
        code, out, _ = run(capsys, "wlp", "--ideal", "x^7, x^5yz, xy^3z^3, y^7, z^8")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["failing_degree"] is None

    def test_wlp_failure_records(self, capsys):
        code, out, _ = run(
            capsys, "wlp", "--ideal", "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["failing_degree"] == 8

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        assert code == 0
        assert json.loads(out) == {"count": "2", "exact": True}

    def test_count_hexagon(self, capsys):
        # MacMahon(2, 2, 2); the count is always exact, so there is no --cap
        code, out, _ = run(capsys, "count", "--ideal", "x^4,y^4,z^4", "--degree", "6")
        assert code == 0
        assert json.loads(out) == {"count": "20", "exact": True}
        assert run(capsys, "count", "--ideal", "x^4,y^4,z^4", "--degree", "6", "--cap", "5")[0] == 1

    def test_count_unbalanced_region(self, capsys):
        code, out, _ = run(capsys, "count", "--ideal", "x^2,y^2,z^3", "--degree", "3")
        assert code == 0
        assert json.loads(out) == {"count": "0", "exact": True}

    def test_semistable(self, capsys):
        code, out, _ = run(
            capsys,
            "semistable",
            "--ideal", "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7",
            "--degree", "9",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Semistable"

    def test_criterion(self, capsys):
        code, out, _ = run(
            capsys, "criterion", "--ideal", "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cond_parity"] is False
        assert payload["applicable_strong"] is False

    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ideal", "x^2,y^2,z^2", "--max-degree", "4")
        assert code == 0
        values = [row["value"] for row in json.loads(out)["values"]]
        assert values == [1, 3, 3, 1, 0]

    @pytest.mark.parametrize("text, top", [("x^2,y^2,z^2", 4), ("x^9, y^7, z^5, x^2y^2z^2", 25)])
    def test_hilbert_matches_scan(self, capsys, text, top):
        code, out, _ = run(capsys, "hilbert", "--ideal", text, "--max-degree", str(top))
        assert code == 0
        ideal = parse_ideal(text)
        assert json.loads(out) == {
            "ideal": str(ideal),
            "values": [{"degree": j, "value": len(standard_by_scan(ideal, j))}
                       for j in range(top + 1)],
        }

    def test_hilbert_degree_zero_and_negative(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ideal", "x^2,y^2,z^2", "--max-degree", "0")
        assert (code, json.loads(out)["values"]) == (0, [{"degree": 0, "value": 1}])
        code, out, err = run(capsys, "hilbert", "--ideal", "x^2,y^2,z^2", "--max-degree", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "--max-degree must be nonnegative",
        }


class TestReadmeExamples:
    def test_every_line_exits_0(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lines = readme_command_lines()
        for argv in lines:
            code, out, err = run(capsys, *argv[1:])
            assert (code, err) == (0, ""), argv
            assert out
        assert {argv[1] for argv in lines} >= set(COMMANDS)


class TestErrors:
    def test_non_artinian_exit_2(self, capsys):
        code, out, err = run(capsys, "wlp", "--ideal", "xy, y^2, z^3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "NotArtinianError"

    def test_syntax_error_exit_1(self, capsys):
        code, _, err = run(capsys, "wlp", "--ideal", "x^2, w")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "syntax"

    def test_usage_error_exit_1(self, capsys):
        assert run(capsys, "wlp")[0] == 1
        assert run(capsys, "no-such-command")[0] == 1

    def test_render_tiling_of_non_tileable_region(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "render",
            "--ideal", "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z",
            "--degree", "8",
            "--out", str(tmp_path / "never.svg"),
            "--tiling",
        )
        assert code == 2
        assert "no tiling" in json.loads(err)["error"]["message"]

    def test_hilbert_degree_cap_checked_first(self, capsys, monkeypatch):
        import triregion.monomials

        computed = []
        staircase = triregion.monomials.MonomialIdeal._staircase

        def recording(ideal, n):
            computed.append(n)
            return staircase(ideal, n)

        monkeypatch.setattr(triregion.monomials, "DEGREE_CAP", 20)
        monkeypatch.setattr(triregion.monomials.MonomialIdeal, "_staircase", recording)
        code, out, err = run(capsys, "hilbert", "--ideal", "x^2,y^2,z^2", "--max-degree", "21")
        assert code == 2
        assert out == ""
        assert "cap" in json.loads(err)["error"]["message"]
        assert computed == []

    def test_wlp_degree_cap(self, capsys, monkeypatch):
        import triregion.monomials

        monkeypatch.setattr(triregion.monomials, "DEGREE_CAP", 20)
        code, out, err = run(capsys, "wlp", "--ideal", "x^30, y^30, z^30")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "degree 21 exceeds the safety cap 20",
        }

    @pytest.mark.parametrize("unit", ["nan", "inf", "-inf", "0"])
    def test_render_unit_must_be_finite_positive(self, capsys, tmp_path, unit):
        target = tmp_path / "never.svg"
        code, out, err = run(
            capsys,
            "render",
            "--ideal", "x^2, y^2, z^2",
            "--degree", "3",
            "--out", str(target),
            f"--unit={unit}",
        )
        assert code == 2
        assert out == ""
        assert "unit" in json.loads(err)["error"]["message"]
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--ideal", "x^2, y^2, z^2", "--degree", "3", "--out"),
            ("region", "--ideal", "xy, y^2, z^3", "--degree", "4", "--svg"),
        ],
        ids=["render", "region"],
    )
    def test_write_to_missing_directory_exit_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.svg"
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"
        assert not target.exists()

    def test_precondition_degree(self, capsys):
        code, _, err = run(
            capsys,
            "semistable",
            "--ideal", "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z",
            "--degree", "7",
        )
        assert code == 2
        assert "degree" in json.loads(err)["error"]["message"]


class TestArtifacts:
    def test_region_json_and_svg(self, capsys, tmp_path):
        target = tmp_path / "region.svg"
        code, out, _ = run(
            capsys,
            "region",
            "--ideal", "xy, y^2, z^3",
            "--degree", "4",
            "--svg", str(target),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "balanced"
        assert payload["up"] == ["x^3", "x^2*z", "x*z^2", "y*z^2"]
        assert target.read_text().startswith("<?xml")

    def test_tile(self, capsys):
        code, out, _ = run(capsys, "tile", "--ideal", "xy, y^2, z^3", "--degree", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["tileable"] is True
        assert len(payload["tiling"]) == 4

    def test_render_tiling(self, capsys, tmp_path):
        target = tmp_path / "tiling.svg"
        code, out, _ = run(
            capsys,
            "render",
            "--ideal", "x^2,y^2,z^2",
            "--degree", "3",
            "--out", str(target),
            "--tiling",
        )
        assert code == 0
        assert target.read_text().count('class="lozenge"') == 3

    def test_family(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "convenient", "--params", "8,13")
        assert code == 0
        payload = json.loads(out)
        assert payload["validation"]["applicable_strong"] is True
        assert "x^12" in payload["ideal"]
        assert payload["notes"]

    def test_family_example(self, capsys):
        code, out, _ = run(
            capsys, "family", "--kind", "example", "--params", "12,12,12,11,11,11,11,11"
        )
        assert code == 0
        assert json.loads(out)["validation"]["wlp_verdict"] is True

    def test_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["determinant"] == "-2"
        assert payload["permanent"] == "2"
        assert payload["rank"] == 3


class TestDeterminismAndFormats:
    def test_subprocess_roundtrip(self):
        import subprocess
        import sys

        argv = [sys.executable, "-m", "triregion.cli", "wlp", "--ideal", "x^2,y^2,z^2"]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["verdict"] is True

    def test_repeat_invocations_identical(self, capsys):
        _, first, _ = run(capsys, "region", "--ideal", "x^3,y^3,z^3", "--degree", "5")
        _, second, _ = run(capsys, "region", "--ideal", "x^3,y^3,z^3", "--degree", "5")
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "count", "--ideal", "x^2,y^2,z^2", "--degree", "3"
        )
        assert code == 0
        assert "count = 2" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("criterion", "--ideal", "x^7, x^5yz, xy^3z^3, y^7, z^8"), "parity_offenders = []"),
            (("family", "--kind", "convenient", "--params", "4,13"), "notes = []"),
            (("family", "--kind", "convenient", "--params", "4,13"), "validation.parity_offenders = []"),
        ],
    )
    def test_text_format_keeps_empty_lists(self, capsys, argv, line):
        _, out, _ = run(capsys, "--format", "text", *argv)
        assert line in out.splitlines()

    def test_text_format_empty_containers(self):
        assert _as_text({"a": {}, "b": [[], 1]}) == "a = {}\nb.0 = []\nb.1 = 1"

    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIREGION_FORMAT", "text")
        code, out, _ = run(capsys, "count", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        assert code == 0
        assert "count = 2" in out

    def test_format_env_read_on_each_call(self, capsys, monkeypatch):
        # the parser is built once per process, so the variable must be read per call
        argv = ("count", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        monkeypatch.setenv("TRIREGION_FORMAT", "text")
        _, first, _ = run(capsys, *argv)
        monkeypatch.delenv("TRIREGION_FORMAT")
        _, second, _ = run(capsys, *argv)
        assert first == "count = 2\nexact = True\n"
        assert json.loads(second) == {"count": "2", "exact": True}

    def test_format_env_invalid_means_json(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIREGION_FORMAT", "yaml")
        code, out, _ = run(capsys, "count", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        assert code == 0
        assert json.loads(out) == {"count": "2", "exact": True}

    def test_format_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIREGION_FORMAT", "text")
        argv = ("count", "--ideal", "x^2,y^2,z^2", "--degree", "3")
        _, out, _ = run(capsys, "--format", "json", *argv)
        assert json.loads(out) == {"count": "2", "exact": True}
        _, out, _ = run(capsys, *argv)
        assert out == "count = 2\nexact = True\n"
