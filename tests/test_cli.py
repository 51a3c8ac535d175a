"""End-to-end command-line behavior through the in-process entry point."""

from __future__ import annotations

import hashlib
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

    @pytest.mark.parametrize("tiling", [[], ["--tiling"]])
    def test_render_canvas_must_be_finite(self, capsys, tmp_path, tiling):
        target = tmp_path / "never.svg"
        code, out, err = run(
            capsys,
            "render",
            "--ideal", "x^2, y^2, z^2",
            "--degree", "3",
            "--out", str(target),
            "--unit", "1e308",
            *tiling,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "a side-3 canvas at unit 1e+308 overflows",
        }
        assert not target.exists()

    @pytest.mark.parametrize("tiling", [[], ["--tiling"]])
    def test_render_label_centres_must_be_finite(self, capsys, tmp_path, tiling):
        target = tmp_path / "never.svg"
        code, out, err = run(
            capsys,
            "render",
            "--ideal", "x^2, y^2, z^2",
            "--degree", "3",
            "--out", str(target),
            "--unit", "4e307",
            "--labels",
            *tiling,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "a label centre at unit 4e+307 overflows",
        }
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


#: sha256 of the output of ``tile`` and ``region --svg region.svg``, and of
#: the files ``region --svg`` and ``render --tiling`` write, for the large
#: benchmark regions: the hexagons x^k, y^k, z^k at d = 3k/2 = 24 .. 48 and
#: ``convenient_family`` (8, 20) and (6, 25).  Fixed before the SVG writer
#: moved to coordinate tables and the label orders to one sort per region.
LARGE_REGION_PINS = [
    (
        "x^16, y^16, z^16", 24,
        "1f5fb796e0496eb78269f286e27e2ea9592da1245f5ef420ccfec97dd20539e4",
        "196291c17d49b8688c522c2fe538a18e26d9fd99370a3b7cdbd19cf0125260ca",
        "1c84c7187db9368852a99454d9ad3b7c3eba8ad9fddd6ce5ddf6d10908eb68be",
        "6bbfd15f1ae1fb01b1ad4369c98466d5034ea8b437deb46d8d0a69c9ac8f099c",
    ),
    (
        "x^20, y^20, z^20", 30,
        "cbc7a6b9df0a81d8ddc0f5188ccbc1c0cff86aa79700a4b86d5b26ad909bacec",
        "702c4ab485c2567baa369927e162b6633fbc5fc3a82284c29330a5431485d903",
        "b1e572c7d3a73b23b28d3a4ffa390da8440ccbfc88cb659528e969ac2ae10047",
        "b8878480e56578a87a7ead4cbaa8dd40002f3cb9a6691bdfebedee75cb13624a",
    ),
    (
        "x^24, y^24, z^24", 36,
        "375a2613586cb48b449e70801c789ee589b163e02055562c4619c2e6e08709e7",
        "c704594cbaf493e9e3cab5f2d315199527d97b5ae40ee59255b2743d30e3ba23",
        "1587689693b5ec45119da9078103819ae993608d8a74ba9bb148f45582a01e7e",
        "c45688efeb13c9b926e394e6ab769beba6a45cd54ce517eed7e98204673c7283",
    ),
    (
        "x^28, y^28, z^28", 42,
        "76f4b64553e455db0e66fbe9916014e367edd9738afde1b33310bb59e97bc930",
        "82330119a7a26e3ca643ecbc0ad8e4b86a744c078411c012c400678ce2149888",
        "c693b4f71d443c84d0b1edf7b9150eb18020f496ff8f8ad7b28f1b170ded4ce8",
        "593a0fd57f5ac21b995c17bc7b67efa28e44421f6dc0e6b82e4f969e527ed19e",
    ),
    (
        "x^32, y^32, z^32", 48,
        "2a0c79e186ed348460f65e4360999df1066204c8f0cf02d8c837de7f28cb20f3",
        "565f7d6281c6d509f170a14c155023061f87b7f369b53ca5990e73d97b74806c",
        "895d64374a905b07f03d2c774d73db2ab8084d563ce08c8179095c0e467d5d6b",
        "1a38ff0baee1efaf20bf234041d8517d53052edb4401f8677e6912f1eb1d6d13",
    ),
    (
        "x^12, y^19, x*y^9*z^8, x^6*y^2*z^10, x*y^5*z^12, x^3*y^2*z^13, x*y*z^16, z^19", 20,
        "ee9b67dec3f976773a3dd8f9bc699cc70033cdfdc8d94ccbe147c50a17d45a83",
        "734813ec11bc3162038a159630b3d9213953cffa618e1c8f813b9189aaafc2bf",
        "b0c57f2b39d69a21b3fec0aa28fe6ec9d15b5154a5d85ff912f415e5a0fb6950",
        "97f9f1a320920c8c94834ecb61d87aa5ff556030c47fed347fa02aac332d1575",
    ),
    (
        "x^8, y^24, x*y^5*z^17, x^3*y^2*z^18, x*y*z^21, z^24", 25,
        "f08c1ea024e9139749a99fccdd23725b05e543bfd7eae476c049deead652542f",
        "705c60f959f7fa6f330d3f4552e77ec7d957b61027040f0e0aea4c248878795a",
        "fb7921853532c31b533888bb75ee03cc5a65c1106b1aa3cdcd601c2aeb0667b4",
        "81a3c21ef4cb2b4e73b5a3ce7f88b499dd9040139c09c6dc0170e4c3fd43fe87",
    ),
]


class TestLargeRegionBytes:
    @pytest.mark.parametrize(
        "text, d, tile, region, region_svg, tiling_svg",
        LARGE_REGION_PINS,
        ids=[f"{pin[0]} @ {pin[1]}" for pin in LARGE_REGION_PINS],
    )
    def test_pinned_bytes(self, capsys, tmp_path, monkeypatch, text, d, tile, region, region_svg, tiling_svg):
        monkeypatch.chdir(tmp_path)  # the region output names its SVG path

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        common = ("--ideal", text, "--degree", str(d))
        code, out, _ = run(capsys, "tile", *common)
        assert code == 0 and sha(out.encode()) == tile
        code, out, _ = run(capsys, "region", *common, "--svg", "region.svg")
        assert code == 0 and sha(out.encode()) == region
        code, _, _ = run(capsys, "render", *common, "--tiling", "--out", "tiling.svg")
        assert code == 0
        assert sha(Path("region.svg").read_bytes()) == region_svg
        assert sha(Path("tiling.svg").read_bytes()) == tiling_svg


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
