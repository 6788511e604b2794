import argparse
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sorimir
from sorimir import report
from sorimir.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _never_rendered(*args):
    """Stands in for a renderer whose output the command neither prints nor writes."""
    raise AssertionError("rendered an artifact that is not written")


class TestScoreDump:
    def test_merged_default(self, capsys, fixtures_dir, expected_fixture):
        code, out, _ = run_cli(
            capsys, "score", "dump", "--in", str(fixtures_dir / "joongmori_sample.musicxml")
        )
        assert code == 0
        record = json.loads(out)
        assert record["daemok_id"] == "sample-daemok"
        assert record["events"] == expected_fixture["merged"]

    def test_unmerged(self, capsys, fixtures_dir, expected_fixture):
        code, out, _ = run_cli(
            capsys,
            "score", "dump",
            "--in", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--no-merge-ties",
        )
        assert json.loads(out)["events"] == expected_fixture["unmerged"]

    def test_write_to_file(self, capsys, fixtures_dir, tmp_path):
        out_file = tmp_path / "dump.json"
        code, out, _ = run_cli(
            capsys,
            "score", "dump",
            "--in", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--out", str(out_file),
        )
        assert code == 0 and out == ""
        assert json.loads(out_file.read_text())["divisions"] == 2

    def test_missing_file_error_json(self, capsys):
        code, _, err = run_cli(capsys, "score", "dump", "--in", "/nope/x.musicxml")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_unknown_xml_encoding_is_one_json_line(self, capsys, fixtures_dir, tmp_path):
        score = (fixtures_dir / "joongmori_sample.musicxml").read_text()
        path = tmp_path / "x.musicxml"
        path.write_text(score.replace('encoding="UTF-8"', 'encoding="U3F-8"', 1))
        code, out, err = run_cli(capsys, "score", "dump", "--in", str(path))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "MusicXmlParseError"
        assert "unknown encoding: U3F-8" in error["message"]


class TestF0Commands:
    def test_import_canonicalizes(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "f0", "import", "--in", str(fixtures_dir / "sample.f0.csv"))
        assert code == 0
        assert out.startswith("time,frequency,confidence\n")

    def test_filter_pipeline(self, capsys, fixtures_dir, tmp_path):
        filtered = tmp_path / "filtered.csv"
        code, _, _ = run_cli(
            capsys,
            "f0", "filter",
            "--in", str(fixtures_dir / "sample.f0.csv"),
            "--min-conf", "0.6", "--min-hz", "350", "--max-hz", "1000",
            "--out", str(filtered),
        )
        assert code == 0
        from sorimir.pitch_track import import_f0_csv

        track = import_f0_csv(filtered.read_text())
        voiced_hz = track.f0_hz[track.voiced]
        assert voiced_hz.size > 0
        assert voiced_hz.min() >= 350.0 and voiced_hz.max() <= 1000.0

    def test_extract_from_wav(self, capsys, tmp_path):
        import numpy as np
        from scipy.io import wavfile

        sr = 44100
        t = np.arange(sr) / sr
        wav = tmp_path / "tone.wav"
        wavfile.write(wav, sr, (0.8 * np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16))
        code, out, _ = run_cli(
            capsys,
            "f0", "extract", "--in", str(wav), "--hop", "0.01",
            "--search-min-hz", "300", "--search-max-hz", "1100",
        )
        assert code == 0
        from sorimir.pitch_track import import_f0_csv

        track = import_f0_csv(out)
        voiced = track.f0_hz[track.voiced]
        assert abs(np.median(voiced) - 440.0) < 2.0

    def test_bad_csv_reports_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,frequency,confidence\n0.00,440,0.9\n0.02,441,0.9\n0.01,442,0.9\n")
        code, _, err = run_cli(capsys, "f0", "import", "--in", str(bad))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "FormatError"


class TestBeatsValidate:
    def test_valid_grid(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "beats", "validate",
            "--in", str(fixtures_dir / "sample.beats.csv"),
            "--beats-per-measure", "12",
        )
        assert code == 0
        record = json.loads(out)
        assert record["ok"] and record["measures"] == 3 and record["beats"] == 36

    def test_invalid_grid(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = ["measure,beat,time"] + [f"0,{b},{b * 0.5:.3f}" for b in range(13)]
        bad.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "beats", "validate", "--in", str(bad))
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "BeatValidationError"
        assert "13 beats" in error["message"]

    def test_header_only_grid_is_one_json_line(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("measure,beat,time\n")
        code, out, err = run_cli(capsys, "beats", "validate", "--in", str(path))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {"type": "BeatValidationError",
                                             "message": "no beat annotations"}

    def test_huge_measure_index_gives_a_short_error_line(self, capsys, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("measure,beat,time\n1000000,0,0.0\n")
        code, _, err = run_cli(capsys, "beats", "validate", "--in", str(path), "--beats-per-measure", "1")
        assert code == 1
        (line,) = err.splitlines()
        assert len(line.encode()) < 1024
        assert json.loads(line)["error"]["message"].endswith("(first 10 of 1000000)")


class TestHistogramCommand:
    def test_json_and_svg_outputs(self, capsys, fixtures_dir, tmp_path):
        out_json = tmp_path / "hist.json"
        out_svg = tmp_path / "hist.svg"
        code, _, _ = run_cli(
            capsys,
            "histogram",
            "--score", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--f0", str(fixtures_dir / "sample.f0.csv"),
            "--mode", "ujo", "--mode", "gyemyeonjo",
            "--out", str(out_json), "--svg", str(out_svg),
        )
        assert code == 0
        record = json.loads(out_json.read_text())
        assert set(record["affinities"]) == {"ujo", "gyemyeonjo"}
        assert record["f0_histogram"]["masses"]
        assert out_svg.read_text().startswith("<svg")

    def test_stdout_json_default(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setattr(report, "render_histogram_figure", _never_rendered)
        code, out, _ = run_cli(
            capsys,
            "histogram",
            "--score", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--f0", str(fixtures_dir / "sample.f0.csv"),
        )
        assert code == 0
        assert json.loads(out)["daemok"] == "sample-daemok"

    @pytest.mark.parametrize(
        "option, value",
        [("--reference-hz", "nan"), ("--reference-hz", "0"), ("--tuning-offset-cents", "1e7")],
    )
    def test_unusable_reference_is_one_json_line(self, capsys, fixtures_dir, option, value):
        code, out, err = run_cli(
            capsys,
            "histogram",
            "--score", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--f0", str(fixtures_dir / "sample.f0.csv"),
            option, value,
        )
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "DomainError"

    def test_format_svg_stdout(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "histogram",
            "--score", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--f0", str(fixtures_dir / "sample.f0.csv"),
            "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg")


class TestPatternsCommands:
    def test_mine_directory(self, capsys, fixtures_dir, tmp_path):
        scores = tmp_path / "scores"
        scores.mkdir()
        shutil.copy(fixtures_dir / "joongmori_sample.musicxml", scores / "one.musicxml")
        shutil.copy(fixtures_dir / "joongmori_sample.musicxml", scores / "two.musicxml")
        code, out, _ = run_cli(
            capsys,
            "patterns", "mine", "--scores", str(scores), "--n", "2,3", "--min-support", "2",
        )
        assert code == 0
        record = json.loads(out)
        top = record["patterns"][0]
        assert top["support"] >= 2
        assert set(top["per_daemok"]) == {"one", "two"}

    def test_mine_prints_exactly_the_patterns_json_of_run(self, capsys, fixtures_dir, tmp_path):
        scores = tmp_path / "scores"
        scores.mkdir()
        entries = []
        for daemok_id in ("sample-daemok", "zweite-\u00e9"):
            score = scores / f"{daemok_id}.musicxml"
            shutil.copy(fixtures_dir / "joongmori_sample.musicxml", score)
            entries.append({"id": daemok_id, "score": str(score),
                            "f0_csv": str(fixtures_dir / "sample.f0.csv"),
                            "beats": str(fixtures_dir / "sample.beats.csv")})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"daemok": entries,
                                        "settings": {"min_support": 3, "skip_rests": True}}))
        out_dir = tmp_path / "out"
        assert run_cli(capsys, "run", "--manifest", str(manifest), "--out-dir", str(out_dir))[0] == 0
        code, out, _ = run_cli(
            capsys, "patterns", "mine", "--scores", str(scores), "--min-support", "3", "--skip-rests"
        )
        assert code == 0
        assert json.loads(out)["patterns"]
        assert out == (out_dir / "patterns.json").read_text()

    def test_mine_empty_directory_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "patterns", "mine", "--scores", str(tmp_path))
        assert code == 1
        assert "no .musicxml" in json.loads(err)["error"]["message"]

    def test_mine_malformed_score_names_the_file(self, capsys, fixtures_dir, tmp_path):
        shutil.copy(fixtures_dir / "joongmori_sample.musicxml", tmp_path / "a.musicxml")
        good = (fixtures_dir / "joongmori_sample.musicxml").read_text()
        bad = good.replace("<divisions>", "<!--").replace("</divisions>", "-->")
        assert bad != good
        (tmp_path / "b.musicxml").write_text(bad)
        code, _, err = run_cli(capsys, "patterns", "mine", "--scores", str(tmp_path))
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "PipelineError"
        assert "stage 'score' failed for daemok 'b'" in error["message"]
        assert "divisions" in error["message"]

    def test_contours_csv_stdout(self, capsys, manifest_path, monkeypatch):
        monkeypatch.setattr(report, "render_contour_overlay", _never_rendered)
        code, out, _ = run_cli(
            capsys,
            "patterns", "contours",
            "--manifest", str(manifest_path),
            "--pattern", "A4:2/1 C5:2/1",
        )
        assert code == 0
        header, *rows = out.strip().split("\n")
        assert header.startswith("pattern,daemok")
        assert len({r.split(",")[2] for r in rows}) == 2  # two occurrence onsets

    def test_contours_svg_file(self, capsys, manifest_path, tmp_path):
        svg_path = tmp_path / "overlay.svg"
        code, _, _ = run_cli(
            capsys,
            "patterns", "contours",
            "--manifest", str(manifest_path),
            "--pattern", "A4:2/1 C5:2/1",
            "--svg", str(svg_path),
        )
        assert code == 0
        assert svg_path.read_text().count("<polyline") >= 2

    def test_vibrato_json(self, capsys, manifest_path, monkeypatch):
        monkeypatch.setattr(report, "contours_csv", _never_rendered)
        monkeypatch.setattr(report, "render_contour_overlay", _never_rendered)
        code, out, _ = run_cli(
            capsys,
            "patterns", "vibrato",
            "--manifest", str(manifest_path),
            "--pattern", "A4:2/1 C5:2/1",
        )
        assert code == 0
        record = json.loads(out)
        metrics = [o["metrics"] for o in record["occurrences"]]
        assert all(m is not None for m in metrics)
        assert all(abs(m["rate_hz"] - 5.5) < 0.5 for m in metrics)

    def test_unallocatable_contour_samples_is_one_json_line(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_fixture_manifest(fixtures_dir, samples_per_contour=10**15)))
        code, _, err = run_cli(
            capsys, "patterns", "contours", "--manifest", str(path), "--pattern", "A4:2/1 C5:2/1"
        )
        assert code == 1
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "MemoryError" and error["message"].startswith("Unable to allocate")

    def test_vibrato_never_resamples(self, capsys, fixtures_dir, manifest_path, tmp_path):
        """`vibrato.json` reads no contour values, so a sample count too large to allocate is
        never allocated: the record equals the one at the default count."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_fixture_manifest(fixtures_dir, samples_per_contour=10**15)))
        pattern = ["--pattern", "A4:2/1 C5:2/1"]
        code, out, err = run_cli(capsys, "patterns", "vibrato", "--manifest", str(path), *pattern)
        assert code == 0 and err == ""
        code, expected, _ = run_cli(
            capsys, "patterns", "vibrato", "--manifest", str(manifest_path), *pattern
        )
        assert code == 0 and out == expected

    def test_unknown_pattern_errors(self, capsys, manifest_path):
        code, _, err = run_cli(
            capsys,
            "patterns", "contours",
            "--manifest", str(manifest_path),
            "--pattern", "B4:1/1 B4:1/1",
        )
        assert code == 1
        assert "not in the index" in json.loads(err)["error"]["message"]


class TestRunCommand:
    def test_run_fixture_manifest(self, capsys, manifest_path, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--manifest", str(manifest_path), "--out-dir", str(out_dir)
        )
        assert code == 0
        record = json.loads(out)
        assert record["ok"] and record["daemok"] == ["sample-daemok"]
        assert record["contour_sets"]["A4:2/1 C5:2/1"] == 2
        assert (out_dir / "patterns.json").is_file()

    def test_run_missing_manifest(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--manifest", str(tmp_path / "none.json"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "PipelineError"

    def test_warnings_before_a_failure_ride_in_its_line(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_fixture_manifest(fixtures_dir, n_values=[15])))
        code, _, err = run_cli(capsys, "run", "--manifest", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert "not in the index" in error["message"]
        assert error["warnings"] == ["no sequence is long enough for 15-grams"]

    def test_unallocatable_contour_is_one_json_line(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_fixture_manifest(fixtures_dir, samples_per_contour=10**15)))
        code, _, err = run_cli(capsys, "run", "--manifest", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "PipelineError"
        assert error["message"].startswith("stage 'contours' failed for daemok '*': Unable to allocate")
        assert not (tmp_path / "out").exists()

    def test_kernel_error_in_a_worker_is_one_json_line(
        self, capsys, fixtures_dir, tmp_path, kernel_fails_on_second_block
    ):
        import numpy as np
        from scipy.io import wavfile

        sr = 22050
        t = np.arange(3 * sr) / sr  # 300 YIN frames: several blocks
        wavfile.write(tmp_path / "tone.wav", sr, (0.5 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(np.int16))
        manifest = _fixture_manifest(fixtures_dir)
        entry = manifest["daemok"][0]
        del entry["f0_csv"]
        entry["audio"] = str(tmp_path / "tone.wav")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        before = threading.active_count()
        code, out, err = run_cli(capsys, "run", "--manifest", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "PipelineError"
        assert error["message"].startswith("stage 'f0' failed for daemok 'sample-daemok'")
        assert threading.active_count() == before
        assert not (tmp_path / "out").exists()


def _fixture_manifest(fixtures_dir, **settings) -> dict:
    manifest = json.loads((fixtures_dir / "manifest.json").read_text())
    entry = manifest["daemok"][0]
    for key in ("score", "f0_csv", "beats"):
        entry[key] = str(fixtures_dir / entry[key])
    manifest["settings"].update(settings)
    return manifest


class TestManifestSchema:
    @pytest.mark.parametrize(
        "settings, daemok, message",
        [
            ({"min_suport": 99}, None, "unknown setting 'min_suport'"),
            ({"filter": {"min_conf": 0.5}}, None, "unknown setting 'filter.min_conf'"),
            ({"n_values": "23"}, None, "'n_values' must be list"),
            ({"n_values": [2, "3"]}, None, "'n_values' must be int"),
            ({"n_values": [2, True]}, None, "'n_values' must be int"),
            ({"min_support": 2.5}, None, "'min_support' must be int"),
            ({"samples_per_contour": "200"}, None, "'samples_per_contour' must be int"),
            ({"modes": ["ujo", "pyeongjo"]}, None, "unknown mode 'pyeongjo'"),
            ({}, [["sample-daemok", "joongmori_sample.musicxml"]], "is not an object"),
            ({}, [{"id": "*", "score": "s", "beats": "b", "f0_csv": "f"}],
             "daemok id '*' is reserved for the whole corpus"),
            ({"reference_hz": float("nan")}, None, "'reference_hz' must be finite, got nan"),
            ({"tuning_offset_cents": float("inf")}, None, "'tuning_offset_cents' must be finite"),
            ({"filter": {"min_hz": float("-inf")}}, None, "'filter.min_hz' must be finite"),
            ({"tuning_offset_cents": 1e7}, None, "not a finite positive frequency"),
            ({"reference_hz": 0}, None, "not a finite positive frequency"),
            ({"filter": {"min_hz": 2000.0}}, None, "need 0 < min_hz < max_hz"),
            ({"beats_per_measure": 0}, None, "beats_per_measure must be >= 1"),
        ],
    )
    def test_rejected_with_one_json_line(self, capsys, fixtures_dir, tmp_path, settings, daemok, message):
        manifest = _fixture_manifest(fixtures_dir, **settings)
        if daemok is not None:
            manifest["daemok"] = daemok
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "run", "--manifest", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PipelineError"
        assert "stage 'manifest'" in error["message"] and message in error["message"]

    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_manifest_names_the_file(self, capsys, tmp_path, kind):
        path = tmp_path / "m.json"
        if kind == "directory":
            path.mkdir()
        else:  # 0xb1 cannot start a UTF-8 sequence
            path.write_bytes(b"\xb1" + random.Random(0).randbytes(299))
        code, out, err = run_cli(capsys, "run", "--manifest", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PipelineError"
        assert "stage 'manifest'" in error["message"] and f"cannot read {path}" in error["message"]


class TestRunParity:
    """The standalone subcommands and `run` share one builder per record."""

    PATTERN = "A4:2/1 C5:2/1"

    @pytest.fixture(scope="class")
    def run_dir(self, manifest_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("parity")
        assert main(["run", "--manifest", str(manifest_path), "--out-dir", str(out)]) == 0
        return out

    def test_histogram_matches_run(self, capsys, run_dir, fixtures_dir):
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys,
            "histogram",
            "--score", str(fixtures_dir / "joongmori_sample.musicxml"),
            "--f0", str(fixtures_dir / "sample.f0.csv"),
            "--mode", "ujo", "--mode", "gyemyeonjo",
        )
        assert code == 0
        expected = json.loads((run_dir / "sample-daemok.histogram.json").read_text())
        assert json.loads(out) == {**expected, "reference_hz": 440.0}

    def test_vibrato_matches_run(self, capsys, run_dir, manifest_path):
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "patterns", "vibrato", "--manifest", str(manifest_path), "--pattern", self.PATTERN
        )
        assert code == 0
        assert out == (run_dir / "pattern-00.vibrato.json").read_text()

    def test_contours_match_run(self, capsys, run_dir, manifest_path, tmp_path):
        capsys.readouterr()
        csv_path = tmp_path / "contours.csv"
        code, _, _ = run_cli(
            capsys,
            "patterns", "contours",
            "--manifest", str(manifest_path),
            "--pattern", self.PATTERN,
            "--out", str(csv_path),
        )
        assert code == 0
        assert csv_path.read_bytes() == (run_dir / "pattern-00.contours.csv").read_bytes()

    @pytest.fixture(scope="class")
    def samples_50(self, fixtures_dir, tmp_path_factory):
        """A manifest whose `samples_per_contour` is 50, and the directory `run` wrote from it."""
        root = tmp_path_factory.mktemp("parity-50")
        manifest = root / "m.json"
        manifest.write_text(json.dumps(_fixture_manifest(fixtures_dir, samples_per_contour=50)))
        assert main(["run", "--manifest", str(manifest), "--out-dir", str(root / "out")]) == 0
        return manifest, root / "out"

    def test_subcommands_take_samples_per_contour_from_the_manifest(self, capsys, samples_50, tmp_path):
        manifest, run_dir = samples_50
        capsys.readouterr()
        csv_path = tmp_path / "contours.csv"
        code, _, _ = run_cli(
            capsys, "patterns", "contours", "--manifest", str(manifest), "--pattern", self.PATTERN,
            "--out", str(csv_path),
        )
        assert code == 0
        expected = (run_dir / "pattern-00.contours.csv").read_bytes()
        assert expected.count(b"\n") == 1 + 2 * 50  # the header, then two contours of 50 samples
        assert csv_path.read_bytes() == expected
        code, out, _ = run_cli(
            capsys, "patterns", "vibrato", "--manifest", str(manifest), "--pattern", self.PATTERN
        )
        assert code == 0
        assert out == (run_dir / "pattern-00.vibrato.json").read_text()

    def test_subcommands_take_min_support_from_the_manifest(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_fixture_manifest(fixtures_dir, min_support=3)))  # support is 2
        capsys.readouterr()
        for argv in (
            ("run", "--out-dir", str(tmp_path / "out")),
            ("patterns", "contours", "--pattern", self.PATTERN),
            ("patterns", "vibrato", "--pattern", self.PATTERN),
        ):
            code, out, err = run_cli(capsys, *argv, "--manifest", str(path))
            assert code == 1 and out == "", argv
            assert "not in the index" in json.loads(err)["error"]["message"], argv


def _subparser(parser, *names):
    for name in names:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def _shadows(option: str, setting: str) -> bool:
    """Whether `option` names `setting` or its leading words (`--samples`, `samples_per_contour`)."""
    name = option.lstrip("-").replace("-", "_")
    return setting == name or setting.startswith(name + "_")


@pytest.mark.parametrize("command", ["contours", "vibrato"])
def test_contour_subcommands_have_no_option_naming_a_manifest_setting(command):
    """`patterns contours|vibrato` take every setting from --manifest: an option that names a
    setting would shadow the value the command has already loaded."""
    assert _shadows("--min-support", "min_support") and _shadows("--samples", "samples_per_contour")
    settings = set(report.DEFAULT_SETTINGS).union(*report._NESTED_KEYS.values())
    parser = _subparser(build_parser(), "patterns", command)
    options = [o for action in parser._actions for o in action.option_strings]
    assert "--manifest" in options
    assert [(o, s) for o in options for s in sorted(settings) if _shadows(o, s)] == []


class TestLoadStages:
    """`run` and `patterns contours` load through one guard that names the stage and daemok."""

    PATTERNS = ("patterns", "contours", "--pattern", "A4:2/1 C5:2/1", "--manifest")

    @pytest.mark.parametrize(
        "probe, run_stage, patterns_stage",
        [
            ("divisions", "score", "score"),
            ("encoding", "score", "score"),
            ("header_only", "beats", "beats"),
            ("directory", "inputs", "f0"),
        ],
    )
    def test_probe_is_one_pipeline_error(
        self, capsys, fixtures_dir, tmp_path, probe, run_stage, patterns_stage
    ):
        manifest = _fixture_manifest(fixtures_dir)
        entry = manifest["daemok"][0]
        if probe in ("divisions", "encoding"):
            score = (fixtures_dir / "joongmori_sample.musicxml").read_text()
            if probe == "divisions":
                score = score.replace("<divisions>2<", "<divisions>x<")
            else:
                score = score.replace('encoding="UTF-8"', 'encoding="U3F-8"', 1)
            (tmp_path / "x.musicxml").write_text(score)
            entry["score"] = str(tmp_path / "x.musicxml")
        elif probe == "header_only":
            (tmp_path / "x.beats.csv").write_text("measure,beat,time\n")
            entry["beats"] = str(tmp_path / "x.beats.csv")
        else:
            entry["f0_csv"] = str(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        for argv, stage in (
            (("run", "--out-dir", str(tmp_path / "out"), "--manifest"), run_stage),
            (self.PATTERNS, patterns_stage),
        ):
            code, out, err = run_cli(capsys, *argv, str(path))
            assert code == 1 and out == ""
            (line,) = err.splitlines()
            error = json.loads(line)["error"]
            assert error["type"] == "PipelineError"
            assert f"stage '{stage}' failed for daemok 'sample-daemok'" in error["message"]
        assert not (tmp_path / "out").exists()


_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -0.5, 1e7])


def _number(lo: float, hi: float):
    """A JSON number: either within [lo, hi] or one of the special values."""
    return st.floats(lo, hi) | _SPECIAL


_SETTING_VALUES = {
    "reference_hz": _number(400.0, 480.0),
    "tuning_offset_cents": _number(-2400.0, 2400.0),
    "filter": st.fixed_dictionaries(
        {},
        optional={
            "min_confidence": _number(0.0, 1.0),
            "min_hz": _number(0.0, 500.0),
            "max_hz": _number(500.0, 2000.0),
        },
    ),
    "beats_per_measure": st.integers(-1, 16) | _SPECIAL,
    "min_support": st.integers(-1, 4),
    "samples_per_contour": st.integers(-1, 400),
    "n_values": st.lists(st.integers(-1, 16), max_size=4),
    "skip_rests": st.booleans(),
    "merge_ties": st.booleans(),
}


def _run_quietly(*argv) -> tuple[int, str, str]:
    """`main(argv)` in-process: exit code, stdout and stderr, with re-emitted warnings dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


# Up to four byte edits: (position, operation, byte).
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 2**16),
        st.sampled_from(("replace", "insert", "delete")),
        st.sampled_from(b"0123456789.,-e \n</>") | st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for at, op, byte in edits:
        at %= len(data) + (op == "insert")
        if op == "insert":
            data.insert(at, byte)
        elif op == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


def _assert_runs_reproducibly_or_fails_cleanly(tmp: Path):
    """`run` on `tmp/m.json` into `tmp/out/a`, whose parent does not exist yet: either two runs
    write the same files, or the run is one JSON line and leaves `tmp` as it found it."""
    before = sorted(tmp.iterdir())
    argv = ("run", "--manifest", str(tmp / "m.json"), "--out-dir")
    code, _, err = _run_quietly(*argv, str(tmp / "out" / "a"))
    if code == 0:
        assert _run_quietly(*argv, str(tmp / "out" / "b"))[0] == 0
        assert _files(tmp / "out" / "a") == _files(tmp / "out" / "b")
        assert not list((tmp / "out" / "a").glob(".staging-*"))
    else:
        assert code == 1
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PipelineError"
        assert sorted(tmp.iterdir()) == before  # no out dir, parent or staging dir


class TestRunContract:
    """A mutated fixture manifest either runs reproducibly or fails as one JSON line."""

    @settings(max_examples=100, deadline=None)
    @given(
        overrides=st.fixed_dictionaries({}, optional=_SETTING_VALUES),
        broken=st.dictionaries(
            st.sampled_from(("score", "beats", "f0_csv")),
            st.sampled_from(("missing", "directory", "binary")),
            max_size=1,
        ),
    )
    def test_run_succeeds_reproducibly_or_fails_cleanly(self, fixtures_dir, overrides, broken):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "directory").mkdir()
            (tmp / "binary").write_bytes(bytes(range(256)) * 8)
            manifest = _fixture_manifest(fixtures_dir, **overrides)
            for key, kind in broken.items():
                manifest["daemok"][0][key] = str(tmp / kind)
            (tmp / "m.json").write_text(json.dumps(manifest))

            _assert_runs_reproducibly_or_fails_cleanly(tmp)

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(("score", "beats", "f0_csv")), edits=_EDITS)
    def test_mutated_input_runs_reproducibly_or_fails_cleanly(self, fixtures_dir, key, edits):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            manifest = _fixture_manifest(fixtures_dir)
            entry = manifest["daemok"][0]
            (tmp / "mutated").write_bytes(_mutate(Path(entry[key]).read_bytes(), edits))
            entry[key] = str(tmp / "mutated")
            (tmp / "m.json").write_text(json.dumps(manifest))

            _assert_runs_reproducibly_or_fails_cleanly(tmp)


# Subcommand -> (argv, with {score}, {beats}, {f0_csv} and {manifest} filled in; the inputs it reads).
_SUBCOMMANDS = {
    "patterns contours": (("patterns", "contours", "--manifest", "{manifest}",
                           "--pattern", "A4:2/1 C5:2/1"), ("score", "beats", "f0_csv")),
    "patterns vibrato": (("patterns", "vibrato", "--manifest", "{manifest}",
                          "--pattern", "A4:2/1 C5:2/1"), ("score", "beats", "f0_csv")),
    "beats validate": (("beats", "validate", "--in", "{beats}"), ("beats",)),
    "f0 filter": (("f0", "filter", "--in", "{f0_csv}"), ("f0_csv",)),
    "histogram": (("histogram", "--score", "{score}", "--f0", "{f0_csv}", "--mode", "ujo"),
                  ("score", "f0_csv")),
}


class TestSubcommandContract:
    """A mutated fixture input under a subcommand either gives the same output on a rerun or
    fails as exactly one JSON line."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(sorted(_SUBCOMMANDS)).flatmap(
            lambda name: st.tuples(st.just(name), st.sampled_from(_SUBCOMMANDS[name][1]))
        ),
        edits=_EDITS,
    )
    def test_mutated_input_reruns_identically_or_fails_cleanly(self, fixtures_dir, case, edits):
        name, key = case
        argv, _ = _SUBCOMMANDS[name]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            manifest = _fixture_manifest(fixtures_dir)
            entry = manifest["daemok"][0]
            (tmp / "mutated").write_bytes(_mutate(Path(entry[key]).read_bytes(), edits))
            entry[key] = str(tmp / "mutated")
            (tmp / "m.json").write_text(json.dumps(manifest))
            paths = {**entry, "manifest": str(tmp / "m.json")}

            argv = [arg.format(**paths) for arg in argv]
            code, out, err = _run_quietly(*argv)
            if code == 0:
                assert _run_quietly(*argv) == (0, out, err)
            else:
                assert code == 1 and out == ""
                (line,) = err.splitlines()
                assert set(json.loads(line)["error"]) <= {"type", "message", "warnings"}


def test_importing_the_cli_loads_no_network_modules():
    """The CLI's imports stay off `urllib.request` and what it loads (`xml.sax.saxutils` would
    load all three), which would cost every command their import time."""
    code = "import sys, sorimir.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    env = {"PYTHONPATH": str(Path(sorimir.__file__).parents[1]), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
