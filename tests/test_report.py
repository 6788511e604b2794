import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sorimir.errors import (
    IncompatibleContourError,
    IncompatibleHistogramError,
    PipelineError,
)
from sorimir.histogram import BIN_MIDI, BIN_PITCH_CLASS, PitchHistogram
from sorimir.patterns import Contour, NGramPattern
from sorimir.report import (
    contours_csv,
    load_manifest,
    pattern_index_record,
    render_contour_overlay,
    render_histogram_figure,
    run_pipeline,
)


def contour(values, daemok="d", onset=0):
    return Contour(np.asarray(values, dtype=float), daemok, Fraction(onset), Fraction(2))


def single_bin(kind=BIN_MIDI, b=69, mass=10.0, unit="frames"):
    return PitchHistogram(kind, {b: mass}, unit)


class TestHistogramFigure:
    def test_single_bin_has_exactly_two_data_rects(self):
        svg = render_histogram_figure(single_bin(), single_bin(unit="beats"))
        assert svg.count("<rect") == 2
        ET.fromstring(svg)

    def test_empty_histograms_render_no_data(self):
        svg = render_histogram_figure(
            PitchHistogram(BIN_MIDI, {}, "frames"), PitchHistogram(BIN_MIDI, {}, "beats")
        )
        assert "no data" in svg
        assert svg.count("<rect") == 0
        ET.fromstring(svg)

    def test_bin_kind_mismatch(self):
        with pytest.raises(IncompatibleHistogramError):
            render_histogram_figure(single_bin(BIN_MIDI), single_bin(BIN_PITCH_CLASS, b=9))

    def test_deterministic_bytes(self):
        a = PitchHistogram(BIN_MIDI, {69: 10.0, 71: 4.0, 74: 2.5}, "frames")
        b = PitchHistogram(BIN_MIDI, {69: 3.0, 74: 6.0}, "beats")
        assert render_histogram_figure(a, b) == render_histogram_figure(a, b)

    def test_single_root_svg_element(self):
        svg = render_histogram_figure(single_bin(), single_bin(unit="beats"))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_pitch_axis_labeled_with_names(self):
        svg = render_histogram_figure(single_bin(b=74), single_bin(b=74, unit="beats"))
        assert "D5" in svg


class TestContourOverlay:
    def test_one_flat_contour_one_polyline(self):
        svg = render_contour_overlay([contour([0.0] * 50)])
        assert svg.count("<polyline") == 1
        ET.fromstring(svg)

    def test_gap_splits_polyline(self):
        values = [0.0] * 20 + [float("nan")] * 10 + [5.0] * 20
        svg = render_contour_overlay([contour(values)])
        assert svg.count("<polyline") == 2

    def test_five_contours_five_legend_entries(self):
        contours = [contour([float(i)] * 30, daemok=f"d{i}", onset=i) for i in range(5)]
        svg = render_contour_overlay(contours)
        assert svg.count("<polyline") == 5
        assert svg.count("<circle") == 5
        for c in contours:
            assert c.label in svg

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(IncompatibleContourError):
            render_contour_overlay([contour([0.0] * 10), contour([0.0] * 20)])

    def test_all_missing_contours_render_no_data(self):
        svg = render_contour_overlay([contour([float("nan")] * 10)])
        assert "no data" in svg
        assert svg.count("<polyline") == 0

    def test_deterministic_bytes(self):
        cs = [contour(np.sin(np.linspace(0, 3, 40)) * 30)]
        assert render_contour_overlay(cs) == render_contour_overlay(cs)


class TestContoursCsv:
    def test_layout(self):
        pattern = NGramPattern(("A4:1/1", "C5:1/1"))
        text = contours_csv(pattern, [contour([0.0, float("nan"), 3.5])])
        lines = text.strip().split("\n")
        assert lines[0] == "pattern,daemok,onset_beats,sample_index,normalized_position,cents"
        assert lines[1].startswith("A4:1/1 C5:1/1,d,0/1,0,0.000000,0.000000")
        assert lines[2].endswith(",")  # NaN -> empty cell
        assert lines[3].endswith("3.500000")


class TestManifest:
    def test_load_fixture_manifest(self, manifest_path):
        entries, settings = load_manifest(manifest_path)
        assert entries[0]["id"] == "sample-daemok"
        assert settings["min_support"] == 2
        assert settings["filter"]["min_hz"] == 350.0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PipelineError, match="missing file"):
            load_manifest(tmp_path / "nope.json")

    def test_entry_validation(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"daemok": [{"id": "x", "score": "s"}]}))
        with pytest.raises(PipelineError, match="beats"):
            load_manifest(bad)
        bad.write_text(json.dumps({"daemok": []}))
        with pytest.raises(PipelineError, match="non-empty"):
            load_manifest(bad)


class TestPipeline:
    def test_fixture_run(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        bundle = run_pipeline(manifest_path, out_dir=out)
        assert bundle.daemok_ids == ("sample-daemok",)
        record = bundle.histograms["sample-daemok"]
        assert record["f0_histogram"]["masses"]
        assert record["score_histogram"]["masses"]
        assert record["affinities"]["ujo"]["score"] is not None
        assert len(bundle.pattern_index) >= 1
        contours = bundle.contour_sets["A4:2/1 C5:2/1"]
        assert len(contours) == 2

        names = {Path(p).name for p in bundle.output_files}
        assert "sample-daemok.histogram.json" in names
        assert "sample-daemok.histogram.svg" in names
        assert "patterns.json" in names
        assert "pattern-00.contours.csv" in names
        assert "pattern-00.overlay.svg" in names
        assert "pattern-00.vibrato.json" in names
        for p in bundle.output_files:
            assert Path(p).is_file()
        # every non-sidecar output has a provenance sidecar
        sidecars = {n for n in names if n.endswith(".prov.json")}
        for n in names - sidecars:
            assert f"{n}.prov.json" in sidecars

    def test_rerun_is_byte_identical(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        first = run_pipeline(manifest_path, out_dir=out)
        snapshot = {p: Path(p).read_bytes() for p in first.output_files}
        second = run_pipeline(manifest_path, out_dir=out)
        assert set(second.output_files) == set(snapshot)
        for p, data in snapshot.items():
            assert Path(p).read_bytes() == data

    def test_all_svg_outputs_are_well_formed(self, manifest_path, tmp_path):
        bundle = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        for p in bundle.output_files:
            if p.endswith(".svg"):
                root = ET.fromstring(Path(p).read_text())
                assert root.tag.endswith("svg")

    def test_vibrato_output_reflects_fixture_generator(self, manifest_path, tmp_path):
        bundle = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        vib_path = next(p for p in bundle.output_files if p.endswith("vibrato.json"))
        record = json.loads(Path(vib_path).read_text())
        rates = [o["metrics"]["rate_hz"] for o in record["occurrences"] if o["metrics"]]
        assert rates and all(abs(r - 5.5) < 0.5 for r in rates)

    def test_missing_input_aborts_without_outputs(self, manifest_path, tmp_path, fixtures_dir):
        out = tmp_path / "out"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["daemok"][0]
        entry["score"] = str(fixtures_dir / entry["score"])
        entry["beats"] = str(fixtures_dir / entry["beats"])
        entry["f0_csv"] = "does-not-exist.csv"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        with pytest.raises(PipelineError, match="does-not-exist.csv"):
            run_pipeline(broken, out_dir=out)
        leftovers = [p for p in out.iterdir()] if out.exists() else []
        assert leftovers == []

    def test_stage_error_names_stage_and_daemok(self, manifest_path, tmp_path, fixtures_dir):
        manifest = json.loads(manifest_path.read_text())
        manifest["daemok"][0]["beats"] = "joongmori_sample.musicxml"  # wrong format
        broken = tmp_path / "broken.json"
        # keep relative paths resolvable against the fixtures dir
        for key in ("score", "f0_csv", "beats"):
            manifest["daemok"][0][key] = str(fixtures_dir / manifest["daemok"][0][key])
        broken.write_text(json.dumps(manifest))
        with pytest.raises(PipelineError) as err:
            run_pipeline(broken, out_dir=tmp_path / "out")
        assert err.value.stage == "beats"
        assert err.value.daemok_id == "sample-daemok"

    def test_pattern_index_record_round_trips_json(self, manifest_path, tmp_path):
        bundle = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        record = pattern_index_record(bundle.pattern_index)
        assert json.loads(json.dumps(record)) == record
        top = record["patterns"][0]
        assert top["support"] == len(top["occurrences"])

    def test_changed_input_changes_recorded_hash(self, manifest_path, tmp_path, fixtures_dir):
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["daemok"][0]
        for key in ("score", "beats", "f0_csv"):
            entry[key] = str(fixtures_dir / entry[key])
        local = tmp_path / "m.json"
        local.write_text(json.dumps(manifest))
        before = run_pipeline(local, out_dir=tmp_path / "a")

        tweaked_csv = tmp_path / "tweaked.f0.csv"
        text = (fixtures_dir / "sample.f0.csv").read_text()
        tweaked_csv.write_text(text.replace("0.92", "0.91", 1))
        entry["f0_csv"] = str(tweaked_csv)
        local.write_text(json.dumps(manifest))
        after = run_pipeline(local, out_dir=tmp_path / "b")

        key = "sample-daemok:f0_csv"
        assert before.provenance["inputs"][key] != after.provenance["inputs"][key]
        assert (
            before.provenance["inputs"]["sample-daemok:score"]
            == after.provenance["inputs"]["sample-daemok:score"]
        )

    def test_pipeline_with_audio_entry(self, tmp_path):
        import numpy as np
        from scipy.io import wavfile

        sr = 44100
        t = np.arange(2 * sr) / sr
        wavfile.write(
            tmp_path / "tone.wav",
            sr,
            (0.8 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(np.int16),
        )
        score = """<?xml version="1.0"?>
<score-partwise><part-list/><part id="P1"><measure number="1">
  <attributes><divisions>1</divisions><time><beats>12</beats><beat-type>4</beat-type></time></attributes>
  <note><pitch><step>A</step><octave>4</octave></pitch><duration>12</duration></note>
</measure></part></score-partwise>"""
        (tmp_path / "one.musicxml").write_text(score)
        beats = ["measure,beat,time"] + [f"0,{b},{0.1 + 0.15 * b:.3f}" for b in range(12)]
        (tmp_path / "one.beats.csv").write_text("\n".join(beats) + "\n")
        manifest = {
            "daemok": [
                {"id": "one", "score": "one.musicxml", "audio": "tone.wav", "beats": "one.beats.csv"}
            ],
            "settings": {
                "yin": {"search_min_hz": 300.0, "search_max_hz": 1100.0},
                "min_support": 1,
                "n_values": [2],
                "contour_patterns": [],
            },
        }
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        bundle = run_pipeline(tmp_path / "m.json", out_dir=tmp_path / "out")
        masses = bundle.histograms["one"]["f0_histogram"]["masses"]
        assert set(masses) == {"69"}


def test_names_wrapped_by_the_pipeline_benchmark_exist():
    """pipebench/child.py wraps these module globals to time each stage."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "pipebench" / "child.py"
    spec = importlib.util.spec_from_file_location("pipebench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    for module_name, attr, _, _ in child.TRACED:
        module = importlib.import_module(f"sorimir.{module_name}")
        assert callable(getattr(module, attr)), f"sorimir.{module_name}.{attr}"
