import csv
import hashlib
import io
import json
import os
import random
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET
from unittest import mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sorimir
from sorimir import _kernels, report
from sorimir.errors import (
    IncompatibleContourError,
    IncompatibleHistogramError,
    PipelineError,
)
from sorimir.histogram import BIN_MIDI, BIN_PITCH_CLASS, PitchHistogram
from sorimir.patterns import Contour, NGramPattern, mine_ngrams, parse_token
from sorimir.report import (
    contours_csv,
    dump_json,
    load_manifest,
    pattern_index_record,
    render_contour_overlay,
    render_histogram_figure,
    run_pipeline,
    write_json,
)


def contour(values, daemok="d", onset=0):
    return Contour(np.asarray(values, dtype=float), daemok, Fraction(onset), Fraction(2))


def single_bin(kind=BIN_MIDI, b=69, mass=10.0, unit="frames"):
    return PitchHistogram(kind, {b: mass}, unit)


def read_contours(path) -> dict:
    """A `pattern-NN.contours.csv` as {(daemok, onset_beats): cents array, NaN where unvoiced}."""
    values = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cents = float(row["cents"] or "nan")
            values.setdefault((row["daemok"], row["onset_beats"]), []).append(cents)
    return {key: np.array(v) for key, v in values.items()}


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

    def test_twenty_four_contours_name_every_occurrence(self):
        contours = [contour([float(i)] * 30, daemok=f"d{i}", onset=i) for i in range(24)]
        assert render_contour_overlay(contours) == _overlay_oracle(contours)

    def test_a_long_legend_stays_above_the_x_axis(self):
        contours = [contour([float(i % 7)] * 30, daemok=f"d{i}", onset=i) for i in range(121)]
        root = ET.fromstring(render_contour_overlay(contours))
        ns = "{http://www.w3.org/2000/svg}"
        axis = root.find(f"{ns}line")  # the x axis comes first
        y0 = float(axis.get("y1"))
        assert axis.get("y2") == axis.get("y1") and y0 > 300
        circles = root.findall(f"{ns}circle")
        legend = [t for t in root.findall(f"{ns}text") if t.get("text-anchor") == "start"]
        assert len(circles) == 23 and len(legend) == 24
        assert [t.text for t in legend] == [c.label for c in contours[:23]] + ["+98 more"]
        assert all(float(c.get("cy")) + float(c.get("r")) < y0 for c in circles)
        assert all(float(t.get("y")) < y0 for t in legend)
        assert len(root.findall(f"{ns}polyline")) == 121


class TestContoursCsv:
    def test_layout(self):
        pattern = NGramPattern(("A4:1/1", "C5:1/1"))
        text = contours_csv(pattern, [contour([0.0, float("nan"), 3.5])])
        lines = text.strip().split("\n")
        assert lines[0] == "pattern,daemok,onset_beats,sample_index,normalized_position,cents"
        assert lines[1].startswith("A4:1/1 C5:1/1,d,0/1,0,0.000000,0.000000")
        assert lines[2].endswith(",")  # NaN -> empty cell
        assert lines[3].endswith("3.500000")

    def test_mismatched_lengths_rejected(self):
        """Sample k sits at k / (n - 1) of one n shared with the overlay, so contours of 3 and
        5 samples are refused instead of placing the longer one's samples past position 1."""
        with pytest.raises(IncompatibleContourError, match=r"mismatched lengths \[3, 5\]"):
            contours_csv(NGramPattern(("A4:1/1", "C5:1/1")), [contour([0.0] * 3), contour([0.0] * 5)])


def _fmt_scalar(x: float) -> str:
    if abs(x) < 0.005:
        x = 0.0
    return f"{x:.2f}"


def _overlay_oracle(contours) -> str:
    """The per-sample overlay renderer `render_contour_overlay` replaced."""
    svg = report._Svg(report._WIDTH, report._HEIGHT)
    plot_w = report._WIDTH - report._MARGIN_L - report._MARGIN_R
    plot_h = report._HEIGHT - report._MARGIN_T - report._MARGIN_B
    x0, y0 = report._MARGIN_L, report._MARGIN_T + plot_h
    svg.line(x0, y0, x0 + plot_w, y0)
    svg.line(x0, report._MARGIN_T, x0, y0)
    svg.text(x0 + plot_w / 2, report._HEIGHT - 12, "normalized beat position", size=11)
    svg.text(16, report._MARGIN_T + plot_h / 2, "cents", size=11, rotate=-90.0)
    finite = [v for c in contours for v in c.values[np.isfinite(c.values)]]
    if not contours or not finite:
        svg.text(x0 + plot_w / 2, report._MARGIN_T + plot_h / 2, "no data", size=14)
        return svg.document()
    lo, hi = min(finite), max(finite)
    if hi - lo < 1.0:
        mid = (hi + lo) / 2.0
        lo, hi = mid - 0.5, mid + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def to_xy(k, v, n):
        return x0 + plot_w * (k / (n - 1) if n > 1 else 0.0), y0 - plot_h * (v - lo) / (hi - lo)

    def polyline(run, color):
        pts = " ".join(f"{_fmt_scalar(x)},{_fmt_scalar(y)}" for x, y in run)
        svg.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.50"/>')

    for ci, c in enumerate(contours):
        color = report._PALETTE[ci % len(report._PALETTE)]
        n = c.values.shape[0]
        run = []
        for k in range(n):
            v = c.values[k]
            if np.isfinite(v):
                run.append(to_xy(k, float(v), n))
            elif run:
                if len(run) > 1:
                    polyline(run, color)
                run = []
        if len(run) > 1:
            polyline(run, color)
        ly = report._MARGIN_T + 2 + 14 * ci
        svg.circle(x0 + plot_w - 150, ly, 4, color)
        svg.text(x0 + plot_w - 142, ly + 4, c.label, size=10, anchor="start")
    for frac in (0.0, 0.5, 1.0):
        gx = x0 + plot_w * frac
        svg.line(gx, y0, gx, y0 + 4)
        svg.text(gx, y0 + 16, f"{frac:.1f}", size=10)
    svg.text(x0 - 6, y0 + 4, f"{lo:.0f}", size=10, anchor="end")
    svg.text(x0 - 6, report._MARGIN_T + 8, f"{hi:.0f}", size=10, anchor="end")
    return svg.document()


def _contours_csv_oracle(pattern, contours) -> str:
    """The per-sample contour CSV writer `contours_csv` replaced."""
    lines = ["pattern,daemok,onset_beats,sample_index,normalized_position,cents"]
    n = contours[0].values.shape[0] if contours else 0
    for c in contours:
        onset = report.fraction_str(c.onset_beats)
        for k in range(c.values.shape[0]):
            pos = k / (n - 1) if n > 1 else 0.0
            v = c.values[k]
            cell = "" if not np.isfinite(v) else f"{v:.6f}"
            lines.append(f"{pattern.text},{c.daemok_id},{onset},{k},{pos:.6f},{cell}")
    return "\n".join(lines) + "\n"


_NEAR_ZERO = st.sampled_from([0.0, -0.0, 0.004999, -0.004999, 0.005, -0.005, 1e-9, -1e-9, 0.0049999999999999])
_CENT = st.one_of(
    st.floats(-2400.0, 2400.0), _NEAR_ZERO, st.just(float("nan")), st.sampled_from([float("inf"), -float("inf")])
)


@st.composite
def contour_sets(draw):
    """Same-length contours with NaN gaps, single-point runs, all-NaN members, n = 1 or 2."""
    n = draw(st.sampled_from([1, 2, 3, 7, 40]))
    out = []
    for i in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["mixed", "nan", "flat", "near_zero"]))
        if kind == "nan":
            values = [float("nan")] * n
        elif kind == "flat":
            values = [draw(st.floats(-50.0, 50.0))] * n
        elif kind == "near_zero":
            values = draw(st.lists(st.one_of(_NEAR_ZERO, st.just(float("nan"))), min_size=n, max_size=n))
        else:
            values = draw(st.lists(_CENT, min_size=n, max_size=n))
        out.append(contour(values, daemok=f"d{i}", onset=Fraction(draw(st.integers(0, 160)), 4)))
    return out


class TestRendersMatchPerSampleWriters:
    @given(contour_sets())
    @settings(max_examples=100, deadline=None)
    def test_overlay_and_contours_csv_bytes(self, contours):
        assert render_contour_overlay(contours) == _overlay_oracle(contours)
        pattern = NGramPattern(("A4:1/1", "C5:1/1"))
        assert contours_csv(pattern, contours) == _contours_csv_oracle(pattern, contours)

    @given(st.lists(st.one_of(_NEAR_ZERO, st.floats(-1e6, 1e6)), max_size=30))
    @settings(max_examples=100)
    def test_array_fmt_matches_scalar_fmt(self, values):
        assert report._fmt(np.array(values, dtype=float)) == [_fmt_scalar(v) for v in values]
        assert [report._fmt(v) for v in values] == [_fmt_scalar(v) for v in values]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.sampled_from(["", "daemok \u00e9 \u3131\u314f", '"\\/\n\t\x00\x1f\x7f', "\ud800"])
)
_JSON_KEYS = st.text(max_size=6) | st.sampled_from(["", "\u3131", '"\\', "\n"])


def _json_containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(_JSON_KEYS, children, max_size=4)


_JSON_VALUES = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=24)
# Four containers deep at least: dict > list > dict > list.
_DEEP_JSON = st.builds(lambda a, b: {"a": [a, {"b": [b]}]}, _JSON_VALUES, _JSON_VALUES)


def _members(value) -> list:
    if isinstance(value, dict):
        return list(value.values())
    return value if isinstance(value, list) else []


def _is_leaf(value) -> bool:
    return not any(isinstance(v, (dict, list)) for v in _members(value))


def _expected_lines(value) -> int:
    """One line for a container holding no container (or a scalar), else brackets plus members."""
    return 1 if _is_leaf(value) else 2 + sum(map(_expected_lines, _members(value)))


def _canonical(text: str) -> str:
    """The parsed value re-encoded compactly: equality that also holds for NaN."""
    return json.dumps(json.loads(text), sort_keys=True)


class TestDumpJson:
    """`dump_json` writes leaf containers on one line and everything else as `indent=2`."""

    def test_layout_example(self):
        assert dump_json({"b": [{"x": 1, "a": [1, 2]}], "a": {}, "c": [1, "two"]}) == (
            '{\n  "a": {},\n  "b": [\n    {\n      "a": [1, 2],\n      "x": 1\n    }\n  ],\n'
            '  "c": [1, "two"]\n}\n'
        )

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES | _DEEP_JSON)
    def test_same_value_as_indented_stdlib_json(self, value):
        text = dump_json(value)
        assert _canonical(text) == _canonical(json.dumps(value, sort_keys=True, indent=2))
        assert text.endswith("\n") and text.count("\n") == _expected_lines(value)
        for depth_line in text.splitlines():
            body = depth_line.lstrip(" ").removesuffix(",")
            if body in ("}", "]") or body.endswith(("{", "[")):
                continue  # a bracket of a container that holds a container
            try:
                leaf = json.loads(body)
            except json.JSONDecodeError:  # a `"key": value` member
                (leaf,) = json.loads("{" + body + "}").values()
            assert _is_leaf(leaf)
            assert body.endswith(json.dumps(leaf, sort_keys=True, separators=(", ", ": ")))

    @pytest.mark.parametrize(
        "value",
        [{1: "a"}, {"a": [{2: 3}]}, {None: 1}, {True: []}, {"a": {1.5: {"b": 1}}}, [{("t",): 1}]],
    )
    def test_non_str_key_raises(self, value):
        with pytest.raises(TypeError, match="keys must be str"):
            dump_json(value)

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES | _DEEP_JSON)
    def test_write_sink_gives_the_bytes_of_dump_json(self, value):
        buffer = io.BytesIO()
        with io.TextIOWrapper(buffer, newline="\n", write_through=True) as fh:
            write_json(value, fh.write)
            assert buffer.getvalue() == dump_json(value).encode()

    @settings(max_examples=100, deadline=None)
    @given(value=_JSON_SCALARS | _json_containers(_JSON_SCALARS))
    def test_pure_python_leaf_encoder_gives_the_same_bytes(self, value):
        with mock.patch.object(json.encoder, "c_make_encoder", None):
            fallback = report._leaf_encoder()
        assert "".join(fallback(value, 0)) == "".join(report._encode_leaf(value, 0))


def _index_record_oracle(index) -> dict:
    """The `patterns.json` record as a dict, built row by row."""
    patterns = []
    for p in index.patterns:
        occurrences = index.occurrences[p]
        per_daemok = {}
        for o in occurrences:
            per_daemok[o.daemok_id] = per_daemok.get(o.daemok_id, 0) + 1
        span = occurrences[0].span_beats
        if index.skip_rests:
            span = sum(parse_token(t)[1] for t in p.tokens)
        patterns.append({
            "tokens": list(p.tokens),
            "span_beats": report.fraction_str(span),
            "support": len(occurrences),
            "per_daemok": per_daemok,
            "occurrences": [
                {"daemok": o.daemok_id, "start_event_index": o.start_event_index,
                 "onset_beats": report.fraction_str(o.onset_beats),
                 "span_beats": report.fraction_str(o.span_beats)}
                for o in occurrences
            ],
        })
    return {"n_values": list(index.n_values), "min_support": index.min_support, "patterns": patterns}


def _streamed(index) -> list[str]:
    chunks = []
    pattern_index_record(index, chunks.append)
    return chunks


_TOKENS = ["A4:1/1", "C5:1/2", "D5:3/8", "E4:1/3", "R:1/1", "R:5/4", "G4:2/1"]
_DAEMOK_IDS = st.text(st.sampled_from('ab"\\\u00e9\ud55c/ '), min_size=1, max_size=4)


class TestPatternIndexWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        sequences=st.dictionaries(
            _DAEMOK_IDS, st.lists(st.sampled_from(_TOKENS), max_size=14), min_size=1, max_size=4
        ),
        n_values=st.sets(st.sampled_from([2, 3, 4]), min_size=1),
        min_support=st.integers(1, 3),
        skip_rests=st.booleans(),
    )
    def test_streamed_text_is_dump_json_of_the_record(self, sequences, n_values, min_support,
                                                      skip_rests):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "no sequence is long enough"
            index = mine_ngrams(sequences, tuple(n_values), min_support, skip_rests=skip_rests)
        chunks = _streamed(index)
        text = "".join(chunks)
        assert len(chunks) == len(index.patterns) + 2  # head, one chunk per pattern, tail
        assert dump_json(json.loads(text)) == text
        assert json.loads(text) == _index_record_oracle(index)
        assert text == dump_json(_index_record_oracle(index))

    def test_no_surviving_pattern_writes_an_empty_list(self):
        index = mine_ngrams({"d": ["A4:1/1", "C5:1/2"]}, n_values=(2,), min_support=2)
        text = "".join(_streamed(index))
        assert text == '{\n  "min_support": 2,\n  "n_values": [2],\n  "patterns": []\n}\n'
        assert text == dump_json(_index_record_oracle(index))

    def test_streaming_holds_far_less_than_it_writes(self):
        rng = random.Random(7)
        tokens = [f"{step}{octave}:{d}" for step in "ACDEG" for octave in (4, 5)
                  for d in ("1/2", "1/1", "3/2")]
        sequences = {f"daemok-{k:02d}": [rng.choice(tokens) for _ in range(150)] for k in range(40)}
        index = mine_ngrams(sequences, (2, 3, 4), 2)
        written = 0

        def sink(chunk):
            nonlocal written
            written += len(chunk)

        tracemalloc.start()
        try:
            pattern_index_record(index, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written > 10**6
        assert peak < written / 4


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
    def test_each_placed_contour_is_resampled_once(self, manifest_path, tmp_path, monkeypatch):
        """The contour CSV and the overlay share one resampling of each contour."""
        calls, resample = [], sorimir.patterns._resample_to_normalized
        monkeypatch.setattr(sorimir.patterns, "_resample_to_normalized",
                            lambda *args: calls.append(None) or resample(*args))
        summary = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        assert len(calls) == sum(summary["contour_sets"].values()) == 2

    def test_fixture_run(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        summary = run_pipeline(manifest_path, out_dir=out)
        assert summary["daemok"] == ["sample-daemok"]
        record = json.loads((out / "sample-daemok.histogram.json").read_text())
        assert record["f0_histogram"]["masses"]
        assert record["score_histogram"]["masses"]
        assert record["affinities"]["ujo"]["score"] is not None
        patterns = json.loads((out / "patterns.json").read_text())["patterns"]
        assert summary["patterns"] == len(patterns) >= 1
        assert summary["contour_sets"] == {"A4:2/1 C5:2/1": 2}
        assert len(read_contours(out / "pattern-00.contours.csv")) == 2

        names = {Path(p).name for p in summary["outputs"]}
        assert "sample-daemok.histogram.json" in names
        assert "sample-daemok.histogram.svg" in names
        assert "patterns.json" in names
        assert "pattern-00.contours.csv" in names
        assert "pattern-00.overlay.svg" in names
        assert "pattern-00.vibrato.json" in names
        for p in summary["outputs"]:
            assert Path(p).is_file()
        # every non-sidecar output has a provenance sidecar
        sidecars = {n for n in names if n.endswith(".prov.json")}
        for n in names - sidecars:
            assert f"{n}.prov.json" in sidecars

    def test_rerun_is_byte_identical(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        first = run_pipeline(manifest_path, out_dir=out)
        snapshot = {p: Path(p).read_bytes() for p in first["outputs"]}
        second = run_pipeline(manifest_path, out_dir=out)
        assert set(second["outputs"]) == set(snapshot)
        for p, data in snapshot.items():
            assert Path(p).read_bytes() == data

    def test_outputs_list_only_what_this_run_wrote(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "pattern-05.contours.csv").write_text("stale\n")
        summary = run_pipeline(manifest_path, out_dir=out)
        names = [Path(p).name for p in summary["outputs"]]
        assert names == sorted(
            f"{artifact}{sidecar}" for sidecar in ("", ".prov.json") for artifact in (
                "sample-daemok.histogram.json", "sample-daemok.histogram.svg", "patterns.json",
                "pattern-00.contours.csv", "pattern-00.overlay.svg", "pattern-00.vibrato.json",
            )
        )
        assert summary["outputs"] == [str(out / name) for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "pattern-05.contours.csv"])
        assert (out / "pattern-05.contours.csv").read_text() == "stale\n"

    def test_all_svg_outputs_are_well_formed(self, manifest_path, tmp_path):
        summary = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        for p in summary["outputs"]:
            if p.endswith(".svg"):
                root = ET.fromstring(Path(p).read_text())
                assert root.tag.endswith("svg")

    def test_vibrato_output_reflects_fixture_generator(self, manifest_path, tmp_path):
        summary = run_pipeline(manifest_path, out_dir=tmp_path / "out")
        vib_path = next(p for p in summary["outputs"] if p.endswith("vibrato.json"))
        record = json.loads(Path(vib_path).read_text())
        rates = [o["metrics"]["rate_hz"] for o in record["occurrences"] if o["metrics"]]
        assert rates and all(abs(r - 5.5) < 0.5 for r in rates)

    def test_missing_input_aborts_without_outputs(self, manifest_path, tmp_path, fixtures_dir):
        out = tmp_path / "new" / "out"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["daemok"][0]
        entry["score"] = str(fixtures_dir / entry["score"])
        entry["beats"] = str(fixtures_dir / entry["beats"])
        entry["f0_csv"] = "does-not-exist.csv"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        with pytest.raises(PipelineError, match="does-not-exist.csv"):
            run_pipeline(broken, out_dir=out)
        assert list(tmp_path.iterdir()) == [broken]  # no out dir, parent or staging dir

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_after_staging_leaves_the_out_dir_as_it_was(
        self, manifest_path, tmp_path, monkeypatch, existing
    ):
        """A stage that fails once artifacts are being written removes the staging directory,
        and the out dir and its parents if the run made them."""
        out = tmp_path / "a" / "b" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "kept.txt").write_text("x")
        staged = []

        def failing_overlay(contours):
            staged.extend(p.name for p in out.glob(".staging-*/*"))
            raise IncompatibleContourError("boom")

        monkeypatch.setattr(report, "render_contour_overlay", failing_overlay)
        with pytest.raises(PipelineError, match="stage 'contours'"):
            run_pipeline(manifest_path, out_dir=out)
        assert "patterns.json" in staged and "sample-daemok.histogram.svg.prov.json" in staged
        if existing:
            assert [p.name for p in out.iterdir()] == ["kept.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_each_artifact_is_staged_before_the_next_is_built(self, manifest_path, tmp_path, monkeypatch):
        out = tmp_path / "out"
        seen = {}

        def traced(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] = sorted(p.name for p in out.glob(".staging-*/*"))
                assert not [p for p in out.iterdir() if not p.name.startswith(".staging-")]
                return fn(*args, **kwargs)
            return wrapper

        for name in ("pattern_index_record", "contours_csv", "render_contour_overlay"):
            monkeypatch.setattr(report, name, traced(name, getattr(report, name)))
        summary = run_pipeline(manifest_path, out_dir=out)
        histograms = ["sample-daemok.histogram.json", "sample-daemok.histogram.json.prov.json",
                      "sample-daemok.histogram.svg", "sample-daemok.histogram.svg.prov.json"]
        # `patterns.json`, the first artifact, is open and still empty while its text is written.
        assert seen["pattern_index_record"] == ["patterns.json"]
        assert seen["contours_csv"] == sorted(histograms + ["patterns.json", "patterns.json.prov.json"])
        assert "pattern-00.contours.csv" in seen["render_contour_overlay"]
        assert sorted(p.name for p in out.iterdir()) == [Path(f).name for f in summary["outputs"]]

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
        run_pipeline(manifest_path, out_dir=tmp_path / "out")
        entries, settings = load_manifest(manifest_path)
        chunks = []
        pattern_index_record(report.load_corpus(entries, settings)[3], chunks.append)
        text = "".join(chunks)
        assert dump_json(json.loads(text)) == text == (tmp_path / "out" / "patterns.json").read_text()
        top = json.loads(text)["patterns"][0]
        assert top["support"] == len(top["occurrences"])

    def test_skip_rests_places_occurrences_at_their_score_onsets(self, fixtures_dir, tmp_path):
        manifest = json.loads((fixtures_dir / "manifest.json").read_text())
        for key in ("score", "f0_csv", "beats"):
            manifest["daemok"][0][key] = str(fixtures_dir / manifest["daemok"][0][key])
        manifest["settings"]["skip_rests"] = True
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        run_pipeline(path, out_dir=out)

        (record,) = (p for p in json.loads((out / "patterns.json").read_text())["patterns"]
                     if p["tokens"] == ["A4:2/1", "C5:2/1"])
        occurrences = [(Fraction(o["onset_beats"]), Fraction(o["span_beats"]), o["start_event_index"])
                       for o in record["occurrences"]]
        assert occurrences == [(Fraction(12), Fraction(4), 5), (Fraction(16), Fraction(4), 7)]
        contours = read_contours(out / "pattern-00.contours.csv")
        assert len(contours) == 2
        for values in contours.values():  # A4 -> C5 sung with vibrato, never the G5
            assert -30.0 <= np.nanmin(values) and np.nanmax(values) <= 330.0

    def test_changed_input_changes_recorded_hash(self, manifest_path, tmp_path, fixtures_dir):
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["daemok"][0]
        for key in ("score", "beats", "f0_csv"):
            entry[key] = str(fixtures_dir / entry[key])
        local = tmp_path / "m.json"
        local.write_text(json.dumps(manifest))
        run_pipeline(local, out_dir=tmp_path / "a")

        tweaked_csv = tmp_path / "tweaked.f0.csv"
        text = (fixtures_dir / "sample.f0.csv").read_text()
        tweaked_csv.write_text(text.replace("0.92", "0.91", 1))
        entry["f0_csv"] = str(tweaked_csv)
        local.write_text(json.dumps(manifest))
        run_pipeline(local, out_dir=tmp_path / "b")

        before, after = (json.loads((tmp_path / d / "patterns.json.prov.json").read_text())["inputs"]
                         for d in ("a", "b"))
        key = "sample-daemok:f0_csv"
        assert before[key] != after[key]
        assert before["sample-daemok:score"] == after["sample-daemok:score"]

    def test_missing_input_fails_before_any_score_is_parsed(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        manifest = _copies_manifest(fixtures_dir, ["first", "second"])
        manifest["daemok"][1]["f0_csv"] = str(tmp_path / "missing.f0.csv")
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        parsed = []
        parse = report.parse_musicxml
        monkeypatch.setattr(report, "parse_musicxml", lambda data: parsed.append(1) or parse(data))
        with pytest.raises(PipelineError) as err:
            run_pipeline(tmp_path / "m.json", out_dir=tmp_path / "out")
        assert (err.value.stage, err.value.daemok_id) == ("inputs", "second")
        assert parsed == []

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
        run_pipeline(tmp_path / "m.json", out_dir=tmp_path / "out")
        record = json.loads((tmp_path / "out" / "one.histogram.json").read_text())
        masses = record["f0_histogram"]["masses"]
        assert set(masses) == {"69"}


def _copies_manifest(fixtures_dir, ids) -> dict:
    """The fixture manifest with its one daemok's inputs repeated under each of `ids`."""
    manifest = json.loads((fixtures_dir / "manifest.json").read_text())
    entry = {k: v if k == "id" else str(fixtures_dir / v) for k, v in manifest["daemok"][0].items()}
    manifest["daemok"] = [{**entry, "id": daemok_id} for daemok_id in ids]
    return manifest


class TestSidecars:
    """Each `.prov.json` names only the inputs its artifact was built from."""

    @staticmethod
    def _run(fixtures_dir, tmp_path, n) -> dict:
        ids = [f"d{i}" for i in range(n)]
        path = tmp_path / f"m{n}.json"
        path.write_text(json.dumps(_copies_manifest(fixtures_dir, ids)))
        summary = run_pipeline(path, out_dir=tmp_path / f"out{n}")
        return {Path(p).name: Path(p).read_bytes() for p in summary["outputs"]}

    def test_histogram_sidecars_list_their_own_inputs_only(self, fixtures_dir, tmp_path):
        entry = json.loads((fixtures_dir / "manifest.json").read_text())["daemok"][0]
        files = {k: "sha256:" + hashlib.sha256((fixtures_dir / entry[k]).read_bytes()).hexdigest()
                 for k in ("score", "f0_csv", "beats")}
        two, four = (self._run(fixtures_dir, tmp_path, n) for n in (2, 4))
        sidecars = {n: json.loads(data) for n, data in four.items() if n.endswith(".prov.json")}
        assert len(sidecars) == len(four) // 2
        for name, record in sidecars.items():
            assert set(record) == {"inputs", "settings", "version"}
            assert record["version"] == sorimir.__version__
            assert record["settings"] == sidecars["patterns.json.prov.json"]["settings"]
            owner = name.split(".histogram.")[0] if ".histogram." in name else None
            ids = [owner] if owner else [f"d{i}" for i in range(4)]
            keys = ("score", "f0_csv") if owner else ("score", "f0_csv", "beats")
            assert record["inputs"] == {f"{d}:{k}": files[k] for d in ids for k in keys}, name
        for name in ("d0.histogram.json.prov.json", "d1.histogram.svg.prov.json"):
            assert two[name] == four[name]
        assert len(two["patterns.json.prov.json"]) < len(four["patterns.json.prov.json"])

    def test_corpus_sidecars_hold_the_corpus_record(self, manifest_path, tmp_path):
        run_pipeline(manifest_path, out_dir=tmp_path / "out")
        corpus = (tmp_path / "out" / "patterns.json.prov.json").read_text()
        entries, settings = load_manifest(manifest_path)
        inputs = {f"{e['id']}:{k}": "sha256:" + hashlib.sha256(Path(e[k]).read_bytes()).hexdigest()
                  for e in entries for k in ("score", "f0_csv", "beats")}
        record = {"inputs": inputs, "settings": settings, "version": sorimir.__version__}
        assert dump_json(record) == corpus
        assert (tmp_path / "out" / "pattern-00.vibrato.json.prov.json").read_text() == corpus


def _pipebench_child():
    """pipebench/child.py, which wraps the module globals in its `TRACED` to time each stage."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "pipebench" / "child.py"
    spec = importlib.util.spec_from_file_location("pipebench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_names_wrapped_by_the_pipeline_benchmark_exist():
    import importlib

    child = _pipebench_child()
    assert child.TRACED
    for module_name, attr, _, _ in child.TRACED:
        module = importlib.import_module(f"sorimir.{module_name}")
        assert callable(getattr(module, attr)), f"sorimir.{module_name}.{attr}"


def test_every_traced_span_on_the_csv_path_is_called(manifest_path, tmp_path, monkeypatch):
    """A refactor that stops calling a wrapped global would silently drop its benchmark span.
    On one CPU, the serial path: a span recorded in a forked child stays in the child."""
    import importlib

    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 1)
    child = _pipebench_child()
    tracer = child.Tracer("test")
    for module_name, attr, name, counts in child.TRACED:
        module = importlib.import_module(f"sorimir.{module_name}")
        monkeypatch.setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))
    report.run_pipeline(manifest_path, out_dir=tmp_path / "out")
    audio_only = {"pitch_track.load_wav", "pitch_track.estimate_f0_yin", "kernels.yin_lag_search"}
    expected = {name for _, _, name, _ in child.TRACED} - audio_only
    assert expected - {span["name"] for span in tracer.spans} == set()


def test_each_placed_occurrence_is_sliced_once(manifest_path, tmp_path, monkeypatch):
    from sorimir import patterns

    slice_track = patterns.slice_track
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return slice_track(*args, **kwargs)

    monkeypatch.setattr(patterns, "slice_track", counted)
    summary = run_pipeline(manifest_path, out_dir=tmp_path / "out")
    placed = sum(summary["contour_sets"].values())
    assert placed == 2
    assert calls == placed


def test_no_contour_outlives_its_pattern(fixtures_dir, tmp_path, monkeypatch):
    """A pattern's contours are freed once its artifacts are staged, before the next pattern's
    are placed, and none is alive once `run_pipeline` returns."""
    to_csv = report.contours_csv
    refs, patterns = [], []

    def tracked(pattern, contours):
        assert all(ref() is None for ref in refs), f"a contour outlives its pattern at {pattern.text}"
        patterns.append(pattern.text)
        refs.extend(map(weakref.ref, contours))
        return to_csv(pattern, contours)

    monkeypatch.setattr(report, "contours_csv", tracked)
    summary = run_pipeline(fixtures_dir / "pickup-12-4.manifest.json", out_dir=tmp_path / "out")
    assert patterns == list(summary["contour_sets"]) and len(patterns) == 2
    assert len(refs) == sum(summary["contour_sets"].values()) > len(patterns)
    assert all(ref() is None for ref in refs)


def test_the_readme_settings_table_lists_every_setting():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | type | default |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    keys = [row.split("`")[1] for row in table.splitlines()]
    assert keys == list(report.DEFAULT_SETTINGS)


def test_the_yin_settings_are_the_estimator_arguments_and_the_extract_flags():
    import inspect

    from sorimir import cli
    from sorimir.pitch_track import estimate_f0_yin

    params = inspect.signature(estimate_f0_yin).parameters
    keyword = [name for name, p in params.items() if p.default is not inspect.Parameter.empty]
    assert list(report._NESTED_KEYS["yin"]) == keyword
    # `f0 extract` passes each parsed flag to the estimator under its own keyword.
    seen = {}

    def estimate(samples, sample_rate, **kwargs):
        seen.update(kwargs)
        return sorimir.pitch_track.F0Track(np.zeros(0), np.zeros(0), 0.01)

    with mock.patch.object(cli, "load_wav", return_value=(np.zeros(1), 8000)), \
            mock.patch.object(cli, "estimate_f0_yin", estimate):
        assert cli.main(["f0", "extract", "--in", "x.wav", "--out", os.devnull]) == 0
    assert sorted(seen) == sorted(keyword)
