"""Score positions placed on beat grids: the meter fixtures and a property over time signatures."""

import importlib.util
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.beat_grid import BeatGrid, JangdanSpec, ScoreGrid, load_beats
from sorimir.errors import BeatValidationError, PipelineError
from sorimir.patterns import mine_ngrams, occurrence_contours, parse_token, tokenize
from sorimir.pitch_track import import_f0_csv
from sorimir.report import run_pipeline
from sorimir.score import Measure, NoteEvent, Score, TimeSignature, note_sequence, parse_musicxml

FIXTURES = Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES / "make_fixtures.py")
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)


def note_medians(contour, tokens):
    """(median cents, written cents) of each pitched token over the middle 70% of its share of
    the contour's normalized axis (its duration over the pattern's; no rest is skipped)."""
    durations = [float(parse_token(t)[1]) for t in tokens]
    bounds = np.cumsum([0.0] + durations) / sum(durations)
    x = np.linspace(0.0, 1.0, contour.values.shape[0])
    out = []
    for token, a, b in zip(tokens, bounds, bounds[1:]):
        pitch = parse_token(token)[0]
        if pitch is None:
            continue
        margin = 0.15 * (b - a)
        inside = (x >= a + margin) & (x <= b - margin)
        out.append((float(np.nanmedian(contour.values[inside])), 100.0 * (pitch.midi - 69)))
    return out


def measures_score(capacities, contents, pickup=False):
    """A score of rests only: measure m holds `contents[m]` quarter beats of a `capacities[m]` measure."""
    measures, onset = [], Fraction(0)
    for m, (capacity, content) in enumerate(zip(capacities, contents)):
        rests = (NoteEvent(onset, Fraction(content), None, m),) if content else ()
        measures.append(Measure(m, rests, Fraction(capacity), is_pickup=pickup and m == 0))
        onset += content
    return Score("s", TimeSignature(12, 4), tuple(measures), 1)


def grid(n_measures, bpm):
    return BeatGrid(JangdanSpec("t", bpm), np.arange(n_measures * bpm) * 0.5)


class TestScoreGrid:
    def test_quarter_beats_are_grid_beats_in_12_4(self):
        placed = ScoreGrid(measures_score([12] * 3, [12] * 3), grid(3, 12))
        for position in (Fraction(0), Fraction(21, 2), Fraction(12), Fraction(35, 3)):
            assert placed.beat(position) == position

    def test_an_eighth_is_a_grid_beat_in_12_8(self):
        placed = ScoreGrid(measures_score([6] * 3, [6] * 3), grid(3, 12))
        assert placed.beat(Fraction(6)) == 12  # measure 1's downbeat
        assert placed.beat(Fraction(7, 2)) == 7
        assert placed.beat(Fraction(18), end=True) == 36

    def test_a_pickup_fills_the_end_of_grid_measure_0(self):
        placed = ScoreGrid(measures_score([12] * 3, [3, 12, 12], pickup=True), grid(3, 12))
        assert placed.beat(Fraction(0)) == 9
        assert placed.beat(Fraction(3)) == 12
        assert placed.beat(Fraction(3), end=True) == 12
        assert placed.beat(Fraction(5)) == 14

    def test_a_later_short_measure_starts_on_its_downbeat(self):
        placed = ScoreGrid(measures_score([4, 4, 4], [4, 2, 4]), grid(3, 4))
        assert placed.beat(Fraction(5)) == 5
        assert placed.beat(Fraction(6), end=True) == 6  # end of the short measure
        assert placed.beat(Fraction(6)) == 8  # downbeat of the next

    def test_an_empty_measure_keeps_its_grid_measure(self):
        placed = ScoreGrid(measures_score([4, 4, 4], [4, 0, 4]), grid(3, 4))
        assert placed.beat(Fraction(4), end=True) == 4
        assert placed.beat(Fraction(4)) == 8
        assert placed.beat(Fraction(8), end=True) == 12

    def test_the_grid_must_have_the_score_s_measures(self):
        with pytest.raises(BeatValidationError, match="beat grid has 2 measures but the score has 3"):
            ScoreGrid(measures_score([12] * 3, [12] * 3), grid(2, 12))


@pytest.fixture(scope="module")
def meter_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("meters")
    return {name: run_pipeline(FIXTURES / f"{name}.manifest.json", out_dir=out / name)
            for name in make_fixtures.METERS}


class TestMeterFixtures:
    def test_fixtures_are_what_make_fixtures_writes(self):
        for name, spec in make_fixtures.METERS.items():
            for file_name, text in make_fixtures.render_meter(name, spec).items():
                assert (FIXTURES / file_name).read_text() == text, file_name

    def test_12_8_contours_sit_between_a4_and_c5(self, meter_runs):
        contours = meter_runs["meter-12-8"].contour_sets["A4:1/1 C5:1/1"]
        assert len(contours) == 2
        for c in contours:
            assert abs(np.nanmedian(c.values) - 150.0) < 50.0

    @pytest.mark.parametrize("name", sorted(make_fixtures.METERS))
    def test_every_placed_note_sits_on_its_written_pitch(self, meter_runs, name):
        checked = 0
        for pattern_text, contours in meter_runs[name].contour_sets.items():
            assert contours, pattern_text
            for c in contours:
                for median, written in note_medians(c, pattern_text.split()):
                    assert abs(median - written) < 50.0, (pattern_text, c.label)
                    checked += 1
        assert checked >= 4

    def test_a_grid_with_other_measures_than_the_score_names_the_daemok(self, tmp_path):
        manifest = json.loads((FIXTURES / "pickup-12-4.manifest.json").read_text())
        entry = manifest["daemok"][0]
        for key in ("score", "f0_csv"):
            entry[key] = str(FIXTURES / entry[key])
        short = tmp_path / "short.beats.csv"
        short.write_text("".join((FIXTURES / entry["beats"]).read_text().splitlines(True)[:25]))
        entry["beats"] = str(short)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(PipelineError, match="pickup-12-4") as err:
            run_pipeline(path, out_dir=tmp_path / "out")
        assert err.value.stage == "beats"
        assert "beat grid has 2 measures but the score has 3" in str(err.value)
        assert not (tmp_path / "out").exists()


@st.composite
def rendered_scores(draw):
    """A random time signature, tapped pulse, pickup and melody, rendered by make_fixtures."""
    beats = draw(st.integers(2, 12))
    beat_type = draw(st.sampled_from([2, 4, 8, 16]))
    bpm = draw(st.sampled_from(sorted({d for d in range(1, beats + 1) if beats % d == 0} | {2 * beats})))
    pickup = draw(st.sampled_from([0, *range(1, beats)]))
    total = pickup + beats * draw(st.integers(2, 3))
    notes, onset, previous = [], 0.0, None
    while onset < total + beats:  # the last measure is one note: what ends before it is placed
        duration = min(draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])), total - onset)
        duration = duration if onset < total else beats
        midi = draw(st.integers(60, 79).filter(lambda m: m != previous))
        notes.append((onset, duration, midi))
        onset, previous = onset + duration, midi
    rng = random.Random(draw(st.integers(0, 2**16)))
    beat_s = rng.uniform(0.25, 0.45) * beats / bpm  # each written beat lasts 0.25 to 0.45 s
    n_measures = len(make_fixtures.barlines(notes, beats, pickup)) - 1
    times = [0.3]
    for _ in range(n_measures * bpm - 1):
        times.append(round(times[-1] + beat_s * rng.uniform(0.85, 1.15), 3))
    divisions = max(1, beat_type // 4) * 2
    shift = beats - pickup if pickup else 0
    return (
        make_fixtures.musicxml("d", notes, beats, beat_type, divisions, pickup),
        make_fixtures.beats_csv(times, bpm),
        make_fixtures.f0_csv(times, notes, bpm / beats, shift, vibrato=False),
        bpm,
    )


@settings(max_examples=40, deadline=None)
@given(rendered=rendered_scores())
def test_contours_of_a_rendered_score_sit_on_the_written_pitch(rendered):
    xml, beats_text, f0_text, bpm = rendered
    score = parse_musicxml(xml)
    grids = {"d": ScoreGrid(score, load_beats(beats_text, JangdanSpec("t", bpm)))}
    tracks = {"d": import_f0_csv(f0_text)}
    index = mine_ngrams({"d": tokenize(note_sequence(score))}, n_values=(2,), min_support=1)
    checked = 0
    for pattern in index.patterns:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the last note ends past the last annotated beat
            contours = occurrence_contours(index, pattern, grids, tracks)
        for c in contours:
            for median, written in note_medians(c, pattern.tokens):
                assert abs(median - written) < 5.0, (pattern.text, c.label)
                checked += 1
    assert checked > 0
