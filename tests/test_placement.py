"""Score positions placed on beat grids: the meter fixtures and a property over time signatures."""

import importlib.util
import json
import math
import random
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir import patterns as patterns_module
from sorimir.beat_grid import BeatGrid, ScoreGrid, load_beats, slice_track
from sorimir.errors import BeatValidationError, PipelineError
from sorimir.patterns import (
    NGramPattern, make_token, mine_ngrams, occurrence_contours, parse_token, place_occurrences,
    tokenize,
)
from sorimir.pitch_track import F0Track, import_f0_csv, track_cents
from sorimir.report import load_corpus, load_manifest, reference_hz, run_pipeline
from sorimir.score import (
    Measure, NoteEvent, Pitch, Score, TimeSignature, note_sequence, parse_musicxml,
)

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
    return BeatGrid(np.arange(n_measures * bpm) * 0.5, bpm)


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

    @settings(max_examples=200, deadline=None)
    @given(
        contents=st.lists(st.fractions(0, 6, max_denominator=6), min_size=1, max_size=5),
        positions=st.lists(st.fractions(-2, 32, max_denominator=35), min_size=1, max_size=20),
        pickup=st.booleans(),
    )
    def test_tick_lookup_finds_the_measure_a_fraction_bisection_finds(self, contents, positions, pickup):
        placed = ScoreGrid(measures_score([6] * len(contents), contents, pickup), grid(len(contents), 4))
        unit, ticks, origins, scales = placed._measures
        starts = [Fraction(t, unit) for t in ticks]
        for position in positions:
            for end, bisect in ((False, bisect_right), (True, bisect_left)):
                m = min(max(bisect(starts, position) - 1, 0), len(scales) - 1)
                assert placed.beat(position, end=end) == origins[m] + position * scales[m]

    def test_the_grid_must_have_the_score_s_measures(self):
        with pytest.raises(BeatValidationError, match="beat grid has 2 measures but the score has 3"):
            ScoreGrid(measures_score([12] * 3, [12] * 3), grid(2, 12))


@pytest.fixture(scope="module")
def meter_contours():
    """{fixture name: {contour pattern text: contours}}, placed with the manifest's settings."""
    placed = {}
    for name in make_fixtures.METERS:
        entries, settings = load_manifest(FIXTURES / f"{name}.manifest.json")
        _, grids, tracks, index = load_corpus(entries, settings)
        placed[name] = {
            text: occurrence_contours(index, NGramPattern.from_text(text), grids, tracks,
                                      samples_per_contour=settings["samples_per_contour"],
                                      reference_hz=reference_hz(settings))
            for text in settings["contour_patterns"]
        }
    return placed


class TestMeterFixtures:
    def test_fixtures_are_what_make_fixtures_writes(self):
        for name, spec in make_fixtures.METERS.items():
            for file_name, text in make_fixtures.render_meter(name, spec).items():
                assert (FIXTURES / file_name).read_text() == text, file_name

    def test_12_8_contours_sit_between_a4_and_c5(self, meter_contours):
        contours = meter_contours["meter-12-8"]["A4:1/1 C5:1/1"]
        assert len(contours) == 2
        for c in contours:
            assert abs(np.nanmedian(c.values) - 150.0) < 50.0

    @pytest.mark.parametrize("name", sorted(make_fixtures.METERS))
    def test_every_placed_note_sits_on_its_written_pitch(self, meter_contours, name):
        checked = 0
        for pattern_text, contours in meter_contours[name].items():
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
    grids = {"d": ScoreGrid(score, load_beats(beats_text, bpm))}
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


def _bitwise(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _positions(score):
    """Every event onset and every event end of `score`."""
    events = [e for m in score.measures for e in m.events]
    return [e.onset_beats for e in events] + [e.onset_beats + e.duration_beats for e in events]


def _check_beats(placed, positions):
    for end in (False, True):
        want = [float(placed.beat(p, end)) for p in positions]
        assert _bitwise(placed.beats(positions, end)) == _bitwise(want), end


@st.composite
def measure_scores(draw, pitched=False):
    """A score whose measures each take their own length and divisions: a pickup or not, any
    later measure full, short or empty, each event a whole number of 1/divisions quarter beats."""
    measures, onset = [], Fraction(0)
    for m in range(draw(st.integers(1, 5))):
        capacity = Fraction(draw(st.integers(1, 12)) * 4, draw(st.sampled_from([2, 4, 8, 16])))
        divisions = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
        ticks = math.floor(capacity * divisions)
        content = ticks if draw(st.booleans()) else draw(st.integers(0, ticks))
        events = []
        while content > 0:
            length = draw(st.integers(1, content))
            rest = not pitched or draw(st.booleans())
            pitch = None if rest else Pitch(draw(st.sampled_from("ACDEG")), 0, 4)
            events.append(NoteEvent(onset, Fraction(length, divisions), pitch, m))
            onset, content = onset + Fraction(length, divisions), content - length
        pickup = m == 0 and 0 < sum(e.duration_beats for e in events) < capacity
        measures.append(Measure(m, tuple(events), capacity, is_pickup=pickup))
    return Score("s", TimeSignature(4, 4), tuple(measures), 1)


class TestScoreGridBeats:
    """`ScoreGrid.beats` gives `float(ScoreGrid.beat(p, end))` bit for bit."""

    @pytest.mark.parametrize(
        "manifest", ["manifest.json", *(f"{n}.manifest.json" for n in make_fixtures.METERS)])
    def test_every_event_of_the_fixture_scores(self, manifest):
        entries, settings = load_manifest(FIXTURES / manifest)
        for entry in entries:
            score = parse_musicxml(Path(entry["score"]).read_bytes())
            placed = ScoreGrid(score, load_beats(Path(entry["beats"]).read_text(),
                                                 settings["beats_per_measure"]))
            positions = _positions(score)
            assert len(positions) > 10
            _check_beats(placed, positions)

    @settings(max_examples=200, deadline=None)
    @given(score=measure_scores(), bpm=st.integers(1, 12),
           extra=st.lists(st.fractions(-3, 40, max_denominator=48), max_size=10))
    def test_generated_scores(self, score, bpm, extra):
        placed = ScoreGrid(score, grid(len(score.measures), bpm))
        _check_beats(placed, _positions(score) + extra)

    def test_no_positions(self):
        placed = ScoreGrid(measures_score([12] * 2, [12] * 2), grid(2, 12))
        assert placed.beats([]).shape == (0,)

    def test_a_numerator_past_2_53_falls_back_to_beat(self, monkeypatch):
        placed = ScoreGrid(measures_score([12] * 3, [3, 12, 12], pickup=True), grid(3, 12))
        fine, huge = Fraction(7, 2), Fraction(2**60 + 1, 2**40)  # huge * 2^40 passes 2^53
        beat, calls = ScoreGrid.beat, []

        def counted(self, position, end=False):
            calls.append(position)
            return beat(self, position, end)

        monkeypatch.setattr(ScoreGrid, "beat", counted)
        for end in (False, True):
            got = placed.beats([fine, huge, fine], end)
            assert calls == [huge]
            want = [float(beat(placed, p, end)) for p in (fine, huge, fine)]
            assert _bitwise(got) == _bitwise(want)
            calls.clear()

    def test_a_common_denominator_past_2_53_falls_back_for_every_position(self, monkeypatch):
        placed = ScoreGrid(measures_score([12] * 2, [12] * 2), grid(2, 12))
        positions = [Fraction(1, 3**20), Fraction(1, 5**20), Fraction(5)]
        calls = []
        beat = ScoreGrid.beat
        monkeypatch.setattr(ScoreGrid, "beat",
                            lambda s, p, end=False: calls.append(p) or beat(s, p, end))
        got = placed.beats(positions)
        assert calls == positions
        assert _bitwise(got) == _bitwise([float(beat(placed, p)) for p in positions])


def _placed_one_by_one(index, patterns, grids, tracks, reference):
    """The per-occurrence placement that `place_occurrences` replaced: two `ScoreGrid.beat`
    calls, one `slice_track` and one `track_cents` for each occurrence, in index order."""
    out = {}
    for pattern in patterns:
        out[pattern] = []
        for occ in index.occurrences[pattern]:
            placed, track = grids[occ.daemok_id], tracks[occ.daemok_id]
            start = float(placed.beat(occ.onset_beats))
            end = float(placed.beat(occ.onset_beats + occ.span_beats, end=True))
            if start < 0 or end > placed.grid.last_beat:
                out[pattern].append(f"occurrence at {occ.daemok_id} beat {start} runs past the "
                                    "annotated grid; skipped")
                continue
            segment = slice_track(track, placed.grid, start, end)
            lo = (segment.f0_hz.ctypes.data - track.f0_hz.ctypes.data) // 8  # a view's offset
            out[pattern].append((lo, len(segment), segment.beats, track_cents(segment, reference)))
    return out


def _check_placements(index, grids, tracks, reference):
    """`place_occurrences` against `_placed_one_by_one`; returns the (placed, skipped) counts."""
    patterns = list(index.patterns)
    want = _placed_one_by_one(index, patterns, grids, tracks, reference)
    sliced = []

    def counted(track, *args):
        sliced.append(track)
        return slice_track(track, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(patterns_module, "slice_track", counted)
        got = place_occurrences(index, patterns, grids, tracks, reference)
    assert list(got) == patterns
    by_daemok, skipped = {}, 0
    for pattern in patterns:
        assert len(got[pattern]) == len(want[pattern])
        for occ, place, expected in zip(index.occurrences[pattern], got[pattern], want[pattern]):
            if isinstance(expected, str):
                assert place == expected
                skipped += 1
                continue
            lo, length, beats, cents = expected
            assert place.hi - place.lo == length and (length == 0 or place.lo == lo)
            assert place.beats.tobytes() == beats.tobytes()
            assert place.cents.tobytes() == cents.tobytes()
            assert place.hop_s == tracks[occ.daemok_id].hop_s
            by_daemok.setdefault(occ.daemok_id, []).append(place)
    # One slice per daemok with a placed occurrence, from its first placed frame to its last.
    assert sorted(map(id, sliced)) == sorted(id(tracks[d]) for d in by_daemok)
    for places in by_daemok.values():
        first, last = min(p.lo for p in places), max(p.hi for p in places)
        for p in places:
            assert p.beats.base is places[0].beats.base and p.cents.base is places[0].cents.base
            assert p.beats.base.shape == p.cents.base.shape == (last - first,)
    return sum(map(len, by_daemok.values())), skipped


@st.composite
def placement_corpora(draw):
    """One to three daemok, each a generated score (`measure_scores`) on a grid whose beats may
    start before frame 0 or sit exactly on frame times, and a track of an awkward hop that may
    end before the grid does, with unvoiced gaps."""
    sequences, grids, tracks = {}, {}, {}
    for k in range(draw(st.integers(1, 3))):
        score = draw(measure_scores(pitched=True))
        bpm = draw(st.integers(1, 6))
        hop = draw(st.one_of(st.sampled_from([0.01, 0.0116, 256 / 22050, 1 / 3]),
                             st.floats(0.003, 0.05)))
        n_beats = len(score.measures) * bpm
        if draw(st.booleans()):  # beats on frame times k * hop
            frames = draw(st.lists(st.integers(0, 40 * n_beats), min_size=n_beats, max_size=n_beats,
                                   unique=True))
            times = [f * hop for f in sorted(frames)]
        else:
            steps = draw(st.lists(st.floats(0.02, 0.6), min_size=n_beats, max_size=n_beats))
            times = list(draw(st.floats(-0.4, 0.3)) + np.cumsum(steps))
        n = draw(st.integers(0, max(0, int(times[-1] / hop)) + 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        f0 = np.where(rng.random(n) < 0.8, rng.uniform(200.0, 900.0, n), 0.0)
        events = [e for m in score.measures for e in m.events]
        sequences[f"d{k}"] = tokenize(events)
        grids[f"d{k}"] = ScoreGrid(score, BeatGrid(times, bpm))
        tracks[f"d{k}"] = F0Track(f0, np.where(f0 > 0, 0.9, 0.0), hop)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a corpus too short for 3-grams
        index = mine_ngrams(sequences, n_values=(2, 3), min_support=1)
    return index, grids, tracks, draw(st.floats(400.0, 460.0))


class TestPlacementPass:
    """`place_occurrences` gives what placing each occurrence on its own gave, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(corpus=placement_corpora())
    def test_same_placements_as_one_by_one(self, corpus):
        _check_placements(*corpus)

    def test_spans_on_the_last_beat_and_before_the_first_frame(self):
        """Beat 0 at -0.25 s, before frame 0. The grid's last beat is where measure 1's fourth
        quarter starts, so the pair that ends there is placed and the one after it is not."""
        token = make_token(Pitch("A", 0, 4), Fraction(1))
        score = measures_score([4, 4], [4, 4])
        grids = {"d": ScoreGrid(score, BeatGrid(np.arange(8) * 0.5 - 0.25, 4))}
        tracks = {"d": F0Track(np.full(400, 440.0), np.full(400, 0.9), 256 / 22050)}
        index = mine_ngrams({"d": [token] * 8}, n_values=(2,), min_support=1)
        placed, skipped = _check_placements(index, grids, tracks, 440.0)
        assert (placed, skipped) == (6, 1)
        (places,) = place_occurrences(index, index.patterns, grids, tracks).values()
        assert places[0].lo == 0 and places[5].hi > places[5].lo
        assert grids["d"].beats([Fraction(7)], end=True)[0] == grids["d"].grid.last_beat

    def test_patterns_the_index_lacks_or_daemok_without_inputs_are_not_placed(self):
        token = make_token(Pitch("A", 0, 4), Fraction(1))
        index = mine_ngrams({"d": [token] * 4, "e": [token] * 4}, n_values=(2,), min_support=1)
        score = measures_score([4], [4])
        grids = {"d": ScoreGrid(score, grid(1, 4))}
        track = F0Track(np.full(300, 440.0), np.full(300, 0.9), 0.01)
        tracks = {"d": track, "e": track}
        other = NGramPattern((token, make_token(None, Fraction(1))))
        got = place_occurrences(index, [other, *index.patterns, *index.patterns], grids, tracks)
        assert list(got) == list(index.patterns)
        kinds = [type(p).__name__ for p in got[index.patterns[0]]]
        assert kinds == ["Placement"] * 2 + ["str"] + ["NoneType"] * 3  # "e" has no grid
