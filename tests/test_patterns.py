import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.beat_grid import BeatGrid, JangdanSpec, ScoreGrid, slice_track
from sorimir.errors import ConfigurationError, DependencyError, NotEnoughDataError
from sorimir.patterns import (
    Contour,
    NGramPattern,
    PatternIndex,
    PatternOccurrence,
    VibratoMetrics,
    _moving_average,
    _resample_to_normalized,
    find_post_rest_long_notes,
    make_token,
    mine_ngrams,
    occurrence_contours,
    occurrence_vibrato,
    onset_glide,
    parse_token,
    tokenize,
    vibrato_metrics,
)
from sorimir.pitch_track import F0Track
from sorimir.report import pattern_index_record
from sorimir.score import Measure, NoteEvent, Pitch, Score, TimeSignature, note_sequence

HOP = 0.01


def ev(pitch, onset, duration, measure=0):
    return NoteEvent(Fraction(onset), Fraction(duration), pitch, measure)


def index_json(index):
    """`patterns.json` of `index`, parsed."""
    chunks = []
    pattern_index_record(index, chunks.append)
    return json.loads("".join(chunks))


def beats_grid(times, bpm=None):
    """A grid on a score in bpm/4 whose measures are rests, so that a grid beat is a quarter note."""
    grid = BeatGrid(JangdanSpec("test", bpm or len(times)), times)
    bpm = grid.spec.beats_per_measure
    measures = tuple(
        Measure(m, (ev(None, m * bpm, bpm, m),), capacity_beats=Fraction(bpm))
        for m in range(grid.n_measures)
    )
    return ScoreGrid(Score("test", TimeSignature(bpm, 4), measures, 1), grid)


class TestTokens:
    def test_tokenize_examples(self):
        assert tokenize([ev(Pitch("A", 0, 4), 0, Fraction(3, 2))]) == ["A4:3/2"]
        events = [
            ev(Pitch("D", 0, 5), 0, 1),
            ev(None, 1, 1),
            ev(Pitch("D", 0, 5), 2, 2),
        ]
        assert tokenize(events) == ["D5:1/1", "R:1/1", "D5:2/1"]

    def test_parse_token(self):
        pitch, dur = parse_token("F#4:3/2")
        assert pitch.midi == 66
        assert dur == Fraction(3, 2)
        assert parse_token("R:1/1") == (None, Fraction(1))

    def test_parse_rejects_non_canonical(self):
        for bad in ("A4:2/4", "A4:2", "A4", ":1/1", "A4:0/1", "a4:1/1"):
            with pytest.raises(ValueError):
                parse_token(bad)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(36, 96)),
                st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8)),
            ),
            min_size=0,
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_round_trip(self, rows):
        from sorimir.score import pitch_from_midi

        events = []
        onset = Fraction(0)
        for midi, dur in rows:
            pitch = None if midi is None else pitch_from_midi(midi)
            events.append(NoteEvent(onset, dur, pitch, 0))
            onset += dur
        back = [parse_token(t) for t in tokenize(events)]
        assert len(back) == len(events)
        for (pitch, dur), original in zip(back, events):
            assert dur == original.duration_beats
            if original.pitch is None:
                assert pitch is None
            else:
                assert pitch == original.pitch  # spelling preserved


A = "A4:1/1"
B = "B4:1/1"


class TestMineNgrams:
    def test_hand_countable(self):
        index = mine_ngrams({"d": [A, B, A, B]}, n_values=(2,), min_support=1)
        assert index.support(NGramPattern((A, B))) == 2
        assert index.support(NGramPattern((B, A))) == 1

    def test_min_support_across_daemok(self):
        seqs = {"d1": [A, B, A, B], "d2": [A, B, A, B]}
        index = mine_ngrams(seqs, n_values=(2,), min_support=3)
        assert index.support(NGramPattern((A, B))) == 4
        assert NGramPattern((B, A)) not in index.occurrences

    def test_occurrence_onsets(self):
        index = mine_ngrams({"d": [A, B, A, B]}, n_values=(2,), min_support=1)
        occs = index.occurrences[NGramPattern((A, B))]
        assert [o.onset_beats for o in occs] == [Fraction(0), Fraction(2)]
        assert [o.start_event_index for o in occs] == [0, 2]
        assert all(o.span_beats == Fraction(2) for o in occs)

    def test_sorted_by_support_then_text(self):
        index = mine_ngrams({"d": [A, B, A, B, B]}, n_values=(2,), min_support=1)
        supports = [index.support(p) for p in index.patterns]
        assert supports == sorted(supports, reverse=True)
        texts = [p.text for p in index.patterns if index.support(p) == 1]
        assert texts == sorted(texts)

    def test_order_independence(self):
        seqs = {"x": [A, B, A], "y": [B, A, B], "z": [A, A, B]}
        index1 = mine_ngrams(seqs, n_values=(2, 3), min_support=1)
        index2 = mine_ngrams(dict(reversed(list(seqs.items()))), n_values=(2, 3), min_support=1)
        assert index1.patterns == index2.patterns
        assert index1.occurrences == index2.occurrences

    def test_random_against_naive_recount(self):
        rng = random.Random(1234)
        alphabet = [A, B, "C5:1/2", "R:1/1", "D5:3/2", "E5:2/1"]
        seqs = {
            f"seq{k:02d}": [rng.choice(alphabet) for _ in range(rng.randint(5, 120))]
            for k in range(20)
        }
        n_values = (2, 3, 4, 6)
        index = mine_ngrams(seqs, n_values=n_values, min_support=1)

        naive: dict[tuple[str, ...], int] = {}
        for tokens in seqs.values():
            for n in n_values:
                for i in range(len(tokens) - n + 1):
                    key = tuple(tokens[i : i + n])
                    naive[key] = naive.get(key, 0) + 1
        assert len(index.patterns) == len(naive)
        for pattern in index.patterns:
            assert index.support(pattern) == naive[pattern.tokens]

    def test_support_count_identity(self):
        rng = random.Random(7)
        alphabet = [A, B, "C5:1/2"]
        seqs = {
            f"s{k}": [rng.choice(alphabet) for _ in range(rng.randint(1, 40))] for k in range(8)
        }
        for n in (2, 3, 4, 6):
            index = mine_ngrams(seqs, n_values=(n,), min_support=1)
            total = sum(index.support(p) for p in index.patterns)
            assert total == sum(max(0, len(s) - n + 1) for s in seqs.values())

    def test_n_larger_than_all_sequences_warns(self):
        with pytest.warns(UserWarning, match="long enough"):
            index = mine_ngrams({"d": [A, B]}, n_values=(6,), min_support=1)
        assert len(index) == 0

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            mine_ngrams({"d": [A, B]}, n_values=())
        with pytest.raises(ConfigurationError):
            mine_ngrams({"d": [A, B]}, n_values=(2,), min_support=0)
        with pytest.raises(ConfigurationError):
            mine_ngrams({"d": [A, B]}, n_values=(1,))

    def test_skip_rests_windows_keep_score_positions(self):
        seq = ["A4:1/1", "R:1/2", "C5:1/1", "R:1/1", "A4:1/1", "C5:1/1"]
        index = mine_ngrams({"d": seq}, n_values=(2,), min_support=1, skip_rests=True)
        assert not any(t.startswith("R:") for p in index.patterns for t in p.tokens)
        pattern = NGramPattern(("A4:1/1", "C5:1/1"))
        # Each occurrence starts at its first note and runs to the end of its last, rests included.
        assert [(o.start_event_index, o.onset_beats, o.span_beats) for o in index.occurrences[pattern]] == [
            (0, Fraction(0), Fraction(5, 2)), (4, Fraction(7, 2), Fraction(2))
        ]
        (middle,) = index.occurrences[NGramPattern(("C5:1/1", "A4:1/1"))]
        assert (middle.start_event_index, middle.onset_beats, middle.span_beats) == (2, Fraction(3, 2), 3)
        record = {r["tokens"][0]: r for r in index_json(index)["patterns"]}
        assert record["A4:1/1"]["span_beats"] == "2/1"  # the pattern's span is its tokens' sum
        assert record["C5:1/1"]["span_beats"] == "2/1"

    def test_skip_rests_without_rests_changes_nothing(self):
        seqs = {"a": [A, B, A, B], "b": [B, A]}
        assert mine_ngrams(seqs, n_values=(2, 3), min_support=1, skip_rests=True).occurrences == (
            mine_ngrams(seqs, n_values=(2, 3), min_support=1).occurrences
        )

    def test_per_daemok_support(self):
        seqs = {"d1": [A, B, A, B], "d2": [A, B]}
        index = mine_ngrams(seqs, n_values=(2,), min_support=1)
        (record,) = [p for p in index_json(index)["patterns"] if p["tokens"] == [A, B]]
        assert record["per_daemok"] == {"d1": 2, "d2": 1}


def _mine_ngrams_oracle(sequences, n_values, min_support) -> PatternIndex:
    """The `Fraction` prefix-sum loop that `mine_ngrams` ran before it counted integer ticks."""
    ids = sorted(sequences)
    cumsums = {}
    for daemok_id in ids:
        acc = Fraction(0)
        cum = [acc]
        for t in sequences[daemok_id]:
            acc += parse_token(t)[1]
            cum.append(acc)
        cumsums[daemok_id] = cum

    found = {}
    for n in sorted(set(n_values)):
        if all(len(sequences[i]) < n for i in ids):
            continue
        for daemok_id in ids:
            tokens = tuple(sequences[daemok_id])
            cum = cumsums[daemok_id]
            for start in range(len(tokens) - n + 1):
                occ = PatternOccurrence(
                    daemok_id=daemok_id,
                    start_event_index=start,
                    onset_beats=cum[start],
                    span_beats=cum[start + n] - cum[start],
                )
                found.setdefault(tokens[start : start + n], []).append(occ)

    kept = {NGramPattern(k): tuple(o) for k, o in found.items() if len(o) >= min_support}
    ordered = tuple(sorted(kept, key=lambda p: (-len(kept[p]), p.text)))
    return PatternIndex(ordered, kept, tuple(sorted(set(n_values))), min_support)


# Dotted, triplet and odd denominators, so the ticks' LCM is not a power of two.
_MIXED_TOKENS = [
    make_token(pitch, Fraction(d))
    for pitch in (Pitch("A", 0, 4), Pitch("C", 1, 5), None)
    for d in ("1/3", "3/8", "5/4", "3/2", "3/4", "7/8", "1/1", "2/1", "1/6", "5/12")
]


class TestMineNgramsMatchesFractionOracle:
    def check(self, sequences, n_values, min_support):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = mine_ngrams(sequences, n_values=n_values, min_support=min_support)
        expected = _mine_ngrams_oracle(sequences, n_values, min_support)
        lengths = [len(s) for s in sequences.values()]
        too_short = [n for n in sorted(set(n_values)) if all(k < n for k in lengths)]
        assert [str(w.message) for w in caught] == [
            f"no sequence is long enough for {n}-grams" for n in too_short
        ]
        assert index == expected
        assert index.patterns == expected.patterns  # the same order
        for pattern in index.patterns:
            pairs = zip(index.occurrences[pattern], expected.occurrences[pattern], strict=True)
            for got, want in pairs:
                assert got == want
                for field in ("onset_beats", "span_beats"):
                    value, oracle = getattr(got, field), getattr(want, field)
                    assert type(value) is Fraction
                    assert (value.numerator, value.denominator) == (oracle.numerator, oracle.denominator)

    @settings(max_examples=60, deadline=None)
    @given(
        sequences=st.dictionaries(
            st.sampled_from([f"d{k}" for k in range(6)]),
            # Drawing often from a few tokens makes patterns recur.
            st.lists(st.sampled_from(_MIXED_TOKENS[:8]) | st.sampled_from(_MIXED_TOKENS), max_size=40),
            max_size=5,
        ),
        n_values=st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=4),
        min_support=st.integers(1, 3),
    )
    def test_random_mixed_denominators(self, sequences, n_values, min_support):
        self.check(sequences, n_values, min_support)

    @pytest.mark.parametrize(
        "sequences",
        [
            {"d": []},
            {"a": [], "b": []},
            {},
            {"a": [_MIXED_TOKENS[0]], "b": _MIXED_TOKENS[1:3]},
            {"a": [], "b": _MIXED_TOKENS[:5]},
        ],
        ids=["one_empty", "all_empty", "no_daemok", "all_shorter_than_n", "empty_and_long"],
    )
    def test_edge_corpora(self, sequences):
        self.check(sequences, (2, 3, 4, 6), 1)


def single_occurrence_setup(f0_values, conf=0.9, beat_times=(0.0, 0.5, 1.0)):
    """One daemok, one 2-token pattern spanning the full grid."""
    half = Fraction(1, 2) * (len(beat_times) - 1)
    token = make_token(Pitch("A", 0, 4), half)
    index = mine_ngrams({"d": [token, token]}, n_values=(2,), min_support=1)
    pattern = NGramPattern((token, token))
    f0 = np.asarray(f0_values, dtype=float)
    track = F0Track(f0, np.where(f0 > 0, conf, 0.0), HOP)
    return index, pattern, {"d": beats_grid(beat_times)}, {"d": track}


class TestOccurrenceContours:
    def test_pure_tone_is_flat_zero(self):
        index, pattern, grids, tracks = single_occurrence_setup([440.0] * 100)
        (contour,) = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=200)
        assert contour.values.shape == (200,)
        assert np.all(np.isfinite(contour.values))
        assert np.abs(contour.values).max() < 1e-6

    def test_linear_cents_ramp_resamples_linearly(self):
        t = np.arange(100) * HOP
        f0 = 440.0 * 2 ** ((100.0 * t) / 1200.0)  # 0 -> 100 cents over 1 s
        index, pattern, grids, tracks = single_occurrence_setup(f0)
        (contour,) = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=50)
        # Sampled beat range covers t in [0, 0.99]; expected cents are linear.
        expected = np.linspace(0.0, 99.0, 50)
        assert np.abs(contour.values - expected).max() < 1.0

    def test_fully_unvoiced_slice_kept_and_flagged(self):
        index, pattern, grids, tracks = single_occurrence_setup([0.0] * 100)
        (contour,) = occurrence_contours(index, pattern, grids, tracks)
        assert np.isnan(contour.values).all()

    def test_gap_not_interpolated_across(self):
        f0 = [440.0] * 40 + [0.0] * 20 + [440.0] * 40
        index, pattern, grids, tracks = single_occurrence_setup(f0)
        (contour,) = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=100)
        assert np.isnan(contour.values[45:55]).all()
        assert np.isfinite(contour.values[:35]).all()

    def test_missing_grid_is_dependency_error(self):
        index, pattern, _, tracks = single_occurrence_setup([440.0] * 100)
        with pytest.raises(DependencyError, match="beat grid"):
            occurrence_contours(index, pattern, {}, tracks)

    def test_missing_track_is_dependency_error(self):
        index, pattern, grids, _ = single_occurrence_setup([440.0] * 100)
        with pytest.raises(DependencyError, match="F0 track"):
            occurrence_contours(index, pattern, grids, {})

    def test_pattern_not_in_index(self):
        index, _, grids, tracks = single_occurrence_setup([440.0] * 100)
        with pytest.raises(ConfigurationError, match="not in the index"):
            occurrence_contours(index, NGramPattern((A, B)), grids, tracks)

    def test_occurrence_past_grid_is_skipped_with_warning(self):
        token = make_token(Pitch("A", 0, 4), Fraction(2))
        index = mine_ngrams({"d": [token, token]}, n_values=(2,), min_support=1)
        pattern = NGramPattern((token, token))
        grids = {"d": beats_grid((0.0, 0.5, 1.0))}  # only 2 beats of span
        tracks = {"d": F0Track(np.full(100, 440.0), np.full(100, 0.9), HOP)}
        with pytest.warns(UserWarning, match="past the annotated grid"):
            contours = occurrence_contours(index, pattern, grids, tracks)
        assert contours == []

    def test_transposition_leaves_shape(self):
        index, pattern, grids, tracks = single_occurrence_setup([440.0] * 100)
        (c1,) = occurrence_contours(index, pattern, grids, tracks, reference_hz=440.0)
        (c2,) = occurrence_contours(index, pattern, grids, tracks, reference_hz=220.0)
        assert np.allclose(c2.values - c1.values, 1200.0, atol=1e-9)


class TestVibrato:
    def test_synthetic_6hz_50cents(self):
        t = np.arange(0, 2.0, HOP)
        cents = 1200.0 * np.log2(440.0 * 2 ** ((50 / 1200) * np.sin(2 * np.pi * 6 * t)) / 440.0)
        m = vibrato_metrics(cents, HOP)
        assert m.rate_hz == pytest.approx(6.0, abs=0.3)
        assert m.depth_cents == pytest.approx(50.0, abs=5.0)
        assert m.voiced_fraction == 1.0

    def test_constant_pitch(self):
        m = vibrato_metrics(np.full(60, 700.0), HOP)
        assert m.rate_hz == 0.0
        assert m.depth_cents == 0.0

    def test_doubling_depth(self):
        t = np.arange(0, 2.0, HOP)
        base = vibrato_metrics(25.0 * np.sin(2 * np.pi * 6 * t), HOP)
        doubled = vibrato_metrics(50.0 * np.sin(2 * np.pi * 6 * t), HOP)
        assert doubled.depth_cents == pytest.approx(2 * base.depth_cents, rel=0.10)
        assert doubled.rate_hz == pytest.approx(base.rate_hz, abs=0.3)

    def test_transposition_invariance(self):
        t = np.arange(0, 2.0, HOP)
        cents = 40.0 * np.sin(2 * np.pi * 5 * t)
        m1 = vibrato_metrics(cents, HOP)
        m2 = vibrato_metrics(cents + 700.0, HOP)
        assert m2.rate_hz == pytest.approx(m1.rate_hz, abs=1e-6)
        assert m2.depth_cents == pytest.approx(m1.depth_cents, abs=1e-6)

    def test_not_enough_data(self):
        with pytest.raises(NotEnoughDataError):
            vibrato_metrics(np.full(20, 0.0), HOP)  # 0.2 s < 0.3 s
        with pytest.raises(NotEnoughDataError):
            vibrato_metrics(np.full(100, np.nan), HOP)

    def test_voiced_fraction(self):
        cents = np.full(100, 10.0)
        cents[::3] = np.nan
        m = vibrato_metrics(cents, HOP)
        assert m.voiced_fraction == pytest.approx(66 / 100)


def _vibrato_oracle(cents, hop_s, detrend_window_s=0.25, min_voiced_s=0.3):
    """`vibrato_metrics` as it was, with one array slice per cycle for the depth."""
    cents = np.asarray(cents, dtype=np.float64)
    voiced = np.isfinite(cents)
    n_voiced = int(np.count_nonzero(voiced))
    voiced_duration = n_voiced * hop_s
    if voiced_duration < min_voiced_s:
        raise NotEnoughDataError("not enough voiced data")
    window = max(1, int(round(detrend_window_s / hop_s)))
    if window % 2 == 0:
        window += 1
    trend = _moving_average(cents, voiced, window)
    detrended = np.where(voiced, cents - trend, np.nan)
    comp = detrended[voiced]
    raw = cents[voiced]
    signs = np.sign(comp)
    nonzero = signs != 0
    sign_seq = signs[nonzero]
    sign_pos = np.nonzero(nonzero)[0]
    changes = sign_seq[1:] != sign_seq[:-1]
    crossings = sign_pos[1:][changes]
    n_crossings = int(np.count_nonzero(changes))
    rate = n_crossings / (2.0 * voiced_duration)
    if n_crossings == 0:
        depth = 0.0
    elif n_crossings < 3:
        depth = float(raw.max() - raw.min()) / 2.0
    else:
        spans = [raw[crossings[i] : crossings[i + 2] + 1] for i in range(n_crossings - 2)]
        depth = float(np.mean([(s.max() - s.min()) / 2.0 for s in spans]))
    return VibratoMetrics(rate, depth, n_voiced / cents.shape[0] if cents.shape[0] else 0.0)


class TestVibratoMatchesPerCycleSlices:
    @given(
        st.integers(30, 400),
        st.floats(0.0, 80.0),
        st.floats(0.5, 9.0),
        st.floats(0.0, 20.0),
        st.floats(0.0, 0.3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_exactly_equal(self, n, depth, rate, noise, gaps, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n) * HOP
        cents = 700.0 + depth * np.sin(2 * np.pi * rate * t) + noise * rng.standard_normal(n)
        cents[rng.random(n) < gaps] = np.nan
        try:
            expected = _vibrato_oracle(cents, HOP)
        except NotEnoughDataError:
            with pytest.raises(NotEnoughDataError):
                vibrato_metrics(cents, HOP)
            return
        assert vibrato_metrics(cents, HOP) == expected


class TestOnsetGlide:
    def test_ascending_ramp(self):
        t = np.arange(0, 0.5, HOP)
        cents = (100.0 / 0.3) * t
        assert onset_glide(cents, HOP) == pytest.approx(100.0, abs=5.0)

    def test_flat(self):
        assert onset_glide(np.full(50, 42.0), HOP) == pytest.approx(0.0, abs=1.0)

    def test_descending_ramp(self):
        t = np.arange(0, 0.5, HOP)
        cents = (-50.0 / 0.3) * t
        assert onset_glide(cents, HOP) == pytest.approx(-50.0, abs=5.0)

    def test_starts_at_first_voiced_frame(self):
        t = np.arange(0, 0.8, HOP)
        cents = (100.0 / 0.3) * (t - 0.2)
        cents[t < 0.2] = np.nan  # silent lead-in
        assert onset_glide(cents, HOP) == pytest.approx(100.0, abs=5.0)

    def test_not_enough_voiced_data(self):
        cents = np.full(40, np.nan)
        cents[:10] = 5.0  # 0.1 s voiced
        with pytest.raises(NotEnoughDataError):
            onset_glide(cents, HOP)
        with pytest.raises(NotEnoughDataError):
            onset_glide(np.full(10, np.nan), HOP)


class TestPostRestLongNotes:
    def test_after_rest(self):
        events = [ev(None, 0, 1), ev(Pitch("A", 0, 4), 1, 3)]
        assert find_post_rest_long_notes(events, Fraction(2)) == [1]

    def test_no_rest_before(self):
        events = [ev(Pitch("A", 0, 4), 0, 1), ev(Pitch("A", 0, 4), 1, 3)]
        assert find_post_rest_long_notes(events, Fraction(2)) == []

    def test_piece_start_counts(self):
        events = [ev(Pitch("A", 0, 4), 0, 3)]
        assert find_post_rest_long_notes(events, Fraction(2)) == [0]

    def test_fixture_hand_scan(self, sample_score):
        events = note_sequence(sample_score)
        # Hand scan of the merged fixture events: index 0 opens the piece
        # (D5, 3 beats); index 4 (G5, 3/2) follows the only rest.
        assert find_post_rest_long_notes(events, Fraction(1)) == [0, 4]
        assert find_post_rest_long_notes(events, Fraction(2)) == [0]


class TestOccurrenceVibrato:
    def test_constant_tone_occurrence(self):
        index, pattern, grids, tracks = single_occurrence_setup([440.0] * 100)
        contours = occurrence_contours(index, pattern, grids, tracks)
        results = occurrence_vibrato(index, pattern, contours)
        assert len(results) == 1
        _, metrics = results[0]
        assert metrics is not None
        assert metrics.rate_hz == pytest.approx(0.0, abs=0.3)

    def test_unvoiced_occurrence_reports_none(self):
        index, pattern, grids, tracks = single_occurrence_setup([0.0] * 100)
        contours = occurrence_contours(index, pattern, grids, tracks)
        (result,) = occurrence_vibrato(index, pattern, contours)
        assert result[1] is None


def _placed_segments_oracle(index, pattern, grids, tracks):
    """The two-pass placement: each occurrence with its F0 slice, or None past the grid."""
    if pattern not in index.occurrences:
        raise ConfigurationError(f"pattern {pattern.text!r} is not in the index")
    for occ in index.occurrences[pattern]:
        if occ.daemok_id not in grids:
            raise DependencyError(f"no beat grid for daemok '{occ.daemok_id}'")
        if occ.daemok_id not in tracks:
            raise DependencyError(f"no F0 track for daemok '{occ.daemok_id}'")
        grid = grids[occ.daemok_id].grid
        start = float(occ.onset_beats)
        end = float(occ.onset_beats + occ.span_beats)
        if start < 0 or end > grid.last_beat:
            yield occ, None
        else:
            yield occ, slice_track(tracks[occ.daemok_id], grid, start, end)


def _contours_oracle(index, pattern, grids, tracks, samples_per_contour=200, reference_hz=440.0):
    contours = []
    for occ, segment in _placed_segments_oracle(index, pattern, grids, tracks):
        if segment is None:
            warnings.warn(
                f"occurrence at {occ.daemok_id} beat {float(occ.onset_beats)} "
                "runs past the annotated grid; skipped",
                stacklevel=2,
            )
            continue
        values = _resample_to_normalized(
            segment.beats, segment.cents(reference_hz), samples_per_contour
        )
        contours.append(Contour(values, occ.daemok_id, occ.onset_beats, occ.span_beats))
    return contours


def _vibrato_pairs_oracle(index, pattern, grids, tracks, reference_hz=440.0):
    results = []
    for occ, segment in _placed_segments_oracle(index, pattern, grids, tracks):
        metrics = None
        if segment is not None:
            try:
                metrics = vibrato_metrics(segment.cents(reference_hz), segment.hop_s)
            except NotEnoughDataError:
                pass
        results.append((occ, metrics))
    return results


def _random_corpus(seed):
    """Two or three daemok whose grids end before their scores and whose F0 has long gaps."""
    rng = random.Random(seed)
    tokens = [make_token(Pitch(step, 0, 4), Fraction(d)) for step in "AC" for d in ("1/2", "1")]
    sequences, grids, tracks = {}, {}, {}
    for k in range(rng.randint(2, 3)):
        daemok_id = f"d{k}"
        seq = [rng.choice(tokens) for _ in range(rng.randint(8, 16))]
        total_beats = float(sum(parse_token(t)[1] for t in seq))
        n_beats = max(3, int(total_beats * rng.uniform(0.5, 0.9)))
        beat_s = rng.uniform(0.3, 0.6)
        times = [i * beat_s for i in range(n_beats)]
        n_frames = int(times[-1] / HOP) + 20
        t = np.arange(n_frames) * HOP
        f0 = 440.0 * 2 ** (rng.uniform(20, 60) * np.sin(2 * np.pi * rng.uniform(4, 7) * t) / 1200)
        voiced = np.ones(n_frames, dtype=bool)
        for _ in range(rng.randint(1, 4)):
            gap = rng.randrange(n_frames)
            voiced[gap : gap + rng.randint(20, 80)] = False
        f0 = np.where(voiced, f0, 0.0)
        sequences[daemok_id] = seq
        grids[daemok_id] = beats_grid(times)
        tracks[daemok_id] = F0Track(f0, np.where(voiced, 0.9, 0.0), HOP)
    return mine_ngrams(sequences, n_values=(2, 3), min_support=1), grids, tracks


def _edge_corpus():
    """One placed voiced occurrence, one placed but mostly unvoiced, and three past the grid."""
    token = make_token(Pitch("A", 0, 4), Fraction(1))
    index = mine_ngrams({"d": [token] * 6}, n_values=(2,), min_support=1)
    f0 = np.where(np.arange(150) * HOP < 0.6, 440.0, 0.0)
    tracks = {"d": F0Track(f0, np.where(f0 > 0, 0.9, 0.0), HOP)}
    return index, {"d": beats_grid((0.0, 0.5, 1.0, 1.5))}, tracks


class TestOnePassMatchesTwoPassOracle:
    """`occurrence_contours` slices once; the two-pass placement gives the same results."""

    def check(self, index, grids, tracks):
        seen = {"skipped": 0, "none": 0}
        for pattern in index.patterns:
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                contours = occurrence_contours(index, pattern, grids, tracks, reference_hz=415.3)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = _contours_oracle(index, pattern, grids, tracks, reference_hz=415.3)
            assert [str(w.message) for w in got_warnings] == [
                str(w.message) for w in want_warnings
            ]
            assert [c.label for c in contours] == [c.label for c in want]
            assert [c.span_beats for c in contours] == [c.span_beats for c in want]
            for got, expected in zip(contours, want):
                assert got.values.tobytes() == expected.values.tobytes()
            pairs = occurrence_vibrato(index, pattern, contours)
            assert pairs == _vibrato_pairs_oracle(index, pattern, grids, tracks, reference_hz=415.3)
            seen["skipped"] += len(want_warnings)
            seen["none"] += sum(m is None for _, m in pairs) - len(want_warnings)
        return seen

    def test_edge_corpus(self):
        seen = self.check(*_edge_corpus())
        assert seen["skipped"] == 3
        assert seen["none"] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora(self, seed):
        seen = self.check(*_random_corpus(seed))
        assert seen["skipped"] > 0
