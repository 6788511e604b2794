import json
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir import patterns as patterns_module
from sorimir import report
from sorimir.beat_grid import BeatGrid, ScoreGrid, slice_track
from sorimir.errors import ConfigurationError, DependencyError, NotEnoughDataError
from sorimir.patterns import (
    Contour,
    NGramPattern,
    PatternIndex,
    PatternOccurrence,
    VibratoMetrics,
    _resample_rows,
    _vibrato_rows,
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
from sorimir.pitch_track import F0Track, track_cents
from sorimir.report import contours_csv, pattern_index_record, render_contour_overlay
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
    grid = BeatGrid(times, bpm or len(times))
    bpm = grid.beats_per_measure
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


def _moving_average(values, voiced, window):
    kernel = np.ones(window)
    sums = np.convolve(np.where(voiced, values, 0.0), kernel, mode="same")
    counts = np.convolve(voiced.astype(float), kernel, mode="same")
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _vibrato_oracle(cents, hop_s, detrend_window_s=0.25, min_voiced_s=0.3):
    """`vibrato_metrics` as it was, one series at a time, with one array slice per cycle for
    the depth."""
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


def _oracle_outcome(cents, hop_s):
    try:
        return _vibrato_oracle(cents, hop_s)
    except NotEnoughDataError:
        return None


def _same_bits(got, want):
    """Equal VibratoMetrics field by field down to the bit (so -0.0 is not 0.0), or both None."""
    if got is None or want is None:
        return got is want
    return all(np.float64(getattr(got, f)).tobytes() == np.float64(getattr(want, f)).tobytes()
               for f in ("rate_hz", "depth_cents", "voiced_fraction"))


@st.composite
def vibrato_row(draw):
    """One occurrence's cents: 0 to 400 frames of vibrato, steps, a flat tone, arbitrary values
    or silence, with NaN runs at either edge or inside."""
    n = draw(st.integers(0, 400))
    kind = draw(st.sampled_from(["vibrato", "steps", "flat", "arbitrary", "unvoiced"]))
    t = np.arange(n) * HOP
    if kind == "vibrato":
        cents = (draw(st.floats(-1200.0, 1200.0))
                 + draw(st.floats(0.0, 80.0)) * np.sin(2 * np.pi * draw(st.floats(0.2, 12.0)) * t
                                                       + draw(st.floats(0.0, 6.3))))
    elif kind == "steps":
        cents = np.full(n, draw(st.floats(-1200.0, 1200.0)))
        for _ in range(draw(st.integers(1, 4))):
            cents[draw(st.integers(0, n)):] += draw(st.floats(-300.0, 300.0))
    elif kind == "flat":
        cents = np.full(n, draw(st.sampled_from([0.0, -0.0, 0.1, 700.0, -2400.0])))
    elif kind == "arbitrary":
        cents = np.array(draw(st.lists(st.floats(-2400.0, 2400.0), min_size=n, max_size=n)))
    else:
        cents = np.full(n, np.nan)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n))
        stop = draw(st.sampled_from([n, draw(st.integers(start, n))]))
        cents[draw(st.sampled_from([0, start])) : stop] = np.nan
    return cents


def _cycled_row(crossings):
    """A voiced row that crosses its trend `crossings` times: steps of 200 cents, 20 frames
    apart, alternating up and down, after a flat lead-in."""
    steps = np.repeat(np.arange(crossings + 1) % 2 * 200.0, 20)
    return np.concatenate([np.full(40, 0.0), steps[20:]]) if crossings else np.full(60, 700.0)


class TestVibratoRows:
    """`_vibrato_rows` measures many rows in one pass, each bit for bit as `_vibrato_oracle`."""

    @given(st.lists(vibrato_row(), max_size=10), st.sampled_from([HOP, 256 / 44100, 0.0232]),
           st.sampled_from([None, 1, 64, 300]))
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_the_oracle_bit_for_bit(self, rows, hop_s, block):
        block = patterns_module.BLOCK_SAMPLES if block is None else block
        with mock.patch.object(patterns_module, "BLOCK_SAMPLES", block):
            got = _vibrato_rows(rows, hop_s)
        assert len(got) == len(rows)
        for metrics, cents in zip(got, rows):
            assert _same_bits(metrics, _oracle_outcome(cents, hop_s))

    @pytest.mark.parametrize("block", [None, 50, 500])
    def test_cycle_counts_around_the_pairwise_sum(self, block):
        """0, 1 and 2 crossings take the no-cycle and whole-row depths; 3 crossings make one
        cycle, 10 and 11 the 8 and 9 around numpy's 8-way unrolled sum, 140 more than its
        128-term pairwise block."""
        counts = [0, 1, 2, 3, 4, 10, 11, 12, 140]
        rows = [_cycled_row(c) for c in counts]
        rows += [np.concatenate([np.full(3, np.nan), r, np.full(5, np.nan)]) for r in rows]
        block = patterns_module.BLOCK_SAMPLES if block is None else block
        with mock.patch.object(patterns_module, "BLOCK_SAMPLES", block):
            got = _vibrato_rows(rows, HOP)
        for metrics, cents, crossings in zip(got, rows, counts * 2):
            assert round(metrics.rate_hz * 2 * np.count_nonzero(~np.isnan(cents)) * HOP) == crossings
            assert _same_bits(metrics, _vibrato_oracle(cents, HOP))

    def test_unmeasurable_rows_are_none(self):
        short, silent = np.zeros(29), np.full(400, np.nan)
        sparse = np.where(np.arange(100) % 4 == 0, 5.0, np.nan)  # 25 voiced frames, 0.25 s
        got = _vibrato_rows([np.zeros(0), short, silent, sparse, np.zeros(30)], HOP)
        assert got[:4] == [None] * 4 and got[4] == VibratoMetrics(0.0, 0.0, 1.0)
        assert _vibrato_rows([], HOP) == []

    def test_a_window_longer_than_the_row_averages_the_whole_row(self):
        """At a 0.15 s hop the 0.25 s window is 3 frames, so a 2-frame row (0.3 s voiced) is
        measured about its mean (the per-row code failed to broadcast here)."""
        (metrics,) = _vibrato_rows([np.array([0.0, 10.0])], 0.15)
        assert metrics == VibratoMetrics(1 / (2.0 * 0.3), 5.0, 1.0)
        assert vibrato_metrics(np.array([0.0, 10.0]), 0.15) == metrics
        # Once its half spans the row, a window covers all of it from every frame.
        cents = 40.0 * np.sin(np.arange(50))
        assert (vibrato_metrics(cents, HOP, detrend_window_s=1e300)
                == vibrato_metrics(cents, HOP, detrend_window_s=1.0))

    @pytest.mark.parametrize("value", [0.0, -0.01, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["hop_s", "detrend_window_s", "min_voiced_s"])
    def test_bad_settings_are_configuration_errors(self, name, value):
        settings = {"hop_s": HOP, "detrend_window_s": 0.25, "min_voiced_s": 0.3, name: value}
        with pytest.raises(ConfigurationError, match=name):
            vibrato_metrics(np.zeros(100), **settings)
        with pytest.raises(ConfigurationError, match=name):
            _vibrato_rows([np.zeros(100)], **settings)

    @pytest.mark.parametrize("cents", [np.zeros((2, 50)), np.float64(1.0)])
    def test_a_series_must_be_one_dimensional(self, cents):
        with pytest.raises(ConfigurationError, match="1-d"):
            vibrato_metrics(cents, HOP)
        with pytest.raises(ConfigurationError, match="1-d"):
            _vibrato_rows([np.zeros(50), cents], HOP)
        with pytest.raises(ConfigurationError, match="1-d"):
            onset_glide(cents, HOP)

    @pytest.mark.parametrize("value", [0.0, -0.3, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["hop_s", "window_s"])
    def test_bad_glide_settings_are_configuration_errors(self, name, value):
        settings = {"hop_s": HOP, "window_s": 0.3, name: value}
        with pytest.raises(ConfigurationError, match=name):
            onset_glide(np.zeros(100), **settings)

    def test_a_pattern_is_measured_once_per_hop(self):
        index, grids, tracks = _random_corpus(0)
        hops = {d: t.hop_s for d, t in tracks.items()}
        assert len(set(hops.values())) == 2
        calls, measure = [], _vibrato_rows
        with mock.patch.object(patterns_module, "_vibrato_rows",
                               lambda rows, hop_s: calls.append((len(rows), hop_s))
                               or measure(rows, hop_s)):
            for pattern in index.patterns:
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    contours = occurrence_contours(index, pattern, grids, tracks)
                per_hop = {}
                for c in contours:
                    per_hop[hops[c.daemok_id]] = per_hop.get(hops[c.daemok_id], 0) + 1
                assert sorted(calls) == sorted((n, hop) for hop, n in per_hop.items())


def _vibrato_pass_peak(occurrences):
    """Traced peak of measuring `occurrences` rows of 40 frames, above the rows themselves."""
    rng = np.random.default_rng(occurrences)
    rows = [700.0 + 30.0 * np.sin(0.6 * np.arange(40) + rng.uniform(0, 6)) for _ in
            range(occurrences)]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        metrics = _vibrato_rows(rows, HOP)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert all(m is not None for m in metrics)
    return peak


def test_vibrato_temporaries_do_not_grow_with_occurrences(monkeypatch):
    # Blocks of 25 rows of 40 frames, so that 256 occurrences already fill ten blocks.
    monkeypatch.setattr(patterns_module, "BLOCK_SAMPLES", 1000)
    short, long = _vibrato_pass_peak(256), _vibrato_pass_peak(4096)
    # What grows is the result, a VibratoMetrics of three floats in a list, and the list of
    # the checked rows: each block's temporaries are freed before the next block's are made.
    tracemalloc.start()
    try:
        kept = [VibratoMetrics(i + 0.5, i + 1.5, i + 0.25) for i in range(1000)]
        per_row = tracemalloc.get_traced_memory()[0] / len(kept) + 8
    finally:
        tracemalloc.stop()
    assert long - short <= (4096 - 256) * per_row + 2**17


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


def _resample_to_normalized(beats: np.ndarray, cents: np.ndarray, samples: int) -> np.ndarray:
    """The per-contour resampling `_resample_rows` replaced: linear resampling onto `samples`
    uniform points over the sampled range, NaN next to any unvoiced frame."""
    out = np.full(samples, np.nan)
    n = beats.shape[0]
    if n == 0:
        return out
    if n == 1 or beats[-1] == beats[0]:
        out[:] = cents[0]
        return out
    targets = beats[0] + (beats[-1] - beats[0]) * np.linspace(0.0, 1.0, samples)
    left = np.clip(np.searchsorted(beats, targets, side="right") - 1, 0, n - 2)
    right = left + 1
    y0 = cents[left]
    y1 = cents[right]
    both = ~np.isnan(y0) & ~np.isnan(y1)
    width = beats[right] - beats[left]
    frac = np.where(width > 0, (targets - beats[left]) / np.where(width > 0, width, 1.0), 0.0)
    vals = y0 + (y1 - y0) * np.clip(frac, 0.0, 1.0)
    out[both] = vals[both]
    return out


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
            segment.beats, track_cents(segment, reference_hz), samples_per_contour
        )
        contours.append(Contour(values, occ.daemok_id, occ.onset_beats, occ.span_beats))
    return contours


def _vibrato_pairs_oracle(index, pattern, grids, tracks, reference_hz=440.0):
    results = []
    for occ, segment in _placed_segments_oracle(index, pattern, grids, tracks):
        metrics = None
        if segment is not None:
            try:
                metrics = _vibrato_oracle(track_cents(segment, reference_hz), segment.hop_s)
            except NotEnoughDataError:
                pass
        results.append((occ, metrics))
    return results


def _random_corpus(seed):
    """Two or three daemok whose grids end before their scores and whose F0 has long gaps,
    tracked at two hops in turn."""
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
        hop = (HOP, 256 / 44100)[k % 2]
        n_frames = int(times[-1] / hop) + 20
        t = np.arange(n_frames) * hop
        f0 = 440.0 * 2 ** (rng.uniform(20, 60) * np.sin(2 * np.pi * rng.uniform(4, 7) * t) / 1200)
        voiced = np.ones(n_frames, dtype=bool)
        for _ in range(rng.randint(1, 4)):
            gap = rng.randrange(n_frames)
            voiced[gap : gap + rng.randint(20, 80)] = False
        f0 = np.where(voiced, f0, 0.0)
        sequences[daemok_id] = seq
        grids[daemok_id] = beats_grid(times)
        tracks[daemok_id] = F0Track(f0, np.where(voiced, 0.9, 0.0), hop)
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


@st.composite
def resample_rows(draw):
    """One `(beats, cents)` row as a placement gives it: 0 to 17 frames, beats in order that
    may repeat or all be equal, and NaN runs at either edge or inside."""
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 17]))
    if draw(st.booleans()):
        beats = [draw(st.floats(-4.0, 64.0))] * n
    else:
        beat = st.one_of(st.floats(-4.0, 64.0), st.sampled_from([0.0, 0.5, 1.0]))
        beats = sorted(draw(st.lists(beat, min_size=n, max_size=n)))
    cents = draw(st.lists(st.floats(-2400.0, 2400.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n))
        stop = draw(st.integers(start, n))
        cents[start:stop] = [np.nan] * (stop - start)
    return np.array(beats, dtype=float), np.array(cents, dtype=float)


def _repeated_note(occurrences):
    """One daemok whose pattern of two equal one-beat notes occurs `occurrences` times, each
    over 20 frames of vibrato that is unvoiced at one frame in 13."""
    token = make_token(Pitch("A", 0, 4), Fraction(1))
    index = mine_ngrams({"d": [token] * (occurrences + 1)}, n_values=(2,), min_support=1)
    frames = np.arange((occurrences + 3) * 10)
    voiced = frames % 13 != 0
    f0 = np.where(voiced, 440.0 * 2 ** (30 * np.sin(0.7 * frames) / 1200), 0.0)
    grid = beats_grid(list(np.arange(occurrences + 3) * 0.1))
    return index, NGramPattern((token, token)), {"d": grid}, {"d": F0Track(f0, voiced * 0.9, HOP)}


class TestBatchedResampling:
    """`occurrence_contours` resamples a pattern's contours into one read-only array."""

    @given(st.lists(resample_rows(), max_size=12), st.sampled_from([2, 300]),
           st.sampled_from([1, 2, 5, None]))
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_the_per_contour_resampling_bit_for_bit(self, rows, samples, block_rows):
        block = patterns_module.BLOCK_SAMPLES if block_rows is None else block_rows * samples
        with mock.patch.object(patterns_module, "BLOCK_SAMPLES", block):
            out = _resample_rows(rows, samples)
        assert out.shape == (len(rows), samples)
        for got, (beats, cents) in zip(out, rows):
            assert got.tobytes() == _resample_to_normalized(beats, cents, samples).tobytes()

    def test_the_first_read_resamples_every_contour_once(self):
        index, pattern, grids, tracks = _repeated_note(5)
        passes, resample = [], _resample_rows
        with mock.patch.object(patterns_module, "_resample_rows",
                               lambda rows, samples: passes.append(len(rows)) or resample(rows, samples)):
            contours = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=7)
            assert passes == []
            third = contours[2].values
            assert passes == [5]
            assert all(c.values.base is third.base for c in contours) and passes == [5]
        assert third.base.shape == (5, 7)

    def test_a_contour_cannot_write_over_its_neighbours(self):
        index, pattern, grids, tracks = _repeated_note(3)
        contours = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=9)
        before = [c.values.copy() for c in contours]
        with pytest.raises(ValueError, match="read-only"):
            contours[1].values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            contours[1].values.base[2] = 0.0
        for c, values in zip(contours, before):
            assert c.values.tobytes() == values.tobytes()


def _stage_peaks(occurrences, samples):
    """Traced peaks of resampling `occurrences` contours of `samples` each and reading every
    contour's values, and then of each writer on its own above what was held before it, with
    the length of the writer's text."""
    index, pattern, grids, tracks = _repeated_note(occurrences)
    contours = occurrence_contours(index, pattern, grids, tracks, samples_per_contour=samples)
    assert len(contours) == occurrences
    tracemalloc.start()
    try:
        for c in contours:
            c.values
        peaks, lengths = [tracemalloc.get_traced_memory()[1]], []
        for render in (lambda: contours_csv(pattern, contours),
                       lambda: render_contour_overlay(contours)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            text = render()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            lengths.append(len(text))
            del text
    finally:
        tracemalloc.stop()
    return peaks, lengths


def test_contour_temporaries_do_not_grow_with_occurrences(monkeypatch):
    # Blocks of 64 rows of 16 samples, so that 256 occurrences already fill four blocks, and
    # the texts of 4,096 stay a few MB.
    for module in (patterns_module, report):
        monkeypatch.setattr(module, "BLOCK_SAMPLES", 16 * 64)
    short, short_lengths = _stage_peaks(256, 16)
    long, long_lengths = _stage_peaks(4096, 16)
    # The resampled array, float64, and each contour's view of its row.
    extra_values = (4096 - 256) * (16 * 8 + 256)
    assert long[0] - short[0] <= extra_values + 2**18
    # A writer holds its text at most twice, its lines and their join.
    for peak_short, peak_long, length_short, length_long in zip(
        short[1:], long[1:], short_lengths, long_lengths
    ):
        assert peak_long - peak_short <= 2 * (length_long - length_short) + 2**20
