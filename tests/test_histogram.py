from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.errors import UndefinedAffinityError
from sorimir.histogram import (
    BIN_MIDI,
    BIN_PITCH_CLASS,
    PC_D,
    ModeTemplate,
    PitchHistogram,
    f0_histogram,
    gyemyeonjo,
    mode_affinity,
    score_duration_histogram,
    ujo,
)
from sorimir.pitch_track import F0Track, filter_track
from sorimir.score import note_sequence


def track_of(freqs, conf=0.9):
    f0 = np.asarray(freqs, dtype=float)
    return F0Track(f0, np.where(f0 > 0, conf, 0.0), 0.01)


class TestF0Histogram:
    def test_single_bin(self):
        hist = f0_histogram(track_of([440.0] * 100))
        assert hist.masses == {69: 100.0}
        assert hist.unit == "frames"

    def test_split_60_40(self):
        hist = f0_histogram(track_of([440.0] * 60 + [466.16] * 40))
        assert hist.masses == {69: 60.0, 70: 40.0}

    def test_half_semitone_ties_to_lower_bin(self):
        midpoint = 440.0 * 2 ** (1 / 24)  # exactly 50 cents above A4
        hist = f0_histogram(track_of([midpoint]))
        assert hist.masses == {69: 1.0}
        above = 440.0 * 2 ** (50.5 / 1200)
        assert f0_histogram(track_of([above])).masses == {70: 1.0}

    def test_unvoiced_not_counted(self):
        hist = f0_histogram(track_of([440.0, 0.0, 440.0]))
        assert hist.total_mass == 2.0

    def test_out_of_midi_range_warns_but_bins(self):
        with pytest.warns(UserWarning, match="filtered"):
            hist = f0_histogram(track_of([5.0]))
        assert hist.total_mass == 1.0

    def test_pitch_class_kind(self):
        hist = f0_histogram(track_of([440.0, 880.0]), bin_kind=BIN_PITCH_CLASS)
        assert hist.masses == {9: 2.0}

    def test_mass_equals_voiced_frames(self, sample_track):
        filtered = filter_track(sample_track)
        hist = f0_histogram(filtered)
        assert hist.total_mass == filtered.n_voiced

    def test_reference_shift(self):
        # A 440 Hz tone against a quarter-tone-flat reference lands a bin up.
        ref = 440.0 / 2 ** (51 / 1200)
        hist = f0_histogram(track_of([440.0]), reference_hz=ref)
        assert hist.masses == {70: 1.0}


class TestScoreHistogram:
    def test_single_whole_measure_note(self, sample_score):
        events = [e for e in note_sequence(sample_score) if e.pitch and e.pitch.midi == 74]
        hist = score_duration_histogram(events)
        assert hist.masses == {74: 3.0}

    def test_summation(self):
        from sorimir.score import NoteEvent, Pitch

        events = [
            NoteEvent(Fraction(0), Fraction(3), Pitch("D", 0, 5), 0),
            NoteEvent(Fraction(3), Fraction(1), Pitch("E", 0, 5), 0),
            NoteEvent(Fraction(4), Fraction(2), Pitch("D", 0, 5), 0),
        ]
        hist = score_duration_histogram(events)
        assert hist.masses == {74: 5.0, 76: 1.0}
        assert hist.exact_masses == {74: Fraction(5), 76: Fraction(1)}

    def test_fixture_against_brute_force(self, sample_score):
        events = note_sequence(sample_score)
        hist = score_duration_histogram(events)
        expected: dict[int, Fraction] = {}
        for ev in events:
            if ev.pitch is not None:
                expected[ev.pitch.midi] = expected.get(ev.pitch.midi, Fraction(0)) + ev.duration_beats
        assert hist.exact_masses == expected
        assert hist.exact_total == sum(
            (e.duration_beats for e in events if e.pitch is not None), Fraction(0)
        )

    def test_rests_excluded(self, sample_score):
        hist = score_duration_histogram(note_sequence(sample_score))
        # 36 beats total, 1.5 of them rest
        assert hist.exact_total == Fraction(69, 2)


class TestReduction:
    def test_preserves_total_mass(self):
        hist = PitchHistogram(BIN_MIDI, {60: 2.0, 72: 3.0, 61: 1.0}, "frames")
        reduced = hist.pitch_class_reduction()
        assert reduced.bin_kind == BIN_PITCH_CLASS
        assert reduced.masses == {0: 5.0, 1: 1.0}
        assert reduced.total_mass == hist.total_mass


class TestModeTemplates:
    def test_ujo_pitch_classes(self):
        # D-F-G-A-C
        assert ujo().pitch_classes == frozenset({2, 5, 7, 9, 0})

    def test_gyemyeonjo_pitch_classes(self):
        # D-E-G-A-C
        assert gyemyeonjo().pitch_classes == frozenset({2, 4, 7, 9, 0})

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeTemplate("x", frozenset(), 0)
        with pytest.raises(ValueError):
            ModeTemplate("x", frozenset({12}), 0)


class TestModeAffinity:
    def test_all_mass_on_tonic(self):
        hist = PitchHistogram(BIN_PITCH_CLASS, {PC_D: 7.0}, "frames")
        assert mode_affinity(hist, ujo()) == 1.0

    def test_all_mass_off_scale(self):
        hist = PitchHistogram(BIN_PITCH_CLASS, {3: 5.0}, "frames")  # D#
        assert mode_affinity(hist, ujo()) == 0.0

    def test_three_quarters(self):
        hist = PitchHistogram(BIN_PITCH_CLASS, {2: 3.0, 4: 1.0}, "frames")  # D:3, E:1
        assert mode_affinity(hist, ujo()) == 0.75

    def test_zero_mass_undefined(self):
        with pytest.raises(UndefinedAffinityError):
            mode_affinity(PitchHistogram(BIN_PITCH_CLASS, {}, "frames"), ujo())

    def test_works_on_midi_bins(self):
        hist = PitchHistogram(BIN_MIDI, {62: 3.0, 64: 1.0}, "frames")
        assert mode_affinity(hist, ujo()) == 0.75

    @given(
        st.dictionaries(st.integers(40, 90), st.floats(0.0, 100.0), min_size=1),
        st.floats(0.001, 1000.0),
    )
    @settings(max_examples=100)
    def test_scaling_invariance(self, masses, scale):
        hist = PitchHistogram(BIN_MIDI, masses, "frames")
        if hist.total_mass == 0:
            return
        scaled = PitchHistogram(BIN_MIDI, {k: v * scale for k, v in masses.items()}, "frames")
        if scaled.total_mass == 0:
            return
        a = mode_affinity(hist, ujo())
        b = mode_affinity(scaled, ujo())
        assert a == pytest.approx(b, abs=1e-9)

    @given(
        st.dictionaries(st.integers(40, 80), st.floats(0.01, 100.0), min_size=1),
        st.integers(-11, 11),
    )
    @settings(max_examples=100)
    def test_transposition_equivariance(self, masses, shift):
        hist = PitchHistogram(BIN_MIDI, masses, "frames")
        shifted = PitchHistogram(BIN_MIDI, {k + shift: v for k, v in masses.items()}, "frames")
        a = mode_affinity(hist, ujo())
        b = mode_affinity(shifted, ujo((PC_D + shift) % 12))
        assert a == pytest.approx(b, abs=1e-9)


def test_to_record_serializes(sample_track, sample_score):
    f0_hist = f0_histogram(filter_track(sample_track))
    rec = f0_hist.to_record()
    assert rec["bin_kind"] == BIN_MIDI
    assert all(isinstance(k, str) for k in rec["masses"])
    score_rec = score_duration_histogram(note_sequence(sample_score)).to_record()
    assert "exact_masses" in score_rec
    assert score_rec["labels"][str(74)] == "D5"
