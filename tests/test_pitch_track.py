import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.errors import ConfigurationError, DomainError, EmptyTrackError, FormatError
from sorimir.pitch_track import (
    F0Track,
    FilterConfig,
    estimate_f0_yin,
    export_f0_csv,
    filter_track,
    hz_to_cents,
    import_f0_csv,
    load_wav,
    track_cents,
)

SR = 44100


def sine(freq, seconds, sr=SR, amp=0.8):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def cents_off(found, truth):
    return 1200.0 * np.log2(found / truth)


class TestYin:
    def test_pure_sine_440(self):
        track = estimate_f0_yin(sine(440.0, 2.0), SR)
        assert len(track) > 100
        assert track.voiced.all()
        assert np.abs(cents_off(track.f0_hz, 440.0)).max() < 5.0
        assert track.confidence.min() > 0.9

    def test_silence_is_unvoiced(self):
        track = estimate_f0_yin(np.zeros(SR), SR)
        assert not track.voiced.any()
        assert (track.confidence == 0.0).all()

    def test_sawtooth_with_noise(self):
        freq = 523.25
        t = np.arange(2 * SR) / SR
        saw = 0.8 * (2.0 * ((freq * t) % 1.0) - 1.0)
        rng = np.random.default_rng(0)
        noisy = saw + 10 ** (-20 / 20) * saw.std() * rng.standard_normal(saw.shape)
        track = estimate_f0_yin(noisy, SR, search_min_hz=300.0, search_max_hz=1100.0)
        voiced = track.f0_hz[track.voiced]
        assert voiced.size > 0.9 * len(track)
        assert abs(cents_off(np.median(voiced), freq)) < 10.0

    def test_empty_signal(self):
        with pytest.raises(EmptyTrackError):
            estimate_f0_yin(np.zeros(0), SR)

    def test_too_short_signal(self):
        with pytest.raises(EmptyTrackError, match="shorter"):
            estimate_f0_yin(np.zeros(100), SR)

    def test_window_must_cover_two_periods(self):
        with pytest.raises(ConfigurationError, match="periods"):
            estimate_f0_yin(sine(440, 1.0), SR, frame_s=0.01, search_min_hz=60.0)

    def test_bad_search_range(self):
        with pytest.raises(ConfigurationError):
            estimate_f0_yin(sine(440, 1.0), SR, search_min_hz=800.0, search_max_hz=400.0)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="8000"):
            estimate_f0_yin(sine(440, 1.0, sr=4000), 4000)

    def test_sweep_accuracy_350_to_1000(self):
        # 50 Hz steps over the singer's register; every voiced frame within
        # 5 cents and nearly every frame voiced.
        for freq in range(350, 1001, 50):
            track = estimate_f0_yin(
                sine(float(freq), 0.5), SR, search_min_hz=300.0, search_max_hz=1100.0
            )
            voiced = track.voiced
            assert voiced.mean() >= 0.95, f"{freq} Hz: only {voiced.mean():.0%} voiced"
            err = np.abs(cents_off(track.f0_hz[voiced], float(freq)))
            assert err.max() < 5.0, f"{freq} Hz: {err.max():.2f} cents"

    def test_hop_time_base(self):
        track = estimate_f0_yin(sine(440, 1.0), SR, hop_s=0.02)
        times = track.times()
        assert np.allclose(np.diff(times), track.hop_s, atol=1e-12)
        assert abs(track.hop_s - 0.02) < 1e-9


class TestCsvImport:
    def test_three_rows(self):
        track = import_f0_csv("time,frequency,confidence\n0.00,440,0.9\n0.01,441,0.8\n0.02,0,0.0\n")
        assert len(track) == 3
        assert abs(track.hop_s - 0.01) < 1e-12
        assert track.f0_hz[0] == 440.0
        assert not track.voiced[2]

    def test_header_only(self):
        track = import_f0_csv("time,frequency,confidence\n")
        assert len(track) == 0

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            import_f0_csv("t,f,c\n0,440,0.9\n")

    def test_non_monotonic_time_row_3(self):
        with pytest.raises(FormatError) as err:
            import_f0_csv("time,frequency,confidence\n0.00,440,0.9\n0.02,441,0.9\n0.01,442,0.9\n")
        assert err.value.row == 3

    def test_hop_jitter(self):
        with pytest.raises(FormatError, match="jitter"):
            import_f0_csv("time,frequency,confidence\n0.00,440,0.9\n0.01,441,0.9\n0.025,442,0.9\n")

    def test_confidence_range(self):
        with pytest.raises(DomainError, match="confidence"):
            import_f0_csv("time,frequency,confidence\n0.00,440,1.5\n")

    def test_must_start_at_zero(self):
        with pytest.raises(FormatError, match="start"):
            import_f0_csv("time,frequency,confidence\n0.50,440,0.9\n0.51,441,0.9\n")

    def test_all_nan_times_rejected(self):
        with pytest.raises(FormatError, match="non-finite") as err:
            import_f0_csv("time,frequency,confidence\nnan,440,0.9\nnan,441,0.9\n")
        assert err.value.row == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_frequency_rejected_with_row(self, value):
        text = f"time,frequency,confidence\n0.00,440,0.9\n0.01,441,0.9\n0.02,{value},0.9\n"
        with pytest.raises(FormatError, match="non-finite") as err:
            import_f0_csv(text)
        assert err.value.row == 3

    def test_rows_after_a_blank_line_are_numbered_alike(self):
        # Checks made inside the row loop and after it must count the blank line alike.
        head = "time,frequency,confidence\n0,440,1\n\n0.01,440,1\n0.02,440,1\n"
        with pytest.raises(FormatError, match="non-numeric") as in_loop:
            import_f0_csv(head + "0.02,abc,1\n")
        with pytest.raises(FormatError, match="non-increasing") as after_loop:
            import_f0_csv(head + "0.02,440,1\n")
        assert in_loop.value.row == after_loop.value.row == 5

    @pytest.mark.parametrize(
        "body, match, row",
        [
            ("\n0.50,440,1\n0.51,440,1\n", "start", 2),
            ("\n0.00,440,1\n\n0.01,nan,1\n", "non-finite", 4),
            ("\n0.00,440,1\n\n0.00,440,1\n", "non-increasing", 4),
            ("0.00,440,1\n\n0.01,440,1\n\n\n0.025,440,1\n", "jitter", 6),
        ],
    )
    def test_checks_after_the_row_loop_count_blank_lines(self, body, match, row):
        with pytest.raises(FormatError, match=match) as err:
            import_f0_csv("time,frequency,confidence\n" + body)
        assert err.value.row == row

    def test_export_round_trip(self):
        track = F0Track(np.array([440.0, 0.0, 523.25]), np.array([0.9, 0.0, 0.7]), 0.01)
        again = import_f0_csv(export_f0_csv(track))
        assert np.allclose(again.f0_hz, track.f0_hz, atol=1e-3)
        assert np.allclose(again.confidence, track.confidence, atol=1e-6)
        assert abs(again.hop_s - track.hop_s) < 1e-9

    def test_reads_file_objects(self):
        track = import_f0_csv(io.StringIO("time,frequency,confidence\n0.00,440,0.9\n"))
        assert len(track) == 1


class TestFilter:
    def test_boundary_semantics(self):
        f0 = np.array([349.9, 350.0, 1000.0, 1000.1, 500.0, 500.0])
        conf = np.array([0.9, 0.6, 0.6, 0.9, 0.59, 0.60])
        out = filter_track(F0Track(f0, conf, 0.01))
        assert list(out.voiced) == [False, True, True, False, False, True]

    def test_placeholders_keep_time_base(self):
        track = F0Track(np.array([100.0, 440.0]), np.array([0.9, 0.9]), 0.01)
        out = filter_track(track)
        assert len(out) == len(track)
        assert out.hop_s == track.hop_s
        assert not out.voiced[0] and out.f0_hz[0] == 0.0

    @given(
        st.lists(
            st.tuples(st.floats(0, 2000), st.floats(0, 1)),
            min_size=0,
            max_size=64,
        )
    )
    @settings(max_examples=100)
    def test_idempotent(self, rows):
        f0 = np.array([r[0] for r in rows])
        conf = np.array([r[1] for r in rows])
        track = F0Track(f0, conf, 0.01)
        once = filter_track(track)
        twice = filter_track(once)
        assert np.array_equal(once.f0_hz, twice.f0_hz)
        assert np.array_equal(once.confidence, twice.confidence)


class TestCents:
    def test_examples(self):
        assert hz_to_cents(440.0, 440.0) == 0.0
        assert abs(hz_to_cents(880.0, 440.0) - 1200.0) < 1e-9
        assert abs(hz_to_cents(466.16, 440.0) - 100.0) < 0.1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hz_to_cents(0.0, 440.0)
        for reference in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                hz_to_cents(440.0, reference)

    @given(
        st.floats(1.0, 10000.0),
        st.floats(1.0, 10000.0),
        st.floats(1.0, 10000.0),
    )
    @settings(max_examples=200)
    def test_antisymmetry_and_additivity(self, a, b, c):
        assert abs(hz_to_cents(a, b) + hz_to_cents(b, a)) < 1e-9
        assert abs(hz_to_cents(a, c) - (hz_to_cents(a, b) + hz_to_cents(b, c))) < 1e-9

    def test_track_cents_marks_unvoiced(self):
        track = F0Track(np.array([440.0, 0.0]), np.array([0.9, 0.0]), 0.01)
        cents = track_cents(track, 440.0)
        assert cents[0] == 0.0 and np.isnan(cents[1])


def _wav_bytes(sample_rate, channels, sampwidth, frames):
    """Minimal RIFF/WAVE PCM writer for test input."""
    data = b""
    for frame in frames:
        for value in frame:
            raw = struct.pack("<i", value)
            data += raw[:sampwidth] if sampwidth < 4 else raw
    byte_rate = sample_rate * channels * sampwidth
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(data))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate, byte_rate, channels * sampwidth, sampwidth * 8)
        + b"data"
        + struct.pack("<I", len(data))
    )
    return header + data


class TestLoadWav:
    def test_mono_16bit(self, tmp_path):
        path = tmp_path / "mono.wav"
        path.write_bytes(_wav_bytes(8000, 1, 2, [(16384,), (-16384,)]))
        samples, sr = load_wav(path)
        assert sr == 8000
        assert np.allclose(samples, [0.5, -0.5], atol=1e-4)

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(_wav_bytes(8000, 2, 2, [(16384, 0), (0, -16384)]))
        samples, _ = load_wav(path)
        assert np.allclose(samples, [0.25, -0.25], atol=1e-4)

    def test_mono_24bit(self, tmp_path):
        path = tmp_path / "deep.wav"
        value = 1 << 22  # half of 24-bit full scale (2^23)
        path.write_bytes(_wav_bytes(8000, 1, 3, [(value,), (-value,)]))
        samples, _ = load_wav(path)
        assert np.allclose(np.abs(samples), 0.5, atol=1e-4)
