import csv
import io
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.errors import ConfigurationError, DomainError, EmptyTrackError, FormatError
from sorimir.pitch_track import (
    DEFAULT_HOP_S,
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


def _import_f0_csv_oracle(text) -> F0Track:
    """The row-at-a-time reader `import_f0_csv` replaced: csv.reader, then float() per cell."""
    if hasattr(text, "read"):
        text = text.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["time", "frequency", "confidence"]:
        raise FormatError("expected CSV header 'time,frequency,confidence'")

    times: list[float] = []
    freqs: list[float] = []
    confs: list[float] = []
    for row_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 columns, got {len(row)}", row=row_no)
        try:
            t, f, c = (float(v) for v in row)
        except ValueError:
            raise FormatError(f"non-numeric value in {row!r}", row=row_no) from None
        if f < 0:
            raise FormatError(f"negative frequency {f}", row=row_no)
        if not 0.0 <= c <= 1.0:
            raise DomainError(f"confidence {c} outside [0, 1] (row {row_no})")
        times.append(t)
        freqs.append(f)
        confs.append(c)

    if not times:
        return F0Track(np.zeros(0), np.zeros(0), hop_s=DEFAULT_HOP_S)
    t_all = np.array(times)
    f_all = np.array(freqs)
    non_finite = ~(np.isfinite(t_all) & np.isfinite(f_all))
    if non_finite.any():
        i = int(np.argmax(non_finite))
        raise FormatError(f"non-finite time or frequency in {times[i]},{freqs[i]}", row=_data_row(text, i))
    if abs(times[0]) > 1e-3:
        raise FormatError(f"track must start at time 0, got {times[0]}", row=_data_row(text, 0))
    hop = times[1] - times[0] if len(times) > 1 else DEFAULT_HOP_S
    if hop <= 0:
        raise FormatError(f"non-increasing time {times[1]}", row=_data_row(text, 1))
    delta = np.diff(t_all)
    bad = (delta <= 0) | (np.abs(delta - hop) > 1e-3)
    if bad.any():
        i = int(np.argmax(bad)) + 1
        if delta[i - 1] <= 0:
            raise FormatError(f"non-increasing time {times[i]}", row=_data_row(text, i))
        raise FormatError(f"hop jitter {abs(delta[i - 1] - hop):.6f}s exceeds 1 ms", row=_data_row(text, i))
    return F0Track(f_all, np.asarray(confs), hop_s=hop)


def _data_row(text: str, i: int) -> int:
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows = (n for n, row in enumerate(reader, start=1) if row and (len(row) > 1 or row[0].strip()))
    return next(itertools.islice(rows, i, None))


def _export_f0_csv_oracle(track: F0Track) -> str:
    """The per-frame writer `export_f0_csv` replaced."""
    lines = ["time,frequency,confidence"]
    times = track.times()
    for i in range(len(track)):
        lines.append(f"{times[i]:.4f},{track.f0_hz[i]:.3f},{track.confidence[i]:.6f}")
    return "\n".join(lines) + "\n"


def _outcome(read, text):
    try:
        track = read(text)
    except Exception as exc:  # compared by type, message and row
        return ("error", type(exc).__name__, str(exc), getattr(exc, "row", None))
    return ("track", track.f0_hz.tobytes(), track.confidence.tobytes(), repr(track.hop_s))


# Cell rewrites the reader must treat exactly as the row-at-a-time reader did.
_CELL_EDITS = ["abc", "", "#", "# 1", "nan", "inf", "-inf", "-5", "1.5", "-0.1", " 0.5 ", "\t1",
               "\xa00.5", "\x1c0.5", "+.5", "1e0", "Infinity", "0x1", "1 0"]
# Syntax only the row-at-a-time reader accepted; now a FormatError naming the row.
_SYNTAX_EDITS = [lambda v: f'"{v}"', lambda v: v[:1] + "_" + v[1:] if len(v) > 1 else v, lambda v: "١"]
_SEPARATORS = ["\n", "\r\n", "\n\n", "\n \n", "\n\t\n", "\r", "\r\r\n", '\n""\n']


@st.composite
def perturbed_f0_csv(draw):
    """An F0 CSV with a few rows rewritten; also says whether a syntax-only edit was made."""
    hop = draw(st.sampled_from([0.005, 0.01, 0.02]))
    rows = []
    for i in range(draw(st.integers(0, 10))):
        t = i * hop + draw(st.sampled_from([0.0] * 6 + [0.002, -0.02, 0.5]))
        rows.append([f"{t:.4f}", draw(st.sampled_from(["440", "0", "523.25"])), draw(st.sampled_from(["0.9", "0", "1"]))])
    syntax = False
    for _ in range(draw(st.integers(0, 3))) if rows else ():
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(["cell", "syntax", "columns"]))
        if kind == "cell":
            cells[j] = draw(st.sampled_from(_CELL_EDITS))
        elif kind == "syntax":
            cells[j] = draw(st.sampled_from(_SYNTAX_EDITS))(cells[j])
            syntax = True
        elif draw(st.booleans()) or len(cells) == 1:
            cells.append("1")
        else:
            cells.pop()
    text = "time,frequency,confidence" + draw(st.sampled_from(["\n", "\r\n"]))
    for cells in rows:
        sep = draw(st.sampled_from(_SEPARATORS)) if draw(st.integers(0, 4)) == 0 else "\n"
        syntax |= sep in ("\n \n", "\n\t\n", "\r\r\n", '\n""\n')
        text += ",".join(cells) + sep
    return text, syntax


class TestCsvImportMatchesRowReader:
    @given(perturbed_f0_csv())
    @settings(max_examples=100, deadline=None)
    def test_same_track_or_same_error(self, case):
        text, syntax = case
        old, new = _outcome(_import_f0_csv_oracle, text), _outcome(import_f0_csv, text)
        if old == new:
            return
        # The only departure: syntax the old reader took, now refused with its row named.
        assert syntax and old[0] == "track"
        assert new[:2] == ("error", "FormatError") and new[3] is not None and "quoted value" in new[2]

    @pytest.mark.parametrize(
        "body, row",
        [
            ('0,440,1\n"0.01",440,1\n', 2),
            ("0,440,1\n0.01,4_40,1\n", 2),
            ("0,440,1\n  \n0.01,440,1\n", 2),
            ("0,440,1\n\n0.01,٤٤٠,1\n", 3),
            ("0,440,1\r\r\n0.01,440,1\n", 1),
        ],
    )
    def test_syntax_only_the_row_reader_took_names_its_row(self, body, row):
        text = "time,frequency,confidence\n" + body
        assert len(_import_f0_csv_oracle(text)) == 2
        with pytest.raises(FormatError, match="quoted value") as err:
            import_f0_csv(text)
        assert err.value.row == row

    @pytest.mark.parametrize("cell", ["\x1c440", "440\x1f", "\x1d440\x1e"])
    def test_separator_characters_float_refuses_stay_non_numeric(self, cell):
        # np.loadtxt strips \x1c-\x1f as whitespace; float() does not, so these stay errors.
        text = f"time,frequency,confidence\n0,440,1\n0.01,{cell},1\n"
        assert _outcome(import_f0_csv, text) == _outcome(_import_f0_csv_oracle, text)
        with pytest.raises(FormatError, match="non-numeric") as err:
            import_f0_csv(text)
        assert err.value.row == 2

    def test_errors_before_a_refused_row_keep_their_order(self):
        # A time error two rows above a quoted number is still the time error.
        text = 'time,frequency,confidence\n0,440,1\n0,440,1\n"0.02",440,1\n'
        with pytest.raises(FormatError, match="non-increasing") as err:
            import_f0_csv(text)
        assert err.value.row == 2

    def test_export_matches_per_frame_writer(self):
        rng = np.random.default_rng(5)
        f0 = rng.uniform(300.0, 900.0, 12_000)
        conf = rng.uniform(0.0, 1.0, f0.size)
        f0[rng.random(f0.size) < 0.2] = 0.0
        track = F0Track(f0, np.where(f0 > 0, conf, 0.0), 0.01)
        assert export_f0_csv(track) == _export_f0_csv_oracle(track)


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


@pytest.mark.parametrize("hop_s", [0.0, -0.01, float("nan"), float("inf"), float("-inf")])
def test_a_track_hop_must_be_finite_and_positive(hop_s):
    with pytest.raises(ValueError, match="hop_s must be a finite positive number"):
        F0Track(np.array([440.0]), np.array([0.9]), hop_s)


def _wav_bytes(sample_rate, channels, sampwidth, frames):
    """Minimal RIFF/WAVE PCM writer for test input: each value's low `sampwidth` bytes."""
    values = np.asarray(frames, dtype="<i4").reshape(-1, channels)
    data = values.view(np.uint8).reshape(-1, 4)[:, :sampwidth].tobytes()
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

    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("sampwidth", [1, 2, 3, 4])
    def test_integer_downmix_is_bitwise_the_mean_of_scaled_channels(self, tmp_path, sampwidth, channels):
        from scipy.io import wavfile

        rng = np.random.default_rng(10 * sampwidth + channels)
        lo, hi = (0, 255) if sampwidth == 1 else (-(1 << (8 * sampwidth - 1)), (1 << (8 * sampwidth - 1)) - 1)
        pcm = rng.integers(lo, hi, size=(5000, channels), endpoint=True)
        pcm[:2] = [[lo] * channels, [hi] * channels]  # full scale, all channels alike
        path = tmp_path / f"pcm{sampwidth}x{channels}.wav"
        path.write_bytes(_wav_bytes(8000, channels, sampwidth, pcm))

        _, raw = wavfile.read(path)
        if raw.dtype == np.uint8:
            scaled = (raw.astype(np.float64) - 128.0) / 128.0
        else:
            scaled = raw / {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}[raw.dtype]
        samples, _ = load_wav(path)
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert np.array_equal(samples, scaled.mean(axis=1))

    def test_stereo_downmix_holds_no_two_channel_float_image(self, tmp_path):
        from scipy.io import wavfile  # noqa: F401  (imported before tracing starts)

        n = 200_000
        path = tmp_path / "long-stereo.wav"
        path.write_bytes(_wav_bytes(8000, 2, 2, np.arange(2 * n) % 30000))
        tracemalloc.start()
        try:
            samples, _ = load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the int16 PCM (4 B a frame), the mono result (8 B) and the cast buffers of the
        # channel sum; a float64 image of both channels alone would be 16 B a frame
        assert samples.shape == (n,)
        assert peak <= 12 * n + 2**18

    def test_16_32_and_64_bit_pcm_of_one_sine_agree(self, tmp_path):
        from scipy.io import wavfile

        # One half-scale sine at 16 bits, shifted into the high bits of the wider types.
        pcm = np.round(0.5 * np.sin(2 * np.pi * 440.0 * np.arange(8000) / 8000) * 2**15)
        loaded = []
        for dtype, shift in ((np.int16, 0), (np.int32, 16), (np.int64, 48)):
            path = tmp_path / f"sine-{np.dtype(dtype).name}.wav"
            wavfile.write(path, 8000, pcm.astype(dtype) << shift)
            samples, _ = load_wav(path)
            assert np.abs(samples).max() <= 1.0
            loaded.append(samples)
        assert np.abs(loaded[0]).max() == pytest.approx(0.5, abs=1e-4)
        assert np.abs(loaded[1] - loaded[0]).max() <= 1e-9
        assert np.abs(loaded[2] - loaded[0]).max() <= 1e-9

    def test_mono_24bit(self, tmp_path):
        path = tmp_path / "deep.wav"
        value = 1 << 22  # half of 24-bit full scale (2^23)
        path.write_bytes(_wav_bytes(8000, 1, 3, [(value,), (-value,)]))
        samples, _ = load_wav(path)
        assert np.allclose(np.abs(samples), 0.5, atol=1e-4)
