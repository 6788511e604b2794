"""Fundamental-frequency tracks: estimation, import, filtering, conversion.

A track is a uniformly sampled sequence of (f0, confidence) frames; frame i
sits at time i * hop_s. Unvoiced frames carry f0 = 0 and are excluded from
all downstream statistics. Neural trackers are not run here; their CSV
output (time,frequency,confidence) can be imported instead.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import yin_lag_search
from .errors import ConfigurationError, DomainError, EmptyTrackError, FormatError

DEFAULT_HOP_S = 0.010
DEFAULT_FRAME_S = 0.046
DEFAULT_YIN_THRESHOLD = 0.15
DEFAULT_SEARCH_MIN_HZ = 60.0
DEFAULT_SEARCH_MAX_HZ = 1600.0

_HOP_JITTER_S = 1e-3


@dataclass(frozen=True)
class F0Track:
    """Uniform F0 track; arrays are read-only after construction."""

    f0_hz: np.ndarray
    confidence: np.ndarray
    hop_s: float

    def __post_init__(self):
        f0 = np.array(self.f0_hz, dtype=np.float64)
        conf = np.array(self.confidence, dtype=np.float64)
        if f0.ndim != 1 or conf.shape != f0.shape:
            raise ValueError("f0_hz and confidence must be 1-d arrays of equal length")
        if not 0 < self.hop_s < math.inf:
            raise ValueError(f"hop_s must be a finite positive number, got {self.hop_s}")
        if np.any(~np.isfinite(f0)) or np.any(f0 < 0):
            raise ValueError("f0 values must be finite and >= 0 (0 marks unvoiced)")
        if np.any((conf < 0) | (conf > 1)):
            raise ValueError("confidence values must lie in [0, 1]")
        f0.flags.writeable = False
        conf.flags.writeable = False
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "confidence", conf)

    def __len__(self) -> int:
        return self.f0_hz.shape[0]

    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.hop_s

    @property
    def voiced(self) -> np.ndarray:
        return self.f0_hz > 0.0

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(self.voiced))


@dataclass(frozen=True)
class FilterConfig:
    """Confidence and register gates applied to raw tracker output."""

    min_confidence: float = 0.6
    min_hz: float = 350.0
    max_hz: float = 1000.0

    def __post_init__(self):
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(f"min_confidence {self.min_confidence} outside [0, 1]")
        if not 0.0 < self.min_hz < self.max_hz:
            raise ValueError(f"need 0 < min_hz < max_hz, got {self.min_hz}..{self.max_hz}")


def estimate_f0_yin(
    samples: np.ndarray,
    sample_rate: float,
    frame_s: float = DEFAULT_FRAME_S,
    hop_s: float = DEFAULT_HOP_S,
    search_min_hz: float = DEFAULT_SEARCH_MIN_HZ,
    search_max_hz: float = DEFAULT_SEARCH_MAX_HZ,
    threshold: float = DEFAULT_YIN_THRESHOLD,
) -> F0Track:
    """Deterministic YIN estimate of a mono signal's F0 track.

    Per frame: the cumulative-mean-normalized difference function is scanned
    for its first dip below `threshold`; the dip is refined by parabolic
    interpolation and confidence is 1 - CMNDF at the refined lag. Frames
    without a dip come out unvoiced with confidence 0.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("expected a mono (1-d) sample array")
    if x.size == 0:
        raise EmptyTrackError("cannot estimate F0 of an empty signal")
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):  # a NaN gives NaN for both
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise DomainError(f"sample {i} is {x[i]}: YIN needs finite samples")
    if sample_rate < 8000:
        raise ConfigurationError(f"sample rate {sample_rate} Hz < 8000 Hz minimum")
    if not 0 < search_min_hz < search_max_hz:
        raise ConfigurationError(f"bad search range {search_min_hz}..{search_max_hz} Hz")
    if not 0 < threshold < np.inf:
        raise ConfigurationError(f"YIN threshold {threshold} is not finite and positive")
    if not np.isfinite([frame_s * sample_rate, hop_s * sample_rate]).all():
        raise ConfigurationError(
            f"frame_s {frame_s} and hop_s {hop_s} must be finite numbers of samples at {sample_rate} Hz"
        )

    window = int(round(frame_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    if window < 2 or hop < 1:
        raise ConfigurationError(f"frame {frame_s}s / hop {hop_s}s too small at {sample_rate} Hz")
    if window < 2.0 * sample_rate / search_min_hz:
        raise ConfigurationError(
            f"frame of {window} samples covers fewer than 2 periods of {search_min_hz} Hz"
        )
    tau_min = max(2, int(np.ceil(sample_rate / search_max_hz)))
    tau_max = int(np.floor(sample_rate / search_min_hz))
    if tau_max <= tau_min:
        raise ConfigurationError(
            f"search range {search_min_hz}..{search_max_hz} Hz collapses at {sample_rate} Hz"
        )
    span = window + tau_max
    if x.size < span:
        raise EmptyTrackError(f"signal of {x.size} samples is shorter than one analysis frame ({span})")

    lags, minima = yin_lag_search(x, window, hop, tau_min, tau_max, threshold)
    voiced = ~np.isnan(lags)
    f0 = np.zeros(lags.shape[0])
    conf = np.zeros(lags.shape[0])
    f0[voiced] = sample_rate / lags[voiced]
    conf[voiced] = np.clip(1.0 - minima[voiced], 0.0, 1.0)
    return F0Track(f0, conf, hop_s=hop / sample_rate)


def import_f0_csv(text) -> F0Track:
    """Read a `time,frequency,confidence` CSV into an F0Track.

    The hop is inferred from the first two rows; rows must start at time 0,
    increase strictly, and keep hop jitter within 1 ms. Frequency 0 marks an
    unvoiced frame. The body is parsed in one `np.loadtxt` call; the rows are
    read again one at a time only to name the row of an error.
    """
    if hasattr(text, "read"):
        text = text.read()
    buf = io.StringIO(text)
    header = next(csv.reader(buf), None)
    if header is None or [h.strip() for h in header] != ["time", "frequency", "confidence"]:
        raise FormatError("expected CSV header 'time,frequency,confidence'")
    body = buf.read()
    try:
        if any(ch in body for ch in "\x1c\x1d\x1e\x1f"):  # np.loadtxt strips these, float() does not
            raise ValueError
        kw = dict(delimiter=",", comments=None, ndmin=2, unpack=True)
        t, f, c = np.loadtxt(io.StringIO(body), **kw) if body.strip("\r\n") else np.zeros((3, 0))
    except ValueError:
        row_nos, values, error, refused_row = _read_rows(text)
        _checked_track(*np.reshape(values, (-1, 3)).T, row_nos.__getitem__, error)
        message = "quoted value, digit underscore, non-ASCII digit, stray CR or whitespace-only line"
        raise FormatError(message, row=refused_row) from None
    return _checked_track(t, f, c, lambda i: _read_rows(text)[0][i])


def _read_rows(text: str):
    """Rows as csv and float() read them, numbered as in the file: numbers and values up to the
    first malformed row, its error (or None), and the first row `np.loadtxt` refuses."""
    lines = io.StringIO(text).readlines()
    reader = csv.reader(lines)
    next(reader)
    row_nos, values, error, refused_row, done = [], [], None, None, reader.line_num
    try:
        for row_no, row in enumerate(reader, start=1):
            line = "".join(lines[done : reader.line_num]).removesuffix("\n").removesuffix("\r")
            done = reader.line_num
            blank = not row or (len(row) == 1 and not row[0].strip())
            # csv and float() take quotes, underscores, inner CRs and non-ASCII digits; np.loadtxt not.
            if refused_row is None and (line if blank else re.search(r'["_\r]|[^\x00-\x7f\s]', line)):
                refused_row = row_no
            if blank:
                continue
            if len(row) != 3:
                error = FormatError(f"expected 3 columns, got {len(row)}", row=row_no)
                break
            try:
                values.append([float(v) for v in row])
            except ValueError:
                error = FormatError(f"non-numeric value in {row!r}", row=row_no)
                break
            row_nos.append(row_no)
    except csv.Error as exc:  # raised as before, once the rows above it are checked
        error = exc
    return row_nos, values, error, refused_row


def _checked_track(t, f, c, row_of, pending=None) -> F0Track:
    """Track of the columns, or the first error in the row checks' order: values, `pending` (a
    malformed row below these), times. `row_of(i)` is the file row number of data row i."""
    bad = (f < 0) | ~((c >= 0) & (c <= 1))
    if bad.any():
        i = int(np.argmax(bad))
        if f[i] < 0:
            raise FormatError(f"negative frequency {float(f[i])}", row=row_of(i))
        raise DomainError(f"confidence {float(c[i])} outside [0, 1] (row {row_of(i)})")
    if pending is not None:
        raise pending
    if t.size == 0:
        return F0Track(np.zeros(0), np.zeros(0), hop_s=DEFAULT_HOP_S)
    non_finite = ~(np.isfinite(t) & np.isfinite(f))
    if non_finite.any():
        i = int(np.argmax(non_finite))
        where = f"{float(t[i])},{float(f[i])}"
        raise FormatError(f"non-finite time or frequency in {where}", row=row_of(i))
    if abs(t[0]) > _HOP_JITTER_S:
        raise FormatError(f"track must start at time 0, got {float(t[0])}", row=row_of(0))
    hop = float(t[1] - t[0]) if t.size > 1 else DEFAULT_HOP_S
    if hop <= 0:
        raise FormatError(f"non-increasing time {float(t[1])}", row=row_of(1))
    delta = np.diff(t)
    bad = (delta <= 0) | (np.abs(delta - hop) > _HOP_JITTER_S)
    if bad.any():
        i = int(np.argmax(bad)) + 1
        if delta[i - 1] <= 0:
            raise FormatError(f"non-increasing time {float(t[i])}", row=row_of(i))
        raise FormatError(f"hop jitter {abs(delta[i - 1] - hop):.6f}s exceeds 1 ms", row=row_of(i))
    return F0Track(f, c, hop_s=hop)


def export_f0_csv(track: F0Track) -> str:
    """Serialize a track back to the canonical CSV form."""
    rows = zip(track.times().tolist(), track.f0_hz.tolist(), track.confidence.tolist())
    lines = (f"{t:.4f},{f:.3f},{c:.6f}" for t, f, c in rows)
    return "\n".join(["time,frequency,confidence", *lines]) + "\n"


def filter_track(track: F0Track, config: FilterConfig = FilterConfig()) -> F0Track:
    """Gate frames by confidence and register, preserving the time base.

    A frame survives iff confidence >= min_confidence and
    min_hz <= f0 <= max_hz (bounds inclusive). Rejected frames become
    unvoiced placeholders (f0 = 0, confidence = 0) so slicing by beat keeps
    uniform sampling. Idempotent.
    """
    keep = (
        (track.confidence >= config.min_confidence)
        & (track.f0_hz >= config.min_hz)
        & (track.f0_hz <= config.max_hz)
    )
    return F0Track(
        np.where(keep, track.f0_hz, 0.0),
        np.where(keep, track.confidence, 0.0),
        hop_s=track.hop_s,
    )


def hz_to_cents(f0_hz, reference_hz):
    """Cents of `f0_hz` above a finite `reference_hz`; accepts scalars or arrays of positives."""
    f0 = np.asarray(f0_hz, dtype=np.float64)
    if not 0 < reference_hz < np.inf or np.any(f0 <= 0):
        raise DomainError("hz_to_cents needs strictly positive frequencies and a finite reference")
    cents = 1200.0 * np.log2(f0 / reference_hz)
    return float(cents) if np.isscalar(f0_hz) else cents


def track_cents(track: F0Track, reference_hz: float = 440.0) -> np.ndarray:
    """Per-frame cents relative to `reference_hz`, NaN where unvoiced.

    Takes anything with `f0_hz`, `voiced` and a length, such as a TrackSegment.
    """
    out = np.full(len(track), np.nan)
    voiced = track.voiced
    out[voiced] = hz_to_cents(track.f0_hz[voiced], reference_hz)
    return out


# Integer WAV sample types: (value of silence, full scale).
_PCM_ZERO_AND_SCALE = {
    np.dtype(np.int16): (0.0, 2.0**15),
    np.dtype(np.int32): (0.0, 2.0**31),
    np.dtype(np.int64): (0.0, 2.0**63),
    np.dtype(np.uint8): (128.0, 128.0),
}


def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a RIFF WAVE file as float64 mono in [-1, 1]; channels are averaged. A file that
    scipy cannot read as a WAV, or whose data ends before its header says, is a `FormatError`
    naming the path."""
    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():  # scipy only warns of a file cut short
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            sample_rate, data = wavfile.read(path)
    except (ValueError, struct.error, wavfile.WavFileWarning) as exc:  # struct: a header cut short
        raise FormatError(f"cannot read WAV file {path}: {exc}") from exc
    data = np.asarray(data)
    if data.dtype in _PCM_ZERO_AND_SCALE:
        # Integer PCM: shifted and scaled once as a channel sum, with no 2-d float image. Up
        # to 32 bits the sum is exact in float64, so this gives the bits of the mean of the
        # scaled channels; a 64-bit sample is rounded to float64 first.
        zero, scale = _PCM_ZERO_AND_SCALE[data.dtype]
        channels = data.reshape(data.shape[0], -1)
        data = channels.sum(axis=1, dtype=np.float64)
        data -= zero * channels.shape[1]
        data /= scale * channels.shape[1]
    elif data.ndim == 2:
        data = data.mean(axis=1)
    return np.ascontiguousarray(data, dtype=np.float64), int(sample_rate)
