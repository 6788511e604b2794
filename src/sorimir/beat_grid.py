"""Per-measure beat annotations and the beat-position <-> audio-time mapping.

Annotations come from a hand-editable CSV (`measure,beat,time`) and must
form a complete grid: every measure carries exactly beats_per_measure rows.
Between adjacent beats the mapping is linear in time; outside the annotated
range there is no extrapolation (errors are explicit).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import BeatRangeError, BeatValidationError, FormatError, OrderingError
from .pitch_track import F0Track, track_cents


@dataclass(frozen=True)
class BeatAnnotation:
    measure_index: int
    beat_in_measure: int
    time_s: float


@dataclass(frozen=True)
class JangdanSpec:
    name: str = "joongmori"
    beats_per_measure: int = 12

    def __post_init__(self):
        if self.beats_per_measure < 1:
            raise ValueError("beats_per_measure must be >= 1")


@dataclass(frozen=True)
class BeatGrid:
    """Validated, complete beat grid for one daemok."""

    spec: JangdanSpec
    annotations: tuple[BeatAnnotation, ...]

    def __post_init__(self):
        bpm = self.spec.beats_per_measure
        per_measure: dict[int, list[BeatAnnotation]] = {}
        for a in self.annotations:
            per_measure.setdefault(a.measure_index, []).append(a)

        bad: list[tuple[int, str]] = []
        for m in sorted(per_measure):
            beats = sorted(a.beat_in_measure for a in per_measure[m])
            if len(beats) != bpm:
                bad.append((m, f"measure {m} has {len(beats)} beats, expected {bpm}"))
            elif beats != list(range(bpm)):
                bad.append((m, f"measure {m} beat indices do not form 0..{bpm - 1}"))
        if per_measure and sorted(per_measure) != list(range(max(per_measure) + 1)):
            missing = sorted(set(range(max(per_measure) + 1)) - set(per_measure))
            raise BeatValidationError(f"missing measures {missing}", measures=missing)
        if bad:
            raise BeatValidationError("; ".join(d for _, d in bad), measures=[m for m, _ in bad])

        ordered = sorted(self.annotations, key=lambda a: (a.measure_index, a.beat_in_measure))
        times = np.array([a.time_s for a in ordered], dtype=np.float64)
        if np.any(np.diff(times) <= 0):
            i = int(np.nonzero(np.diff(times) <= 0)[0][0]) + 1
            raise OrderingError(
                f"time {times[i]:.6f} at global beat {i} does not increase past {times[i - 1]:.6f}"
            )
        times.flags.writeable = False
        object.__setattr__(self, "annotations", tuple(ordered))
        object.__setattr__(self, "_times", times)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def n_beats(self) -> int:
        return len(self.annotations)

    @property
    def n_measures(self) -> int:
        return self.n_beats // self.spec.beats_per_measure

    @property
    def last_beat(self) -> int:
        return self.n_beats - 1

    def time_at_beat(self, global_beat):
        """Seconds at a (possibly fractional) global beat; exact at annotations."""
        beat = np.asarray(global_beat, dtype=np.float64)
        if np.any(beat < 0) or np.any(beat > self.last_beat):
            raise BeatRangeError(f"global beat {global_beat} outside 0..{self.last_beat}")
        out = np.interp(beat, np.arange(self.n_beats), self._times)
        return float(out) if np.isscalar(global_beat) else out

    def beat_at_time(self, time_s):
        """Inverse of `time_at_beat` on the annotated range."""
        t = np.asarray(time_s, dtype=np.float64)
        if np.any(t < self._times[0]) or np.any(t > self._times[-1]):
            raise BeatRangeError(
                f"time {time_s} outside annotated range "
                f"{self._times[0]:.3f}..{self._times[-1]:.3f} s"
            )
        out = np.interp(t, self._times, np.arange(self.n_beats))
        return float(out) if np.isscalar(time_s) else out


def load_beats(text, spec: JangdanSpec = JangdanSpec()) -> BeatGrid:
    """Parse and validate a `measure,beat,time` CSV into a BeatGrid."""
    if hasattr(text, "read"):
        text = text.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["measure", "beat", "time"]:
        raise FormatError("expected CSV header 'measure,beat,time'")

    rows: list[tuple[int, int, float, int]] = []
    for row_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 columns, got {len(row)}", row=row_no)
        try:
            m, b, t = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise FormatError(f"non-numeric value in {row!r}", row=row_no) from None
        if m < 0 or b < 0:
            raise FormatError(f"negative measure/beat index in {row!r}", row=row_no)
        if not math.isfinite(t):
            raise FormatError(f"non-finite time {t}", row=row_no)
        if t < 0:
            raise FormatError(f"negative time {t}", row=row_no)
        rows.append((m, b, t, row_no))

    seen: dict[tuple[int, int], int] = {}
    for m, b, _, row_no in rows:
        if (m, b) in seen:
            raise FormatError(f"duplicate annotation for measure {m} beat {b}", row=row_no)
        seen[(m, b)] = row_no

    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur[2] <= prev[2]:
            raise OrderingError(
                f"time {cur[2]} at measure {cur[0]} beat {cur[1]} does not increase",
                row=cur[3],
            )

    annotations = tuple(BeatAnnotation(m, b, t) for m, b, t, _ in ordered)
    return BeatGrid(spec=spec, annotations=annotations)


@dataclass(frozen=True)
class TrackSegment:
    """F0 frames cut to a beat interval, each carrying its beat coordinate."""

    times: np.ndarray
    beats: np.ndarray
    f0_hz: np.ndarray
    confidence: np.ndarray
    hop_s: float

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def voiced(self) -> np.ndarray:
        return self.f0_hz > 0.0

    def cents(self, reference_hz: float = 440.0) -> np.ndarray:
        """Per-frame cents relative to `reference_hz`, NaN where unvoiced."""
        return track_cents(self, reference_hz)


def slice_track(track: F0Track, grid: BeatGrid, start_beat: float, end_beat: float) -> TrackSegment:
    """Frames of `track` with time in [time(start_beat), time(end_beat)).

    Each retained frame carries its interpolated beat position. An empty
    intersection (e.g. a silent lead-in before the first beat) is an empty
    segment, not an error.
    """
    if not start_beat < end_beat:
        raise BeatRangeError(f"inverted beat interval [{start_beat}, {end_beat})")
    hop, n = track.hop_s, len(track)

    def first_frame(t: float) -> int:  # smallest k in 0..n with k * hop >= t, as in track.times()
        # t / hop and k * hop are each rounded once, so ceil(t / hop) - 1 is never past it.
        start = max(math.ceil(min(max(t / hop, 0.0), n)) - 1, 0)
        return next(k for k in range(start, n + 1) if k == n or k * hop >= t)

    lo, hi = first_frame(grid.time_at_beat(start_beat)), first_frame(grid.time_at_beat(end_beat))
    if hi <= lo:
        return TrackSegment(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), hop_s=hop)
    frame_times = np.arange(lo, hi) * hop
    return TrackSegment(
        times=frame_times,
        beats=grid.beat_at_time(frame_times),
        f0_hz=track.f0_hz[lo:hi].copy(),
        confidence=track.confidence[lo:hi].copy(),
        hop_s=hop,
    )
