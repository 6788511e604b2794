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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice

import numpy as np

from .errors import BeatRangeError, BeatValidationError, FormatError, OrderingError
from .pitch_track import F0Track, track_cents
from .score import Score


@dataclass(frozen=True)
class JangdanSpec:
    name: str = "joongmori"
    beats_per_measure: int = 12

    def __post_init__(self):
        if self.beats_per_measure < 1:
            raise ValueError("beats_per_measure must be >= 1")


@dataclass(frozen=True)
class BeatGrid:
    """Complete beat grid for one daemok: global beat k is at `times[k]` seconds."""

    spec: JangdanSpec
    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise ValueError("beat times must be a 1-d array of finite seconds")
        bpm = self.spec.beats_per_measure
        m, short = divmod(times.shape[0], bpm)
        if short:
            raise BeatValidationError(f"measure {m} has {short} beats, expected {bpm}", [m])
        if np.any(np.diff(times) <= 0):
            i = int(np.nonzero(np.diff(times) <= 0)[0][0]) + 1
            raise OrderingError(
                f"time {times[i]:.6f} at global beat {i} does not increase past {times[i - 1]:.6f}"
            )
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def n_beats(self) -> int:
        return self.times.shape[0]

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
        out = np.interp(beat, np.arange(self.n_beats), self.times)
        return float(out) if np.isscalar(global_beat) else out

    def beat_at_time(self, time_s):
        """Inverse of `time_at_beat` on the annotated range."""
        t = np.asarray(time_s, dtype=np.float64)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise BeatRangeError(
                f"time {time_s} outside annotated range "
                f"{self.times[0]:.3f}..{self.times[-1]:.3f} s"
            )
        out = np.interp(t, self.times, np.arange(self.n_beats))
        return float(out) if np.isscalar(time_s) else out


def load_beats(text, spec: JangdanSpec = JangdanSpec()) -> BeatGrid:
    """Parse and validate a `measure,beat,time` CSV into a BeatGrid: the one check of its rows."""
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
    if not rows:
        raise BeatValidationError("no beat annotations")

    rows.sort(key=lambda r: (r[0], r[1]))  # stable: a repeated (measure, beat) keeps file order
    pairs = list(zip(rows, rows[1:]))
    repeats = [cur for prev, cur in pairs if cur[:2] == prev[:2]]
    if repeats:
        m, b, _, row_no = min(repeats, key=lambda r: r[3])
        raise FormatError(f"duplicate annotation for measure {m} beat {b}", row=row_no)
    for prev, (m, b, t, row_no) in pairs:
        if t <= prev[2]:
            raise OrderingError(f"time {t} at measure {m} beat {b} does not increase", row=row_no)

    # Beats of a measure are distinct and sorted, so they are 0..bpm-1 iff there are bpm of them
    # and the last is bpm - 1.
    bpm = spec.beats_per_measure
    beats = {m: [r[1] for r in group] for m, group in groupby(rows, key=lambda r: r[0])}
    n_measures = max(beats) + 1
    if missing_total := n_measures - len(beats):
        missing = list(islice((m for m in range(n_measures) if m not in beats), 10))
        tail = f" (first 10 of {missing_total})" if missing_total > 10 else ""
        raise BeatValidationError(f"missing measures {missing}{tail}", measures=missing)
    bad = {
        m: f"measure {m} has {len(b)} beats, expected {bpm}" if len(b) != bpm
        else f"measure {m} beat indices do not form 0..{bpm - 1}"
        for m, b in beats.items() if len(b) != bpm or b[-1] != bpm - 1
    }
    if bad:
        raise BeatValidationError("; ".join(bad.values()), measures=list(bad))
    return BeatGrid(spec, [r[2] for r in rows])


@dataclass(frozen=True)
class ScoreGrid:
    """A daemok's beat grid read against its score: score positions to grid beats.

    Score positions are quarter-note beats from the score's start, as in
    `NoteEvent.onset_beats`. Score measure m is grid measure m, whichever pulse
    the annotator tapped, so the two must have the same number of measures
    (`BeatValidationError` otherwise). A position in measure m lies at grid beat
    m * beats_per_measure + (position - downbeat) * beats_per_measure / capacity,
    where `capacity` is the measure's time-signature length and `downbeat` its
    first position. A pickup, a first measure marked implicit and shorter than
    its time signature, ends on grid measure 1's downbeat: its notes fill the
    last beats of grid measure 0. Any later short measure starts on its downbeat.
    """

    score: Score
    grid: BeatGrid

    def __post_init__(self):
        if len(self.score.measures) != self.grid.n_measures:
            raise BeatValidationError(
                f"beat grid has {self.grid.n_measures} measures but the score has "
                f"{len(self.score.measures)}"
            )

    @cached_property
    def _measures(self) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
        """Each measure's first position (then the score's end), and its map
        `position -> origin + position * scale`. Built once, from the events' own onsets."""
        measures = self.score.measures
        starts = [m.events[0].onset_beats if m.events else None for m in measures]
        last = next((m.events[-1] for m in reversed(measures) if m.events), None)
        starts.append(last.onset_beats + last.duration_beats if last else Fraction(0))
        for m in reversed(range(len(measures))):  # an empty measure starts where the next one does
            if starts[m] is None:
                starts[m] = starts[m + 1]
        downbeats = starts[:-1]
        first = measures[0] if measures else None
        if first and first.is_pickup and starts[1] - starts[0] < first.capacity_beats:
            downbeats[0] = starts[1] - first.capacity_beats
        bpm = self.grid.spec.beats_per_measure
        scales = [bpm / m.capacity_beats for m in measures]  # grid beats per quarter-note beat
        origins = [m * bpm - downbeat * scale
                   for m, (downbeat, scale) in enumerate(zip(downbeats, scales))]
        return starts, origins, scales

    def beat(self, position: Fraction, end: bool = False) -> Fraction:
        """Grid beat of a score position. With `end`, a position on a barline is
        placed as the end of the measure before it (which differs after a short measure)."""
        starts, origins, scales = self._measures
        m = (bisect_left if end else bisect_right)(starts, position) - 1
        m = min(max(m, 0), len(scales) - 1)
        return origins[m] + position * scales[m]


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
