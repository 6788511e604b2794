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
from .pitch_track import F0Track
from .score import Score


@dataclass(frozen=True)
class BeatGrid:
    """Complete beat grid for one daemok: global beat k is at `times[k]` seconds, and every
    measure holds `beats_per_measure` beats."""

    times: np.ndarray
    beats_per_measure: int

    def __post_init__(self):
        bpm = self.beats_per_measure
        if bpm < 1:
            raise ValueError("beats_per_measure must be >= 1")
        times = np.array(self.times, dtype=np.float64)
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise ValueError("beat times must be a 1-d array of finite seconds")
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
        return self.n_beats // self.beats_per_measure

    @property
    def last_beat(self) -> int:
        return self.n_beats - 1

    def time_at_beat(self, global_beat):
        """Seconds at a (possibly fractional) global beat; exact at annotations."""
        beat = np.asarray(global_beat, dtype=np.float64)
        if (beat < 0).any() or (beat > self.last_beat).any():
            raise BeatRangeError(f"global beat {global_beat} outside 0..{self.last_beat}")
        out = np.interp(beat, np.arange(self.n_beats), self.times)
        return float(out) if np.isscalar(global_beat) else out

    def beat_at_time(self, time_s):
        """Inverse of `time_at_beat` on the annotated range."""
        t = np.asarray(time_s, dtype=np.float64)
        if (t < self.times[0]).any() or (t > self.times[-1]).any():
            raise BeatRangeError(
                f"time {time_s} outside annotated range "
                f"{self.times[0]:.3f}..{self.times[-1]:.3f} s"
            )
        out = np.interp(t, self.times, np.arange(self.n_beats))
        return float(out) if np.isscalar(time_s) else out


def load_beats(text, beats_per_measure: int = 12) -> BeatGrid:
    """Parse and validate a `measure,beat,time` CSV into a BeatGrid: the one check of its rows."""
    BeatGrid((), beats_per_measure)  # a bad beats_per_measure fails before any row is read
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
    bpm = beats_per_measure
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
    return BeatGrid([r[2] for r in rows], bpm)


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
    def _measures(self) -> tuple[int, list[int], list[Fraction], list[Fraction]]:
        """Each measure's first position (then the score's end) in integer ticks of
        1/`unit` quarter-note beat, and its map `position -> origin + position * scale`.
        Built once, from the events' own onsets."""
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
        bpm = self.grid.beats_per_measure
        scales = [bpm / m.capacity_beats for m in measures]  # grid beats per quarter-note beat
        origins = [m * bpm - downbeat * scale
                   for m, (downbeat, scale) in enumerate(zip(downbeats, scales))]
        unit = math.lcm(*(s.denominator for s in starts))
        ticks = [s.numerator * (unit // s.denominator) for s in starts]
        return unit, ticks, origins, scales

    def beat(self, position: Fraction, end: bool = False) -> Fraction:
        """Grid beat of a score position. With `end`, a position on a barline is
        placed as the end of the measure before it (which differs after a short measure)."""
        unit, ticks, origins, scales = self._measures
        # floor(position * unit) and whether it is exact: the measure is found by
        # comparing integers, with no Fraction comparison.
        tick, rest = divmod(position.numerator * unit, position.denominator)
        m = (bisect_left if end and not rest else bisect_right)(ticks, tick) - 1
        m = min(max(m, 0), len(scales) - 1)
        return origins[m] + position * scales[m]

    @cached_property
    def _tick_table(self) -> tuple | None:
        """`_measures` in int64 for `beats`: the ticks of every measure start but the first
        (one `np.searchsorted` over them finds a position's measure), and each measure's origin
        and scale as numerators over one common denominator; each with its largest magnitude.
        None where a number does not fit int64."""
        unit, ticks, origins, scales = self._measures
        common = math.lcm(*(f.denominator for f in (*origins, *scales)))
        columns = [ticks[1:-1], *([f.numerator * (common // f.denominator) for f in fs]
                                  for fs in (origins, scales))]
        tops = [max(map(abs, column), default=0) for column in columns]
        if max(tops) >= 2**63:
            return None
        return common, *(np.array(column, dtype=np.int64) for column in columns), *tops

    def beats(self, positions, end: bool = False) -> np.ndarray:
        """`float(self.beat(p, end))` for each of `positions`, bitwise, as one float64 array.

        Positions become integer ticks of 1/`den` quarter-note beat, `den` a common multiple of
        the measure ticks' unit and the positions' denominators. Measure m puts tick t at grid
        beat (origin[m] * den + t * scale[m]) / (den * common), with `_tick_table`'s integers.
        The measures are found with one `np.searchsorted` and each numerator is divided once in
        float64: while it and the denominator are at most 2^53 both are exact, so the quotient
        rounds as `float` rounds the `Fraction`. A position whose numerator would pass 2^53
        falls back to `beat`."""
        unit = self._measures[0]
        positions = list(positions)
        den = math.lcm(unit, *(p.denominator for p in positions))
        at = [p.numerator * (den // p.denominator) for p in positions]
        out = np.empty(len(positions))
        exact = np.zeros(len(positions), dtype=bool)
        limit, table = 2**53, self._tick_table
        if positions and table:
            common, ticks, origin, scale, top_tick, top_origin, top_scale = table
            # Every tick and numerator must fit int64, so that the numerators past 2^53 are seen.
            if (den * common <= limit and top_tick * (den // unit) < 2**63
                    and top_origin * den + max(map(abs, at)) * top_scale < 2**63):
                at = np.array(at, dtype=np.int64)
                m = np.searchsorted(ticks * (den // unit), at, "left" if end else "right")
                numerators = origin[m] * den + at * scale[m]
                exact = np.abs(numerators) <= limit
                np.divide(numerators, den * common, out=out)
        if not exact.all():
            for i in np.flatnonzero(~exact):
                out[i] = float(self.beat(positions[i], end))
        return out


@dataclass(frozen=True)
class TrackSegment:
    """F0 frames cut to a beat interval, each carrying its beat coordinate.

    `f0_hz` is a view of the track's own (read-only) frames, not a copy."""

    beats: np.ndarray
    f0_hz: np.ndarray
    hop_s: float

    def __len__(self) -> int:
        return self.f0_hz.shape[0]

    @property
    def voiced(self) -> np.ndarray:
        return self.f0_hz > 0.0


def slice_track(track: F0Track, grid: BeatGrid, start_beat: float, end_beat: float) -> TrackSegment:
    """Frames of `track` with time in [time(start_beat), time(end_beat)).

    Each retained frame carries its interpolated beat position. An empty
    intersection (e.g. a silent lead-in before the first beat) is an empty
    segment, not an error.
    """
    if not start_beat < end_beat:
        raise BeatRangeError(f"inverted beat interval [{start_beat}, {end_beat})")
    hop = track.hop_s
    times = [grid.time_at_beat(start_beat), grid.time_at_beat(end_beat)]
    lo, hi = first_frames(np.array(times), hop, len(track)).tolist()
    beats = grid.beat_at_time(np.arange(lo, hi) * hop)
    return TrackSegment(beats=beats, f0_hz=track.f0_hz[lo:hi], hop_s=hop)


def first_frames(times: np.ndarray, hop: float, n: int) -> np.ndarray:
    """For each of `times`, the first of `n` frames at or after it: the smallest k in 0..n with
    k * hop >= t, frame k being at k * hop seconds as in `F0Track.times`."""
    # t / hop and k * hop are each rounded once, so ceil(t / hop) - 1 is never past it. The
    # frame numbers stay whole floats, exact far beyond any track length.
    frames = np.maximum(np.ceil(np.minimum(np.maximum(times / hop, 0.0), n)) - 1.0, 0.0)
    while (behind := (frames < n) & (frames * hop < times)).any():
        frames += behind
    return frames.astype(np.int64)
