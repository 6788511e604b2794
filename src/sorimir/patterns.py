"""Word-like note tokens, n-gram pattern mining, and per-pattern F0 analysis.

Each note becomes one token `<pitch-name>:<duration>` (rests as `R:<duration>`,
durations as lowest-terms rationals), so recurring melodic figures can be
counted as contiguous n-grams and their sung realizations compared across
daemok via beat-aligned F0 contours.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, compress
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .beat_grid import ScoreGrid, first_frames, slice_track
from .errors import ConfigurationError, DependencyError, NotEnoughDataError
from .pitch_track import F0Track, track_cents
from .score import NoteEvent, Pitch, fraction_str, parse_pitch_name, pitch_name

REST_STEP = "R"
DEFAULT_N_VALUES = (2, 3, 4, 6)
DEFAULT_MIN_SUPPORT = 2
DEFAULT_SAMPLES_PER_CONTOUR = 200


def make_token(pitch: Pitch | None, duration: Fraction) -> str:
    if duration.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"duration {duration} must be > 0")
    head = REST_STEP if pitch is None else pitch_name(pitch)
    return f"{head}:{fraction_str(duration)}"


@lru_cache(maxsize=65536)
def parse_token(text: str) -> tuple[Pitch | None, Fraction]:
    """Inverse of `make_token`; rejects tokens not in canonical form."""
    head, sep, dur_text = text.partition(":")
    if not sep:
        raise ValueError(f"token {text!r} has no ':' separator")
    try:
        duration = Fraction(dur_text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"token {text!r} has unparseable duration {dur_text!r}") from None
    pitch = None if head == REST_STEP else parse_pitch_name(head)
    canonical = make_token(pitch, duration)
    if canonical != text:
        raise ValueError(f"token {text!r} is not canonical (expected {canonical!r})")
    return pitch, duration


def tokenize(events: Sequence[NoteEvent]) -> list[str]:
    """One token per (tie-merged) event; bijective with (pitch, duration)."""
    return [make_token(e.pitch, e.duration_beats) for e in events]


@dataclass(frozen=True)
class NGramPattern:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) < 2:
            raise ValueError("an n-gram pattern needs n >= 2 tokens")
        for t in self.tokens:
            parse_token(t)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @classmethod
    def from_text(cls, text: str) -> "NGramPattern":
        try:
            return cls(tuple(text.split()))
        except ValueError as exc:
            raise ValueError(f"pattern {text!r}: {exc}") from None


class PatternOccurrence(NamedTuple):  # a tuple: tens of thousands per corpus, built cheaply
    daemok_id: str
    start_event_index: int
    onset_beats: Fraction
    span_beats: Fraction


@dataclass(frozen=True)
class PatternIndex:
    """Mined patterns sorted by descending support (ties by token text)."""

    patterns: tuple[NGramPattern, ...]
    occurrences: Mapping[NGramPattern, tuple[PatternOccurrence, ...]]
    n_values: tuple[int, ...]
    min_support: int
    skip_rests: bool = False

    def support(self, pattern: NGramPattern) -> int:
        return len(self.occurrences.get(pattern, ()))

    def __len__(self) -> int:
        return len(self.patterns)


def check_pattern_settings(
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    min_support: int = DEFAULT_MIN_SUPPORT,
    samples_per_contour: int = DEFAULT_SAMPLES_PER_CONTOUR,
) -> None:
    """Raise `ConfigurationError` for a mining or contour setting no corpus can satisfy."""
    if not n_values:
        raise ConfigurationError("n_values must not be empty")
    if any(n < 2 for n in n_values):
        raise ConfigurationError(f"n-gram lengths must be >= 2, got {sorted(n_values)}")
    if min_support < 1:
        raise ConfigurationError(f"min_support must be >= 1, got {min_support}")
    if samples_per_contour < 2:
        raise ConfigurationError("samples_per_contour must be >= 2")


def mine_ngrams(
    sequences: Mapping[str, Sequence[str]],
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    min_support: int = DEFAULT_MIN_SUPPORT,
    skip_rests: bool = False,
) -> PatternIndex:
    """Count every contiguous n-token window across all sequences.

    With `skip_rests`, windows run over the non-rest tokens, while onsets
    stay those of the full sequence: an occurrence starts at its first
    note's onset, spans to the end of its last note, and its
    `start_event_index` indexes the full sequence.

    Patterns below `min_support` total occurrences are dropped. The result
    is independent of the mapping's key order: occurrence lists are sorted
    by (daemok_id, onset) and patterns by descending support, ties broken
    by token text.
    """
    check_pattern_settings(n_values, min_support)

    ids = sorted(sequences)
    # Prefix sums of token durations, in integer ticks at the LCM of their denominators, give
    # each window's onset and span; each distinct tick count becomes one shared Fraction.
    durations = {t: parse_token(t)[1] for daemok_id in ids for t in sequences[daemok_id]}
    scale = math.lcm(*{d.denominator for d in durations.values()})
    ticks = {t: d.numerator * (scale // d.denominator) for t, d in durations.items()}
    beats = lru_cache(maxsize=None)(partial(Fraction, denominator=scale))
    # daemok id -> (window tokens, their sequence indices, onsets, tick onsets, tick stops)
    windows = {}
    for i in ids:
        seq = sequences[i]
        cum = list(accumulate(map(ticks.__getitem__, seq), initial=0))
        at = [k for k, t in enumerate(seq) if not (skip_rests and parse_token(t)[0] is None)]
        starts = [cum[k] for k in at]
        stops = [0] + [cum[k + 1] for k in at]  # window token j ends at stops[j + 1]
        windows[i] = (tuple(seq[k] for k in at), at, list(map(beats, starts)), starts, stops)

    found: dict[tuple[str, ...], list[PatternOccurrence]] = {}
    for n in sorted(set(n_values)):
        if all(len(windows[i][0]) < n for i in ids):
            warnings.warn(f"no sequence is long enough for {n}-grams", stacklevel=2)
            continue
        for daemok_id in ids:
            tokens, positions, onsets, starts, stops = windows[daemok_id]
            for start in range(len(tokens) - n + 1):
                occ = PatternOccurrence(daemok_id, positions[start], onsets[start],
                                        beats(stops[start + n] - starts[start]))
                found.setdefault(tokens[start : start + n], []).append(occ)

    kept = {NGramPattern(k): tuple(o) for k, o in found.items() if len(o) >= min_support}
    ordered = tuple(sorted(kept, key=lambda p: (-len(kept[p]), p.text)))
    return PatternIndex(
        patterns=ordered,
        occurrences=kept,
        n_values=tuple(sorted(set(n_values))),
        min_support=min_support,
        skip_rests=skip_rests,
    )


@dataclass(frozen=True)
class VibratoMetrics:
    rate_hz: float
    depth_cents: float
    voiced_fraction: float


@dataclass(frozen=True)
class Contour:
    """One occurrence's F0 in cents on a normalized beat axis (NaN = unvoiced).

    The first field is the `values` array, or a function that returns it:
    `occurrence_contours` gives its contour's row of one read-only array for
    the whole pattern, resampled on the first read of any contour's `values`
    and kept, so a pattern whose values are never read is never resampled.
    `vibrato` holds the metrics of the same slice, or None when it has too
    little voiced data: `occurrence_contours` measures them for all of the
    pattern's occurrences at once, in one `_vibrato_rows` pass per track hop.
    """

    _values: np.ndarray | Callable[[], np.ndarray]
    daemok_id: str
    onset_beats: Fraction
    span_beats: Fraction
    vibrato: VibratoMetrics | None = None

    @property
    def values(self) -> np.ndarray:
        if callable(self._values):
            object.__setattr__(self, "_values", self._values())
        return self._values

    @property
    def label(self) -> str:
        return f"{self.daemok_id} @ {fraction_str(self.onset_beats)}"


# Samples in a block of contour rows, which the resampling and the contour writers work on at
# once, and frames in a block of rows of the vibrato pass: a block's temporaries stay within
# some ten to twenty 8-byte arrays of this size (2.6 to 5.2 MB), however many occurrences a
# pattern has.
BLOCK_SAMPLES = 1 << 15


def _resample_rows(rows: Sequence[tuple[np.ndarray, np.ndarray]], samples: int) -> np.ndarray:
    """Each `(beats, cents)` of `rows` resampled linearly onto `samples` uniform points over
    its sampled beat range: one read-only row each.

    A target between two voiced frames is interpolated; a target next to any unvoiced frame
    stays NaN, so gaps are never bridged. A row of one frame, or whose first and last beats
    are equal, is its first cents value throughout, and a row of no frames is all NaN. The
    rows are resampled in blocks of at most `BLOCK_SAMPLES` targets, each row by the same
    operations as on its own, so a row does not depend on the rows beside it.
    """
    out = np.full((len(rows), samples), np.nan)
    unit = np.linspace(0.0, 1.0, samples)
    step = max(1, BLOCK_SAMPLES // samples)
    for first in range(0, len(rows), step):
        at, beats, cents = [], [], []  # the block's rows that have a beat range to resample
        for i, (b, c) in enumerate(rows[first : first + step], first):
            if b.shape[0] > 1 and b[-1] != b[0]:
                at.append(i)
                beats.append(b)
                cents.append(c)
            elif b.shape[0]:
                out[i] = c[0]
        if not at:
            continue
        lengths = np.array([b.shape[0] for b in beats])
        offsets = np.cumsum(lengths) - lengths  # each row's first frame in the joined arrays
        flat_beats, flat_cents = np.concatenate(beats), np.concatenate(cents)
        b0, b1 = flat_beats[offsets], flat_beats[offsets + lengths - 1]
        targets = b0[:, None] + (b1 - b0)[:, None] * unit
        left = np.empty(targets.shape, dtype=np.intp)
        for k, b in enumerate(beats):
            left[k] = np.searchsorted(b, targets[k], side="right")
        left = np.clip(left - 1, 0, (lengths - 2)[:, None]) + offsets[:, None]
        right = left + 1
        y0 = flat_cents[left]
        y1 = flat_cents[right]
        both = ~np.isnan(y0) & ~np.isnan(y1)
        width = flat_beats[right] - flat_beats[left]
        frac = np.where(width > 0, (targets - flat_beats[left]) / np.where(width > 0, width, 1.0),
                        0.0)
        vals = y0 + (y1 - y0) * np.clip(frac, 0.0, 1.0)
        out[at] = np.where(both, vals, np.nan)
    out.flags.writeable = False
    return out


class _Resampling:
    """The rows of `_resample_rows(rows, samples)`, all resampled on the first read of any."""

    def __init__(self, rows: list[tuple[np.ndarray, np.ndarray]], samples: int):
        self._rows: list | np.ndarray = rows
        self._samples = samples

    def row(self, i: int) -> np.ndarray:
        if isinstance(self._rows, list):
            self._rows = _resample_rows(self._rows, self._samples)
        return self._rows[i]


class Placement(NamedTuple):
    """One occurrence on its daemok's F0 track: the track's frames `lo:hi`, their grid beats
    and cents (views of arrays that the daemok's other placements share) and the track's hop."""

    lo: int
    hi: int
    beats: np.ndarray
    cents: np.ndarray
    hop_s: float


def place_occurrences(
    index: PatternIndex,
    patterns: Iterable[NGramPattern],
    grids: Mapping[str, ScoreGrid],
    tracks: Mapping[str, F0Track],
    reference_hz: float = 440.0,
) -> dict[NGramPattern, list[Placement | str | None]]:
    """Every occurrence of each of `patterns` that the index holds, placed in one pass per daemok.

    A daemok's occurrences get their start and end grid beats from two `ScoreGrid.beats`
    calls, and the times of those beats from one `np.interp` and their frames from one
    `first_frames`, the rule of `slice_track`. One `slice_track` from the first start to the
    last end and one `track_cents` give the frames' beats and cents, of which each occurrence
    is a `lo:hi` view: no frame is sliced twice, and no array reaches past the occurrences.
    Each pattern maps to one entry per occurrence, in index order: its `Placement`, the text
    of its warning if it runs past the grid (which cannot place it in time), or None if its
    daemok has no grid or no track.
    """
    placements = {p: [None] * len(index.occurrences[p]) for p in patterns if p in index.occurrences}
    by_daemok: dict[str, list[tuple[list, int, PatternOccurrence]]] = {}
    for pattern, slots in placements.items():
        for i, occ in enumerate(index.occurrences[pattern]):
            if occ.daemok_id in grids and occ.daemok_id in tracks:
                by_daemok.setdefault(occ.daemok_id, []).append((slots, i, occ))
    for daemok_id, items in by_daemok.items():
        placed, track = grids[daemok_id], tracks[daemok_id]
        grid = placed.grid
        starts = placed.beats(occ.onset_beats for _, _, occ in items)
        ends = placed.beats((occ.onset_beats + occ.span_beats for _, _, occ in items), end=True)
        inside = (starts >= 0) & (ends <= grid.last_beat)
        for (slots, i, _), start in zip(compress(items, ~inside), starts[~inside].tolist()):
            slots[i] = (f"occurrence at {daemok_id} beat {start} runs past the annotated grid; "
                        "skipped")
        if not inside.any():
            continue
        count, hop = int(np.count_nonzero(inside)), track.hop_s
        bounds = np.concatenate([starts[inside], ends[inside]])  # each start beat, then each end
        times = np.interp(bounds, np.arange(grid.n_beats), grid.times)
        frames = first_frames(times, hop, len(track))
        segment = slice_track(track, grid, float(bounds[:count].min()), float(bounds[count:].max()))
        cents = track_cents(segment, reference_hz)
        first = int(frames[:count].min())  # the segment's first frame
        for (slots, i, _), lo, hi in zip(compress(items, inside), frames[:count].tolist(),
                                         frames[count:].tolist()):
            slots[i] = Placement(lo, hi, segment.beats[lo - first : hi - first],
                                 cents[lo - first : hi - first], hop)
    return placements


def occurrence_contours(
    index: PatternIndex,
    pattern: NGramPattern,
    grids: Mapping[str, ScoreGrid],
    tracks: Mapping[str, F0Track],
    samples_per_contour: int = DEFAULT_SAMPLES_PER_CONTOUR,
    reference_hz: float = 440.0,
    placements: Mapping[NGramPattern, list] | None = None,
) -> list[Contour]:
    """Beat-aligned cents contour and vibrato metrics of every occurrence of `pattern`.

    The occurrences are read from `placements`, `place_occurrences` of some patterns that
    include this one with the same grids, tracks and `reference_hz`, or placed here when it
    is None. The vibrato of every placed occurrence is measured here, in one `_vibrato_rows`
    pass over those on tracks of each hop (CSV and WAV daemok can differ). The contours are
    resampled to `samples_per_contour` points, all in one `_resample_rows` pass, when the
    first of them has its `values` read.
    Occurrences whose span runs past the annotated beat grid are skipped with a warning (the
    grid cannot place them in time). Fully unvoiced slices yield all-missing contours and
    are kept.
    """
    check_pattern_settings(samples_per_contour=samples_per_contour)
    if pattern not in index.occurrences:
        raise ConfigurationError(f"pattern {pattern.text!r} is not in the index")
    if placements is None:
        placements = place_occurrences(index, [pattern], grids, tracks, reference_hz)

    placed: list[tuple[PatternOccurrence, Placement]] = []
    for occ, place in zip(index.occurrences[pattern], placements[pattern]):
        if occ.daemok_id not in grids:
            raise DependencyError(f"no beat grid for daemok '{occ.daemok_id}'")
        if occ.daemok_id not in tracks:
            raise DependencyError(f"no F0 track for daemok '{occ.daemok_id}'")
        if isinstance(place, str):
            warnings.warn(place, stacklevel=2)
            continue
        placed.append((occ, place))

    by_hop: dict[float, list[int]] = {}  # hop -> the placed occurrences on tracks of that hop
    for i, (_, place) in enumerate(placed):
        by_hop.setdefault(place.hop_s, []).append(i)
    vibrato: list[VibratoMetrics | None] = [None] * len(placed)
    for hop_s, at in by_hop.items():
        for i, metrics in zip(at, _vibrato_rows([placed[i][1].cents for i in at], hop_s)):
            vibrato[i] = metrics

    resampling = _Resampling([(place.beats, place.cents) for _, place in placed],
                             samples_per_contour)
    return [
        Contour(partial(resampling.row, i), daemok_id=occ.daemok_id,
                onset_beats=occ.onset_beats, span_beats=occ.span_beats, vibrato=metrics)
        for i, ((occ, _), metrics) in enumerate(zip(placed, vibrato))
    ]


def occurrence_vibrato(
    index: PatternIndex,
    pattern: NGramPattern,
    contours: Sequence[Contour],
) -> list[tuple[PatternOccurrence, VibratoMetrics | None]]:
    """Each occurrence of `pattern`, in index order, with its contour's vibrato metrics.

    `contours` is `occurrence_contours` of the same pattern; nothing is
    sliced again. An occurrence with no contour (past the grid) or with too
    little voiced data reports None.
    """
    by_onset = {(c.daemok_id, c.onset_beats): c.vibrato for c in contours}
    return [
        (occ, by_onset.get((occ.daemok_id, occ.onset_beats)))
        for occ in index.occurrences[pattern]
    ]


def _check_seconds(**seconds: float) -> None:
    """`ConfigurationError` unless every one of `seconds` is a finite positive number."""
    for name, value in seconds.items():
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be a finite positive number, got {value}")


def _series(cents) -> np.ndarray:
    """`cents` as a float64 array; `ConfigurationError` unless it is 1-d."""
    cents = np.asarray(cents, dtype=np.float64)
    if cents.ndim != 1:
        raise ConfigurationError(f"cents must be a 1-d series, got shape {cents.shape}")
    return cents


def _vibrato_rows(
    rows: Sequence[np.ndarray],
    hop_s: float,
    detrend_window_s: float = 0.25,
    min_voiced_s: float = 0.3,
) -> list[VibratoMetrics | None]:
    """`vibrato_metrics` of each cents series of `rows`, all sampled every `hop_s`, measured
    in one pass: None for a row with less than `min_voiced_s` of voiced data.

    The rows are measured in blocks of at most `BLOCK_SAMPLES` frames (a longer row is a
    block of its own). Each row's trend sums are one `np.convolve` of that row alone and
    every other step is an elementwise operation, a reduction over the row's own frames or a
    mean over a row of its own cycles, so a row's metrics do not depend on the rows beside it.
    A detrending window longer than a row averages, at each frame, the frames of the window
    that fall inside the row.
    """
    _check_seconds(hop_s=hop_s, detrend_window_s=detrend_window_s, min_voiced_s=min_voiced_s)
    rows = [_series(r) for r in rows]
    # An even window grows to the next odd one, 2 * half + 1 frames; capped so int() cannot
    # overflow, since a half window as long as a row already covers all of it.
    half = max(1, int(round(min(detrend_window_s / hop_s, 2.0**53)))) // 2
    out: list[VibratoMetrics | None] = []
    while len(out) < len(rows):
        stop, total = len(out) + 1, rows[len(out)].shape[0]
        while stop < len(rows) and total + rows[stop].shape[0] <= BLOCK_SAMPLES:
            total += rows[stop].shape[0]
            stop += 1
        out += _vibrato_block(rows[len(out) : stop], hop_s, half, min_voiced_s)
    return out


def _vibrato_block(rows: list[np.ndarray], hop_s: float, half: int,
                   min_voiced_s: float) -> list[VibratoMetrics | None]:
    """`_vibrato_rows` of one block of rows, detrended over windows of 2 * `half` + 1 frames."""
    lengths = np.array([r.shape[0] for r in rows])
    flat = np.concatenate(rows)
    voiced = np.isfinite(flat)
    voiced_before = np.concatenate([[0], np.cumsum(voiced)])  # voiced frames before each frame
    ends = np.cumsum(lengths)
    n_voiced = voiced_before[ends] - voiced_before[ends - lengths]
    durations = n_voiced * hop_s
    enough = durations >= min_voiced_s
    measured = np.flatnonzero(enough)
    out: list[VibratoMetrics | None] = [None] * len(rows)
    if not measured.size:
        return out

    # The voiced frames of the measured rows, `raw`, and their rows (numbered 0.. among them).
    at = np.flatnonzero(voiced & np.repeat(enough, lengths))
    starts = (ends - lengths)[measured]
    lengths, n_voiced, durations = lengths[measured], n_voiced[measured], durations[measured]
    row_of = np.repeat(np.arange(measured.size), n_voiced)
    raw = flat[at]

    # A row's trend sums are its "full" convolution with a window of 2 * h + 1 ones, whose
    # entry i + h is the sum centred on frame i: the row's "same" convolution when the window
    # fits in the row. A half window h of n frames already spans a whole row of n.
    row_half = np.minimum(half, lengths)
    filled = np.where(voiced, flat, 0.0)
    kernel = np.ones(2 * int(row_half.max()) + 1)
    sums = np.concatenate([
        np.convolve(filled[start : start + n], kernel[: 2 * h + 1], mode="full")
        for start, n, h in zip(starts.tolist(), lengths.tolist(), row_half.tolist())
    ])
    full_start = np.cumsum(lengths + 2 * row_half) - (lengths + 2 * row_half)
    # A centred window's voiced count: the voiced frames before its clamped end minus those
    # before its clamped start, exactly what a convolution of the voiced mask counts.
    row_start, row_end = starts[row_of], (starts + lengths)[row_of]
    counts = (voiced_before[np.minimum(at + half + 1, row_end)]
              - voiced_before[np.maximum(at - half, row_start)])
    comp = raw - sums[at + (full_start + row_half - starts)[row_of]] / counts

    # Zero crossings: sign changes between consecutive nonzero signs of the same row.
    signs = np.sign(comp)
    nonzero = np.flatnonzero(signs != 0)
    sign_seq, sign_row = signs[nonzero], row_of[nonzero]
    changes = (sign_seq[1:] != sign_seq[:-1]) & (sign_row[1:] == sign_row[:-1])
    crossings, crossing_row = nonzero[1:][changes], sign_row[1:][changes]
    n_crossings = np.bincount(crossing_row, minlength=measured.size)

    rate = n_crossings / (2.0 * durations)
    depth = np.zeros(measured.size)
    few = np.flatnonzero((n_crossings > 0) & (n_crossings < 3))
    if few.size:
        voiced_start = np.cumsum(n_voiced) - n_voiced
        row_hi = np.maximum.reduceat(raw, voiced_start)[few]
        row_lo = np.minimum.reduceat(raw, voiced_start)[few]
        depth[few] = (row_hi - row_lo) / 2.0
    if crossings.size >= 3:
        # Cycle i, raw[crossings[i] : crossings[i + 2] + 1], is segments i and i + 1 plus one
        # sample; it is a cycle of its row when crossing i + 2 is in the same row.
        seg_hi = np.maximum.reduceat(raw, crossings)
        seg_lo = np.minimum.reduceat(raw, crossings)
        cycle_ends = raw[crossings[2:]]
        hi = np.maximum(np.maximum(seg_hi[:-2], seg_hi[1:-1]), cycle_ends)
        lo = np.minimum(np.minimum(seg_lo[:-2], seg_lo[1:-1]), cycle_ends)
        halves = ((hi - lo) / 2.0)[crossing_row[:-2] == crossing_row[2:]]
        cycles = np.maximum(n_crossings - 2, 0)
        cycle_start = np.cumsum(cycles) - cycles
        # Rows of equal cycle count are averaged together, a row each, by the sum and division
        # of `np.mean` of a row's cycles alone (a reduceat over all rows sums in another order).
        by_count = np.argsort(cycles)
        sizes, first = np.unique(cycles[by_count], return_index=True)
        for m, begin, stop in zip(sizes.tolist(), first.tolist(),
                                  [*first[1:].tolist(), len(cycles)]):
            if m:
                same = by_count[begin:stop]
                depth[same] = np.add.reduce(halves[cycle_start[same, None] + np.arange(m)],
                                            axis=1) / m
    fraction = n_voiced / lengths
    for i, r, d, f in zip(measured.tolist(), rate.tolist(), depth.tolist(), fraction.tolist()):
        out[i] = VibratoMetrics(rate_hz=r, depth_cents=d, voiced_fraction=f)
    return out


def vibrato_metrics(
    cents: np.ndarray,
    hop_s: float,
    detrend_window_s: float = 0.25,
    min_voiced_s: float = 0.3,
) -> VibratoMetrics:
    """Rate and depth of periodic pitch modulation in a cents series.

    The series is detrended by a centered moving average; the detrended
    zero crossings set the rate and delimit cycles, and depth is the mean
    per-cycle half peak-to-peak excursion of the raw series (measuring on
    the raw series avoids the detrender's passband ripple). It is the
    one-row case of `_vibrato_rows`.
    """
    (metrics,) = _vibrato_rows([cents], hop_s, detrend_window_s, min_voiced_s)
    if metrics is None:
        voiced_duration = np.count_nonzero(np.isfinite(cents)) * hop_s
        raise NotEnoughDataError(
            f"{voiced_duration:.3f}s of voiced data < {min_voiced_s}s minimum"
        )
    return metrics


def onset_glide(cents: np.ndarray, hop_s: float, window_s: float = 0.3) -> float:
    """Signed cents rise over the first `window_s` of voiced data.

    Computed as the median of pairwise slopes (robust to vibrato wiggle)
    scaled by the window length; positive means ascending.
    """
    _check_seconds(hop_s=hop_s, window_s=window_s)
    cents = _series(cents)
    voiced = np.isfinite(cents)
    idx = np.nonzero(voiced)[0]
    if idx.size == 0:
        raise NotEnoughDataError("no voiced frames")
    times = np.arange(cents.shape[0]) * hop_s
    t0 = times[idx[0]]
    sel = voiced & (times <= t0 + window_s + 1e-12)
    k = int(np.count_nonzero(sel))
    if k * hop_s < window_s - 1e-9:
        raise NotEnoughDataError(
            f"{k * hop_s:.3f}s of voiced data in the first {window_s}s window"
        )
    ts = times[sel]
    ys = cents[sel]
    i, j = np.triu_indices(k, k=1)
    slopes = (ys[j] - ys[i]) / (ts[j] - ts[i])
    return float(np.median(slopes)) * window_s


def find_post_rest_long_notes(events: Sequence[NoteEvent], min_duration_beats) -> list[int]:
    """Indices of notes >= `min_duration_beats` entered from a rest or piece start."""
    out = []
    for i, ev in enumerate(events):
        if ev.is_rest or ev.duration_beats < min_duration_beats:
            continue
        if i == 0 or events[i - 1].is_rest:
            out.append(i)
    return out
