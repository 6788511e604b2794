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
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .beat_grid import ScoreGrid, slice_track
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
        return cls(tuple(text.split()))


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
    if not n_values:
        raise ConfigurationError("n_values must not be empty")
    if any(n < 2 for n in n_values):
        raise ConfigurationError(f"n-gram lengths must be >= 2, got {sorted(n_values)}")
    if min_support < 1:
        raise ConfigurationError(f"min_support must be >= 1, got {min_support}")

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
    `occurrence_contours` gives the resampling, which then runs on the first
    read of `values` and is kept, so a contour whose values are never read
    is never resampled. `vibrato` holds the metrics of the same slice, or
    None when it has too little voiced data.
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


def _resample_to_normalized(beats: np.ndarray, cents: np.ndarray, samples: int) -> np.ndarray:
    """Linear resampling onto `samples` uniform points over the sampled range.

    A target falling between two voiced frames is interpolated; a target
    next to any unvoiced frame stays NaN so gaps are never bridged.
    """
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


def occurrence_contours(
    index: PatternIndex,
    pattern: NGramPattern,
    grids: Mapping[str, ScoreGrid],
    tracks: Mapping[str, F0Track],
    samples_per_contour: int = DEFAULT_SAMPLES_PER_CONTOUR,
    reference_hz: float = 440.0,
) -> list[Contour]:
    """Beat-aligned cents contour and vibrato metrics of every occurrence of `pattern`.

    Each occurrence is placed on its daemok's beat grid through its score's
    measures (`ScoreGrid.beat`) and sliced once, and its contour and vibrato
    come from the same cents array. The vibrato is measured here; the contour
    is resampled to `samples_per_contour` points when its `values` are first
    read. Occurrences whose span runs past the annotated beat grid are
    skipped with a warning (the grid cannot place them in time). Fully
    unvoiced slices yield all-missing contours and are kept.
    """
    if samples_per_contour < 2:
        raise ConfigurationError("samples_per_contour must be >= 2")
    if pattern not in index.occurrences:
        raise ConfigurationError(f"pattern {pattern.text!r} is not in the index")

    contours: list[Contour] = []
    for occ in index.occurrences[pattern]:
        if occ.daemok_id not in grids:
            raise DependencyError(f"no beat grid for daemok '{occ.daemok_id}'")
        if occ.daemok_id not in tracks:
            raise DependencyError(f"no F0 track for daemok '{occ.daemok_id}'")
        placed = grids[occ.daemok_id]
        grid = placed.grid
        start = float(placed.beat(occ.onset_beats))
        end = float(placed.beat(occ.onset_beats + occ.span_beats, end=True))
        if start < 0 or end > grid.last_beat:
            warnings.warn(
                f"occurrence at {occ.daemok_id} beat {start} runs past the annotated grid; skipped",
                stacklevel=2,
            )
            continue
        segment = slice_track(tracks[occ.daemok_id], grid, start, end)
        cents = track_cents(segment, reference_hz)
        try:
            vibrato = vibrato_metrics(cents, segment.hop_s)
        except NotEnoughDataError:
            vibrato = None
        contours.append(
            Contour(
                partial(_resample_to_normalized, segment.beats, cents, samples_per_contour),
                daemok_id=occ.daemok_id,
                onset_beats=occ.onset_beats,
                span_beats=occ.span_beats,
                vibrato=vibrato,
            )
        )
    return contours


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


def _moving_average(values: np.ndarray, voiced: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window)
    sums = np.convolve(np.where(voiced, values, 0.0), kernel, mode="same")
    counts = np.convolve(voiced.astype(float), kernel, mode="same")
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


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
    the raw series avoids the detrender's passband ripple).
    """
    cents = np.asarray(cents, dtype=np.float64)
    voiced = np.isfinite(cents)
    n_voiced = int(np.count_nonzero(voiced))
    voiced_duration = n_voiced * hop_s
    if voiced_duration < min_voiced_s:
        raise NotEnoughDataError(
            f"{voiced_duration:.3f}s of voiced data < {min_voiced_s}s minimum"
        )

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
        # Cycle i, raw[crossings[i] : crossings[i + 2] + 1], is segments i and i + 1 plus one sample.
        seg_hi = np.maximum.reduceat(raw, crossings)[:-1]
        seg_lo = np.minimum.reduceat(raw, crossings)[:-1]
        ends = raw[crossings[2:]]
        hi = np.maximum(np.maximum(seg_hi[:-1], seg_hi[1:]), ends)
        lo = np.minimum(np.minimum(seg_lo[:-1], seg_lo[1:]), ends)
        depth = float(np.mean((hi - lo) / 2.0))
    return VibratoMetrics(
        rate_hz=rate,
        depth_cents=depth,
        voiced_fraction=n_voiced / cents.shape[0] if cents.shape[0] else 0.0,
    )


def onset_glide(cents: np.ndarray, hop_s: float, window_s: float = 0.3) -> float:
    """Signed cents rise over the first `window_s` of voiced data.

    Computed as the median of pairwise slopes (robust to vibrato wiggle)
    scaled by the window length; positive means ascending.
    """
    cents = np.asarray(cents, dtype=np.float64)
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
