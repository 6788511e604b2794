"""Figure rendering (SVG) and the end-to-end analysis pipeline.

All emitted artifacts are deterministic: identical inputs and settings
produce byte-identical files, and every output gets a provenance sidecar
recording the hashes of the inputs it was built from, the settings and the version.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import signal
import struct
import sys
import tempfile
import threading
import warnings
from contextlib import contextmanager, suppress
from dataclasses import asdict
from functools import partial
from itertools import chain, repeat, takewhile
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .beat_grid import BeatGrid, ScoreGrid, load_beats
from .errors import (
    RECOVERABLE_ERRORS,
    DomainError,
    IncompatibleContourError,
    IncompatibleHistogramError,
    PipelineError,
)
from .histogram import (
    MODE_FACTORIES,
    PitchHistogram,
    f0_histogram,
    mode_affinity,
    score_duration_histogram,
)
from .patterns import (
    BLOCK_SAMPLES,
    DEFAULT_MIN_SUPPORT,
    DEFAULT_N_VALUES,
    DEFAULT_SAMPLES_PER_CONTOUR,
    Contour,
    NGramPattern,
    PatternIndex,
    check_pattern_settings,
    mine_ngrams,
    occurrence_contours,
    occurrence_vibrato,
    parse_token,
    place_occurrences,
    tokenize,
)
from .pitch_track import (
    FilterConfig,
    estimate_f0_yin,
    filter_track,
    import_f0_csv,
    load_wav,
)
from .score import fraction_str, note_sequence, parse_musicxml

_PALETTE = ("#3b6ea5", "#c0573b", "#4e9151", "#9157a3", "#ae8b2d", "#50858b", "#a34f6f", "#6b6b6b")
_WIDTH, _HEIGHT = 840, 420


def _escape(text: str) -> str:
    """`text` with `&`, `<` and `>` written as XML entities (quotes stay as they are)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x):
    """Two decimals, |x| < 0.005 as 0.00 (never -0.00); an array gives a list of strings."""
    if isinstance(x, np.ndarray):
        return [f"{v:.2f}" for v in np.where(np.abs(x) < 0.005, 0.0, x).tolist()]
    return f"{0.0 if abs(x) < 0.005 else x:.2f}"


class _Svg:
    """Tiny deterministic SVG assembler (fixed attribute order, 2-dp floats)."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#303030", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def rect(self, x, y, w, h, fill, cls="bar"):
        self.parts.append(
            f'<rect class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"/>'
        )

    def circle(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>')

    def text(self, x, y, content, size=11, anchor="middle", fill="#202020", rotate=None):
        transform = ""
        if rotate is not None:
            transform = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}"{transform}>{_escape(content)}</text>'
        )

    def polylines(self, runs, stroke, width=1.5):  # runs: each line's "x,y x,y ..." by _fmt's rule
        tail = f'" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        self.parts.extend(f'<polyline points="{points}{tail}' for points in runs)

    def document(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">')
        # One join, which copies no part but the last (parts: the axes at least).
        return "\n  ".join([head, *self.parts[:-1], self.parts[-1] + "\n</svg>\n"])


_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 24, 56


def render_histogram_figure(f0_hist: PitchHistogram, score_hist: PitchHistogram) -> str:
    """Two aligned bar series over a shared pitch axis.

    Each series is normalized to its own maximum because the units differ
    (frame counts vs. summed beats). Only nonzero bins produce <rect> data
    elements; identical inputs render to identical bytes.
    """
    if f0_hist.bin_kind != score_hist.bin_kind:
        raise IncompatibleHistogramError(
            f"cannot pair {f0_hist.bin_kind!r} with {score_hist.bin_kind!r} bins"
        )

    svg = _Svg(_WIDTH, _HEIGHT)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h

    svg.line(x0, y0, x0 + plot_w, y0)
    svg.line(x0, _MARGIN_T, x0, y0)
    svg.text(16, _MARGIN_T + plot_h / 2, "relative mass", size=11, rotate=-90.0)

    nonzero = sorted(
        set(b for b, v in f0_hist.masses.items() if v > 0)
        | set(b for b, v in score_hist.masses.items() if v > 0)
    )

    if not nonzero:
        svg.text(x0 + plot_w / 2, _MARGIN_T + plot_h / 2, "no data", size=14)
        return svg.document()

    bins = list(range(nonzero[0], nonzero[-1] + 1))
    slot = plot_w / len(bins)
    bar_w = slot * 0.38
    max_a = max((v for v in f0_hist.masses.values()), default=0.0)
    max_b = max((v for v in score_hist.masses.values()), default=0.0)

    for i, b in enumerate(bins):
        cx = x0 + (i + 0.5) * slot
        va = f0_hist.masses.get(b, 0.0)
        vb = score_hist.masses.get(b, 0.0)
        if va > 0 and max_a > 0:
            h = plot_h * va / max_a
            svg.rect(cx - bar_w, y0 - h, bar_w, h, _PALETTE[0])
        if vb > 0 and max_b > 0:
            h = plot_h * vb / max_b
            svg.rect(cx, y0 - h, bar_w, h, _PALETTE[1])
        step = max(1, len(bins) // 24)
        if i % step == 0:
            svg.text(cx, y0 + 16, f0_hist.bin_label(b), size=10)

    svg.circle(x0 + 10, _MARGIN_T + 2, 4, _PALETTE[0])
    svg.text(x0 + 18, _MARGIN_T + 6, "f0 frames", size=11, anchor="start")
    svg.circle(x0 + 150, _MARGIN_T + 2, 4, _PALETTE[1])
    svg.text(x0 + 158, _MARGIN_T + 6, "score beats", size=11, anchor="start")
    return svg.document()


def _contour_length(contours: list[Contour]) -> int:
    """The sample count all `contours` share on their common axis (0 for none)."""
    lengths = {c.values.shape[0] for c in contours}
    if len(lengths) > 1:
        raise IncompatibleContourError(f"contours have mismatched lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _value_blocks(contours: list[Contour], n: int):
    """`(first, values)` for each block of rows of `contours`, which share `n` samples: `values`
    stacks the `values` of `contours[first:]`, `BLOCK_SAMPLES` samples at most (a row at least)."""
    step = max(1, BLOCK_SAMPLES // max(n, 1))
    for first in range(0, len(contours), step):
        yield first, np.stack([c.values for c in contours[first : first + step]])


def render_contour_overlay(contours: list[Contour]) -> str:
    """Overlay of occurrence contours on the normalized beat axis.

    Missing values break a contour into separate polylines; the legend
    names each occurrence by daemok and onset, in as many rows as fit above
    the x axis, the last of them "+k more" where the others do not fit.
    """
    n = _contour_length(contours)
    svg = _Svg(_WIDTH, _HEIGHT)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h

    svg.line(x0, y0, x0 + plot_w, y0)
    svg.line(x0, _MARGIN_T, x0, y0)
    svg.text(x0 + plot_w / 2, _HEIGHT - 12, "normalized beat position", size=11)
    svg.text(16, _MARGIN_T + plot_h / 2, "cents", size=11, rotate=-90.0)

    lo, hi = math.inf, -math.inf  # of the finite values
    for _, values in _value_blocks(contours, n):
        finite = np.isfinite(values)
        lo = min(lo, values.min(initial=math.inf, where=finite))
        hi = max(hi, values.max(initial=-math.inf, where=finite))
    if lo > hi:
        svg.text(x0 + plot_w / 2, _MARGIN_T + plot_h / 2, "no data", size=14)
        return svg.document()

    if hi - lo < 1.0:
        mid = (hi + lo) / 2.0
        lo, hi = mid - 0.5, mid + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    # One "x,%.2f" per sample: a finite run's points are one %-format of the run's templates,
    # joined, with its y coordinates. y follows _fmt's rule, |y| < 0.005 written as 0.00.
    points = [f"{x},%.2f" for x in _fmt(x0 + plot_w * (np.arange(n) / max(n - 1, 1)))]
    rows = (plot_h - 6) // 14 + 1  # legend rows whose circle ends above the x axis
    named = len(contours) if len(contours) <= rows else rows - 1
    for first, values in _value_blocks(contours, n):
        ys = y0 - plot_h * (values - lo) / (hi - lo)
        ys[np.abs(ys) < 0.005] = 0.0
        # Finite runs [start, stop) of every row: where the row's finite mask, padded with False
        # at both ends, flips. Only runs of two or more samples are drawn.
        padded = np.zeros((values.shape[0], n + 2), dtype=bool)
        padded[:, 1:-1] = np.isfinite(values)
        edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1]).reshape(-1, 2)
        owner, start = np.divmod(edges[:, 0], n + 1)
        stop = edges[:, 1] - owner * (n + 1)
        drawn = stop - start > 1
        runs = list(zip(start[drawn].tolist(), stop[drawn].tolist()))
        firsts = np.searchsorted(owner[drawn], np.arange(values.shape[0] + 1)).tolist()
        for ci, y, a, b in zip(range(first, len(contours)), ys.tolist(), firsts, firsts[1:]):
            color = _PALETTE[ci % len(_PALETTE)]
            svg.polylines((" ".join(points[i:j]) % tuple(y[i:j]) for i, j in runs[a:b]), color)
            if ci < named:
                ly = _MARGIN_T + 2 + 14 * ci
                svg.circle(x0 + plot_w - 150, ly, 4, color)
                svg.text(x0 + plot_w - 142, ly + 4, contours[ci].label, size=10, anchor="start")
    if named < len(contours):
        svg.text(x0 + plot_w - 142, _MARGIN_T + 6 + 14 * named,
                 f"+{len(contours) - named} more", size=10, anchor="start")

    for frac in (0.0, 0.5, 1.0):
        gx = x0 + plot_w * frac
        svg.line(gx, y0, gx, y0 + 4)
        svg.text(gx, y0 + 16, f"{frac:.1f}", size=10)
    svg.text(x0 - 6, y0 + 4, f"{lo:.0f}", size=10, anchor="end")
    svg.text(x0 - 6, _MARGIN_T + 8, f"{hi:.0f}", size=10, anchor="end")
    return svg.document()


def contours_csv(pattern: NGramPattern, contours: list[Contour]) -> str:
    """Long-format CSV dump of contour samples (empty cell = unvoiced)."""
    n = _contour_length(contours)
    # One line "k,position,%.6f" per sample: a contour's lines are one %-format of its row, with
    # each cell that is not finite written as nan and then blanked (nothing else in the body
    # can read "nan"), before the row's head goes in front of each line.
    body = "".join(f"{k},{k / (n - 1) if n > 1 else 0.0:.6f},%.6f\n" for k in range(n))
    lines = ["pattern,daemok,onset_beats,sample_index,normalized_position,cents"]
    for first, values in _value_blocks(contours, n) if n else ():  # no samples, no lines
        cells = np.where(np.isfinite(values), values, np.nan).tolist()
        for c, row in zip(contours[first : first + len(cells)], cells):
            head = f"{pattern.text},{c.daemok_id},{fraction_str(c.onset_beats)},"
            text = (body % tuple(row)).replace("nan\n", "\n")
            lines.append(head + text[:-1].replace("\n", "\n" + head))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pipeline


DEFAULT_SETTINGS = {
    "filter": asdict(FilterConfig()),
    "reference_hz": 440.0,
    "tuning_offset_cents": 0.0,
    "jangdan": "joongmori",
    "beats_per_measure": 12,
    "merge_ties": True,
    "skip_rests": False,
    "n_values": list(DEFAULT_N_VALUES),
    "min_support": DEFAULT_MIN_SUPPORT,
    "samples_per_contour": DEFAULT_SAMPLES_PER_CONTOUR,
    "contour_patterns": [],
    "modes": ["ujo", "gyemyeonjo"],
    "yin": {},
}


@contextmanager
def _stage(stage: str, daemok_id: str):
    """Re-raise a library, I/O, value or memory error in the block as `stage`'s `PipelineError`."""
    try:
        yield
    except PipelineError:
        raise
    except RECOVERABLE_ERRORS as exc:
        raise PipelineError(stage, daemok_id, exc) from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _leaf_encoder():
    """`(obj, level) -> chunks` of `obj` on one line, with sorted keys and `, `/`: ` separators."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))
    if json.encoder.c_make_encoder is None:
        return lambda obj, level: (encoder.encode(obj),)
    # Built once: JSONEncoder.encode would build a new C encoder on every call.
    return json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None, ": ", ", ", True, False, True
    )


_encode_leaf = _leaf_encoder()


def _encode_json(obj, write, newline: str = "\n", prefix: str = "") -> None:
    """Write `prefix` and `obj`: one line if `obj` holds no container, else one member a line."""
    is_dict = isinstance(obj, dict)
    if is_dict and not all(map(isinstance, obj, repeat(str))):
        raise TypeError(f"JSON keys must be str, got {[k for k in obj if not isinstance(k, str)]}")
    values = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    if not any(map(isinstance, values, repeat((dict, list, tuple)))):
        write(prefix + "".join(_encode_leaf(obj, 0)))
        return
    inner = newline + "  "
    if is_dict:
        items, brackets = sorted(obj.items()), "{}"
        members = [(f"{json.encoder.encode_basestring_ascii(k)}: ", v) for k, v in items]
    else:
        members, brackets = zip(repeat(""), obj), "[]"
    sep = prefix + brackets[0] + inner
    for head, value in members:
        _encode_json(value, write, inner, sep + head)
        sep = "," + inner
    write(newline + brackets[1])


def write_json(obj, write) -> None:
    """Pass the text of `dump_json(obj)` to `write`, chunk by chunk, without joining it."""
    _encode_json(obj, write)
    write("\n")


def dump_json(obj) -> str:
    """Sorted-key JSON, laid out as `indent=2` except that a container holding no container
    is written on one line. Every key must be a `str`."""
    chunks: list[str] = []
    write_json(obj, chunks.append)
    return "".join(chunks)


def reference_hz(settings: dict) -> float:
    """The tuned reference: `reference_hz` shifted by `tuning_offset_cents`."""
    base, offset = float(settings["reference_hz"]), float(settings["tuning_offset_cents"])
    # 2.0 ** x raises OverflowError from x = 1024 on; such a reference is infinite anyway.
    tuned = base * 2.0 ** (offset / 1200.0) if offset / 1200.0 < 1024 else math.inf
    if not 0 < tuned < math.inf:
        raise DomainError(
            f"reference_hz {base} tuned by {offset} cents is not a finite positive frequency"
        )
    return tuned


_ENTRY_KEYS = ("id", "score", "beats", "f0_csv", "audio")
_NESTED_KEYS = {
    "filter": tuple(DEFAULT_SETTINGS["filter"]),
    "yin": ("frame_s", "hop_s", "search_min_hz", "search_max_hz", "threshold"),
}
_LIST_ITEMS = {"n_values": 0, "contour_patterns": "", "modes": ""}


def _check_type(name: str, value, like) -> None:
    """Raise unless `value` is finite and of `like`'s JSON type (an int passes for a float)."""
    kind = (int, float) if isinstance(like, float) else type(like)
    if isinstance(value, bool) is not isinstance(like, bool) or not isinstance(value, kind):
        raise PipelineError("manifest", "*", f"{name} must be {type(like).__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise PipelineError("manifest", "*", f"{name} must be finite, got {value!r}")


def _checked_settings(given) -> dict:
    """Defaults overlaid with `given`, which must use only known keys and types."""
    _check_type("settings", given, {})
    settings = {**DEFAULT_SETTINGS, "filter": dict(DEFAULT_SETTINGS["filter"])}
    for key, value in given.items():
        if key not in DEFAULT_SETTINGS:
            raise PipelineError("manifest", "*", f"unknown setting {key!r}")
        _check_type(f"setting {key!r}", value, DEFAULT_SETTINGS[key])
        if key in _NESTED_KEYS:
            for name, item in value.items():
                if name not in _NESTED_KEYS[key]:
                    raise PipelineError("manifest", "*", f"unknown setting '{key}.{name}'")
                _check_type(f"setting '{key}.{name}'", item, 0.0)
        if key in _LIST_ITEMS:
            for item in value:
                _check_type(f"each entry of setting {key!r}", item, _LIST_ITEMS[key])
        settings[key] = {**settings["filter"], **value} if key == "filter" else value
    unknown = [m for m in settings["modes"] if m not in MODE_FACTORIES]
    if unknown:
        raise PipelineError("manifest", "*", f"unknown mode {unknown[0]!r}")
    with _stage("manifest", "*"):
        reference_hz(settings)
        FilterConfig(**settings["filter"])
        BeatGrid((), settings["beats_per_measure"])
        check_pattern_settings(settings["n_values"], settings["min_support"],
                               settings["samples_per_contour"])
        for text in settings["contour_patterns"]:
            NGramPattern.from_text(text)
    return settings


def load_manifest(manifest_path) -> tuple[list[dict], dict]:
    """Read and validate a pipeline manifest (paths resolved to the file)."""
    path = Path(manifest_path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise PipelineError("manifest", "*", f"missing file {path}") from None
    except json.JSONDecodeError as exc:
        raise PipelineError("manifest", "*", f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError("manifest", "*", f"cannot read {path}: {exc}") from exc

    entries = raw.get("daemok") if isinstance(raw, dict) else None
    if not isinstance(entries, list) or not entries:
        raise PipelineError("manifest", "*", "manifest needs a non-empty 'daemok' list")
    settings = _checked_settings(raw.get("settings", {}))

    base = path.parent
    normalized = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise PipelineError("manifest", "*", f"daemok entry {entry!r} is not an object")
        daemok_id = entry.get("id")
        if not daemok_id or not isinstance(daemok_id, str):
            raise PipelineError("manifest", "*", "every daemok entry needs a string 'id'")
        if daemok_id == "*":  # the id a PipelineError gives a corpus-wide stage
            raise PipelineError("manifest", "*", "daemok id '*' is reserved for the whole corpus")
        if any(ch in daemok_id for ch in "/\\") or daemok_id.startswith("."):
            raise PipelineError("manifest", daemok_id, f"unsafe daemok id {daemok_id!r}")
        for key, value in entry.items():
            if key not in _ENTRY_KEYS:
                raise PipelineError("manifest", daemok_id, f"unknown entry key {key!r}")
            _check_type(f"entry key {key!r}", value, "")
        if "score" not in entry or "beats" not in entry:
            raise PipelineError("manifest", daemok_id, "entry needs 'score' and 'beats' paths")
        if ("f0_csv" in entry) == ("audio" in entry):
            raise PipelineError(
                "manifest", daemok_id, "entry needs exactly one of 'f0_csv' or 'audio'"
            )
        normalized.append({k: v if k == "id" else str(base / v) for k, v in entry.items()})
    if len({e["id"] for e in normalized}) != len(normalized):
        raise PipelineError("manifest", "*", "duplicate daemok ids")
    return normalized, settings


def load_corpus(entries: list[dict], settings: dict) -> tuple[dict, dict, dict, PatternIndex]:
    """Every entry's score events, beat grid read against its score (`ScoreGrid`, which checks
    that both have the same number of measures) and filtered F0 track, each keyed by daemok id,
    and the pattern index mined from the events (`mine_index`, under stage `patterns`).

    These are the jobs of one fan-out (`_fan_out`): 2i loads entry i's score and beats (stage
    `score`, its beats under `beats`), 2i + 1 its F0 track (stage `f0`), and the last job mines.
    The F0 CSVs' jobs are claimed, in job order, by as many processes as the CPUs, but never
    more than one plus the CSV count: on two CPUs, this process and one forked F0 reader. This
    process first runs every other job, in job order, then claims CSVs too. The error raised
    is the first in serial order (entry by entry; score, beats, then F0 within one; mining
    last), after the warnings that came before it, and a reader that dies fails at `f0` of the
    daemok it was reading."""
    config = FilterConfig(**settings["filter"])
    events_by_id = {}

    def score_job(entry: dict):
        score = parse_musicxml(Path(entry["score"]).read_bytes())
        events = note_sequence(score, merge_ties=settings["merge_ties"])
        with _stage("beats", entry["id"]):
            beats = load_beats(Path(entry["beats"]).read_text(), settings["beats_per_measure"])
            grid = ScoreGrid(score, beats)
        # Score jobs and mining run only in this process, in job order, so mining sees every
        # entry's events.
        events_by_id[entry["id"]] = events
        return grid

    def f0_job(entry: dict):
        if "f0_csv" in entry:
            track = import_f0_csv(Path(entry["f0_csv"]).read_text())
        else:
            samples, sample_rate = load_wav(entry["audio"])
            track = estimate_f0_yin(samples, sample_rate, **settings["yin"])
        return filter_track(track, config)

    jobs = [job for entry in entries for job in (("score", entry["id"], partial(score_job, entry)),
                                                  ("f0", entry["id"], partial(f0_job, entry)))]
    jobs.append(("patterns", "*", lambda: mine_index(events_by_id, settings)))
    csvs = [2 * i + 1 for i, entry in enumerate(entries) if "f0_csv" in entry]
    *loaded, index = _fan_out(jobs, csvs)
    ids = [entry["id"] for entry in entries]
    return events_by_id, dict(zip(ids, loaded[::2])), dict(zip(ids, loaded[1::2])), index


def mine_index(events_by_id: dict, settings: dict) -> PatternIndex:
    """Tokenize every daemok's events and mine the `n_values`-grams of at least `min_support`
    occurrences, all three settings read from `settings` (windows skip rests if `skip_rests`)."""
    sequences = {daemok_id: tokenize(evs) for daemok_id, evs in events_by_id.items()}
    return mine_ngrams(sequences, n_values=tuple(settings["n_values"]),
                       min_support=settings["min_support"], skip_rests=settings["skip_rests"])


def pattern_artifacts(index: PatternIndex, pattern_text: str, grids: dict, tracks: dict,
                      settings: dict, placements: dict | None = None) -> tuple[int, dict]:
    """One pattern's contour stage, shared by `run` and `patterns contours|vibrato`.

    Takes its contours (`occurrence_contours` of `placements`, with `samples_per_contour` and
    the tuned `reference_hz` of `settings`) and returns `(placed count, {"contours.csv",
    "overlay.svg", "vibrato.json": render() -> str})`. Nothing is rendered until its function
    is called, so a caller pays only for the artifacts it writes or prints."""
    pattern = NGramPattern.from_text(pattern_text)
    contours = occurrence_contours(
        index, pattern, grids, tracks,
        samples_per_contour=settings["samples_per_contour"], reference_hz=reference_hz(settings),
        placements=placements,
    )
    return len(contours), {
        "contours.csv": partial(contours_csv, pattern, contours),
        "overlay.svg": partial(render_contour_overlay, contours),
        "vibrato.json": lambda: vibrato_json(pattern, occurrence_vibrato(index, pattern, contours)),
    }


def histogram_record(daemok_id: str, f0_hist, score_hist, modes) -> dict:
    """JSON-ready paired histograms with each mode's affinity (None for zero mass)."""
    affinities = {}
    for mode_name in modes:
        template = MODE_FACTORIES[mode_name]()
        affinities[mode_name] = {
            "f0": mode_affinity(f0_hist, template) if f0_hist.total_mass else None,
            "score": mode_affinity(score_hist, template) if score_hist.total_mass else None,
        }
    return {
        "daemok": daemok_id,
        "f0_histogram": f0_hist.to_record(),
        "score_histogram": score_hist.to_record(),
        "affinities": affinities,
    }


def vibrato_json(pattern: NGramPattern, vib) -> str:
    """`vibrato.json` of an `occurrence_vibrato` result: the `dump_json` text of
    `{"occurrences": [{"daemok", "metrics", "onset_beats"}, ...], "pattern"}`, metrics None
    where unmeasurable.

    Each occurrence row is formatted directly, never built as a dict nor run through
    `dump_json`; its metrics object alone goes through `_encode_leaf`, which writes floats,
    NaN and infinities as `dump_json` does."""
    quoted: dict[str, str] = {}  # daemok id -> its JSON string
    rows = []
    for occ, m in vib:
        if occ.daemok_id not in quoted:
            quoted[occ.daemok_id] = json.encoder.encode_basestring_ascii(occ.daemok_id)
        # A Fraction's text holds only digits, "-" and "/", so it needs no escaping.
        daemok, onset = quoted[occ.daemok_id], fraction_str(occ.onset_beats)
        if m is None:
            rows.append(f'{{"daemok": {daemok}, "metrics": null, "onset_beats": "{onset}"}}')
        else:
            metrics = "".join(_encode_leaf({"depth_cents": m.depth_cents, "rate_hz": m.rate_hz,
                                            "voiced_fraction": m.voiced_fraction}, 0))
            rows.append(f'{{\n      "daemok": {daemok},\n      "metrics": {metrics},'
                        f'\n      "onset_beats": "{onset}"\n    }}')
    occurrences = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return (f'{{\n  "occurrences": {occurrences},'
            f'\n  "pattern": {json.encoder.encode_basestring_ascii(pattern.text)}\n}}\n')


@contextmanager
def _staging_dir(out_root: Path):
    """A new staging directory in `out_root`, deleted on exit. If the block fails, so are the
    directories made for it: `out_root` and any of its parents that did not exist."""
    made = list(takewhile(lambda p: not p.exists(), (out_root, *out_root.parents)))
    try:
        out_root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_root) as staging:
            yield Path(staging)
    except BaseException:
        for directory in made:  # deepest first
            with suppress(OSError):
                directory.rmdir()
        raise


# A claims file slot: the pid of the process that claimed the job of `order` at that position.
_CLAIM = struct.Struct("=i")


def _can_fork() -> bool:
    """Whether a fork can pay: the process may use more than one CPU, and `os.fork` exists and
    is safe, as no other thread runs (a child would inherit any lock that thread holds)."""
    return hasattr(os, "fork") and threading.active_count() == 1 and _kernels._cpu_count() > 1


def _claim(claims, order: list[int]):
    """Yield, one at a time, the jobs of `order` that this process claims: each claim takes the
    next job of `order` that no process has claimed, when this process asks for its next job.

    `claims` is a file shared by every process of the fan-out. It holds one `_CLAIM` slot, the
    claimer's pid, per claimed job of `order`, so its length is the claim counter. It is read
    and grown under a POSIX `lockf` record lock, which the kernel drops when its holder dies, so
    a process that dies hangs no other."""
    import fcntl  # POSIX only, as is `os.fork`

    fd, pid = claims.fileno(), _CLAIM.pack(os.getpid())
    while True:
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            slot = os.fstat(fd).st_size // _CLAIM.size
            if slot < len(order):
                os.pwrite(fd, pid, slot * _CLAIM.size)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
        if slot == len(order):
            return
        yield order[slot]


def _run_jobs(jobs: list[tuple], indices):
    """Run each job of `indices` under its stage (`_stage`), yielding `(index, result, caught
    warnings, None)` as each ends, or `(index, None, caught, error)` for one that raises. Once a
    job has failed, only jobs of a lower index run: the error raised is the lowest-index one,
    and the others are passed over.

    Every warning is caught, unfiltered, as `(text, category, filename, lineno)`: the parent
    warns them again in job order (`_warn_again`), through the filters they would have met."""
    failed = len(jobs)  # the lowest index of a job that failed
    for i in indices:
        if i > failed:
            continue
        stage, daemok_id, run = jobs[i]
        result = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with _stage(stage, daemok_id):
                    result = run()
            except Exception as exc:  # the lowest failing job's error is raised, in job order
                error, failed = exc, i
        yield i, result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught], error


def _warn_again(caught: list[tuple]) -> None:
    """Warn each caught `(text, category, filename, lineno)` as `warnings.warn` first did:
    through the filters and the once-registry of the module whose file raised it."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for text, category, filename, lineno in caught:
        env = vars(modules[filename]) if filename in modules else {}
        warnings.warn_explicit(text, category, filename, lineno, env.get("__name__"),
                               env.setdefault("__warningregistry__", {}), env or None)


def _fan_out(jobs: list[tuple], order: list[int]) -> list:
    """The result of each of `jobs`, `(stage, daemok id, run)` with `run()` the job's work,
    where the jobs of `order` are claimed on demand, in that order. This is the one place that
    guards forked work: each job runs under its own stage (`_stage`), wherever it runs.

    The jobs run in one process per job of `order`, plus this one if some job is not in
    `order`, but in no more processes than the CPUs the process may use, and in one where
    `_can_fork` says no. With one process, it runs every job in job order. Otherwise it forks
    a child for each other process (`_run_child`), whose results and errors must pickle; a
    fork that fails leaves one process fewer. This process first runs, in job order, the jobs
    that only it can run, those not in `order`. Then every process, this one included, takes
    the next job of `order` whenever it is free (`_claim`), until none is left. After its
    first failing job, a process runs only claimed jobs of a lower index.

    A child writes each job's outcome as soon as the job ends. The parent reaps and reads every
    child, even after a job of its own failed; a child that died fails at the job it claimed
    and never reported, under that job's stage and daemok, with its own exit code. Only a
    parent stopped by an error that is not an `Exception` kills the children, and reaps them.
    The GC is frozen from the first fork until every child is reaped, so that no collection,
    in the parent or a child, walks and so copies the heap they share. Then, in job order, each
    job's warnings are warned again and its result kept, until the first job that failed
    raises its error: the caller sees what a serial loop would give it."""
    own = sorted(set(range(len(jobs))).difference(order))
    processes = min(_kernels._cpu_count(), len(order) + bool(own)) if _can_fork() else 1
    if processes <= 1:
        done = list(_run_jobs(jobs, range(len(jobs))))
    else:
        children = []  # (pid, the file it writes its results to), until reaped
        with tempfile.TemporaryFile() as claims:
            gc.freeze()
            try:
                for _ in range(processes - 1):
                    results_file = tempfile.TemporaryFile()
                    try:
                        pid = os.fork()
                    except OSError:  # no such process: the others claim its jobs
                        results_file.close()
                        continue
                    if pid == 0:
                        _run_child(jobs, _claim(claims, order), results_file)
                    children.append((pid, results_file))
                done = list(_run_jobs(jobs, chain(own, _claim(claims, order))))
                codes = {}  # pid of each reaped child -> its exit code
                while children:
                    pid, results_file = children[0]
                    codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    children.pop(0)
                    with results_file, suppress(EOFError, pickle.UnpicklingError):
                        results_file.seek(0)
                        while True:  # to its end or a cut-off pickle, never held as bytes too
                            done.append(pickle.load(results_file))
                reported = {d[0] for d in done}
                claimers = os.pread(claims.fileno(), _CLAIM.size * len(order), 0)
                for i, (pid,) in zip(order, _CLAIM.iter_unpack(claimers)):
                    # A child's claim it never reported: the job it died in, or one it passed
                    # over after a failure of its own, whose lower index then raises first.
                    if pid in codes and i not in reported:
                        done.append((i, None, [], PipelineError(*jobs[i][:2], ChildProcessError(
                            f"a worker process ended with exit code {codes[pid]} "
                            "before it returned its results"))))
            finally:
                for pid, results_file in children:  # left only if the parent was stopped
                    with suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    results_file.close()
                    os.waitpid(pid, 0)
                gc.unfreeze()
    results = []
    for _, result, caught, error in sorted(done, key=lambda d: d[0]):
        _warn_again(caught)
        if error is not None:
            raise error
        results.append(result)
    return results


def _run_child(jobs: list[tuple], claimed, results_file):
    """A forked child's whole life: run the jobs it claims (`claimed`), write each tuple
    `_run_jobs` yields to `results_file` as soon as it comes, and exit. It never returns into
    the parent's stack, so no `finally`, `atexit` handler or buffered output of the parent runs
    twice. Protocol 5 pickles a read-only array as bytes, so it is unpickled read-only, without
    a copy.

    A file, unlike a pipe, never blocks the child until the parent reads: the parent reads
    only once its own jobs are done, and a pipe would leave the child idle until then."""
    code = 1
    try:
        for done in _run_jobs(jobs, claimed):
            pickle.dump(done, results_file, protocol=5)
            results_file.flush()  # reported before the next claim, should the next job kill it
        code = 0
    finally:
        os._exit(code)


def run_pipeline(manifest_path, out_dir=None) -> dict:
    """Execute every analysis stage for every daemok in the manifest.

    Outputs land in `out_dir` (default: `out/` next to the manifest), each with a
    `.prov.json` sidecar. Each is written into a new staging directory as it is built, and the
    directory's files, the summary's `outputs`, are moved into `out_dir` once every stage has
    passed: a failed run leaves no partial outputs behind.

    `load_corpus` reads the inputs and mines the n-gram index, and `place_occurrences` places
    every contour pattern that the index holds, in one pass per daemok that raises nothing.
    `patterns.json`, the histograms and each pattern's contour artifacts are then the jobs of
    one fan-out (`_fan_out`), in that order and under stages `patterns`, `histogram` (of its
    daemok) and `contours`, so errors and warnings, the past-grid ones included, come in stage
    order. As many processes as there are jobs, up to the CPUs, claim the contour jobs first,
    in descending pattern support (ties in job order), then the others in job order.

    Returns the run's summary: `{"daemok": [ids], "patterns": mined pattern count,
    "contour_sets": {pattern text: placed occurrence count}, "outputs": [paths]}`: counts and
    names only. Each pattern's contours are freed before the next pattern's are built.
    """
    entries, settings = load_manifest(manifest_path)
    hashes = {}  # daemok id -> {"<id>:<entry key>": hash}
    for entry in entries:
        with _stage("inputs", entry["id"]):
            hashes[entry["id"]] = {f"{entry['id']}:{key}": _sha256(Path(entry[key]))
                                   for key in _ENTRY_KEYS[1:] if key in entry}
    provenance = {"inputs": {k: v for h in hashes.values() for k, v in h.items()},
                  "settings": settings, "version": __version__}
    corpus_prov = dump_json(provenance)
    reference = reference_hz(settings)

    events_by_id, grids, tracks, index = load_corpus(entries, settings)
    patterns = settings["contour_patterns"]
    # Placed here, so the forked contour jobs inherit every placement and nothing is pickled.
    placements = place_occurrences(index, map(NGramPattern.from_text, patterns), grids, tracks,
                                   reference)
    out_root = Path(out_dir) if out_dir is not None else Path(manifest_path).parent / "out"

    with _staging_dir(out_root) as staging:

        def emit(name: str, content, prov_text: str = corpus_prov) -> None:
            """Write `content` (text or `write -> None`) and its sidecar into the staging dir."""
            for file_name, body in ((name, content), (name + ".prov.json", prov_text)):
                with open(staging / file_name, "w", newline="\n") as fh:
                    fh.write(body) if isinstance(body, str) else body(fh.write)

        def histogram_job(daemok_id: str) -> None:
            f0_hist = f0_histogram(tracks[daemok_id], reference_hz=reference)
            score_hist = score_duration_histogram(events_by_id[daemok_id])
            record = histogram_record(daemok_id, f0_hist, score_hist, settings["modes"])
            # A histogram is built from its daemok's score and F0 input, not from its beats.
            own = {k: v for k, v in hashes[daemok_id].items() if not k.endswith(":beats")}
            prov = dump_json({**provenance, "inputs": own})
            emit(f"{daemok_id}.histogram.json", partial(write_json, record), prov)
            emit(f"{daemok_id}.histogram.svg", render_histogram_figure(f0_hist, score_hist), prov)

        def contour_job(pi: int) -> int:
            """Write pattern `pi`'s artifacts and sidecars; return its placed count. Its
            contours are freed on return, before the process places its next pattern."""
            count, artifacts = pattern_artifacts(index, patterns[pi], grids, tracks, settings,
                                                 placements)
            for suffix, render in artifacts.items():
                emit(f"pattern-{pi:02d}.{suffix}", render())
            return count

        jobs = ([("patterns", "*", partial(emit, "patterns.json",
                                           partial(pattern_index_record, index)))]
                + [("histogram", d, partial(histogram_job, d)) for d in events_by_id]
                + [("contours", "*", partial(contour_job, pi)) for pi in range(len(patterns))])
        first = len(events_by_id) + 1  # the first contour job
        supports = [index.support(NGramPattern.from_text(text)) for text in patterns]
        contours = sorted(range(len(patterns)), key=lambda pi: -supports[pi])
        results = _fan_out(jobs, [first + pi for pi in contours] + list(range(first)))
        placed = dict(zip(patterns, results[first:]))

        outputs = sorted(os.listdir(staging))  # a new directory: only `emit` wrote into it
        for name in outputs:
            (staging / name).replace(out_root / name)

    return {"daemok": list(events_by_id), "patterns": len(index), "contour_sets": placed,
            "outputs": [str(out_root / name) for name in outputs]}


def pattern_index_record(index: PatternIndex, write) -> None:
    """Pass `patterns.json`, the `dump_json` text of a mined pattern index, to `write`.

    The text goes out as it is built: the head, one chunk per pattern, then the tail. Each
    occurrence row is formatted directly, never built as a dict nor run through an encoder."""
    # `mine_ngrams` shares one Fraction per value, so each is formatted once. The cache is
    # keyed by identity because hashing a Fraction costs more than formatting it. A Fraction's
    # text holds only digits and "/", so it needs no escaping.
    texts: dict[int, str] = {}
    quoted: dict[str, str] = {}  # daemok id -> its JSON string

    def text(value) -> str:
        if id(value) not in texts:
            texts[id(value)] = fraction_str(value)
        return texts[id(value)]

    def leaf(obj) -> str:
        return "".join(_encode_leaf(obj, 0))

    write(f'{{\n  "min_support": {index.min_support},\n  "n_values": {leaf(list(index.n_values))},'
          '\n  "patterns": ')
    row_sep = ",\n        "
    sep = "[\n    "
    for p in index.patterns:
        rows, per_daemok = [], {}
        for daemok_id, start, onset, span in index.occurrences[p]:
            if daemok_id not in quoted:
                quoted[daemok_id] = json.encoder.encode_basestring_ascii(daemok_id)
            per_daemok[daemok_id] = per_daemok.get(daemok_id, 0) + 1
            rows.append(f'{{"daemok": {quoted[daemok_id]}, "onset_beats": "{text(onset)}", '
                        f'"span_beats": "{text(span)}", "start_event_index": {start}}}')
        pattern_span = text(index.occurrences[p][0].span_beats)
        if index.skip_rests:  # an occurrence's span then also covers the rests inside it
            pattern_span = fraction_str(sum(parse_token(t)[1] for t in p.tokens))
        write(f'{sep}{{\n      "occurrences": [\n        {row_sep.join(rows)}\n      ],'
              f'\n      "per_daemok": {leaf(per_daemok)},\n      "span_beats": "{pattern_span}",'
              f'\n      "support": {len(rows)},\n      "tokens": {leaf(list(p.tokens))}\n    }}')
        sep = ",\n    "
    write("\n  ]\n}\n" if index.patterns else "[]\n}\n")
