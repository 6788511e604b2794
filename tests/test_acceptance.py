"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sorimir.beat_grid import load_beats
from sorimir.errors import BeatValidationError
from sorimir.histogram import (
    BIN_PITCH_CLASS,
    PitchHistogram,
    f0_histogram,
    mode_affinity,
    score_duration_histogram,
    ujo,
)
from sorimir.patterns import mine_ngrams, onset_glide, vibrato_metrics
from sorimir.pitch_track import F0Track, FilterConfig, estimate_f0_yin, filter_track
from sorimir.report import run_pipeline
from sorimir.score import event_records, note_sequence, parse_musicxml

SR = 44100
HOP = 0.01


def _verdict(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} ({label}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed{suffix}"


def test_criterion_1_filter_boundary_semantics():
    f0s = [349.9, 350.0, 1000.0, 1000.1]
    confs = [0.59, 0.60]
    frames = [(f, c) for f in f0s for c in confs]
    track = F0Track(
        np.array([f for f, _ in frames]),
        np.array([c for _, c in frames]),
        HOP,
    )
    out = filter_track(track, FilterConfig(0.6, 350.0, 1000.0))
    expected = [c >= 0.6 and 350.0 <= f <= 1000.0 for f, c in frames]
    mismatches = [
        (f, c, bool(v), e)
        for (f, c), v, e in zip(frames, out.voiced, expected)
        if bool(v) != e
    ]
    _verdict(1, "F0 filter boundaries exact", not mismatches, f"mismatches={mismatches}")


def test_criterion_2_yin_sweep_accuracy_and_runtime():
    # Warm-up keeps one-time costs (lazy imports, first allocations) out of the timed sweep.
    warm = 0.3 * np.sin(2 * np.pi * 500.0 * np.arange(SR // 5) / SR)
    estimate_f0_yin(warm, SR, search_min_hz=300.0, search_max_hz=1100.0)

    failures = []
    start = time.perf_counter()
    for freq in range(350, 1001, 50):
        t = np.arange(int(0.5 * SR)) / SR
        tone = 0.8 * np.sin(2 * np.pi * freq * t)
        track = estimate_f0_yin(tone, SR, search_min_hz=300.0, search_max_hz=1100.0)
        voiced = track.voiced
        if voiced.mean() < 0.95:
            failures.append(f"{freq} Hz: {voiced.mean():.0%} voiced")
            continue
        err = np.abs(1200.0 * np.log2(track.f0_hz[voiced] / freq)).max()
        if err >= 5.0:
            failures.append(f"{freq} Hz: {err:.2f} cents")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _verdict(2, "YIN sweep within 5 cents, 95% voiced, <10 s",
             not failures, f"{elapsed:.2f}s; {failures}")


def test_criterion_3_beat_grid_validation_and_round_trip(sample_grid):
    failures = []
    for n, should_pass in ((11, False), (12, True), (13, False)):
        rows = ["measure,beat,time"] + [f"0,{b},{b * 0.5:.3f}" for b in range(n)]
        try:
            load_beats("\n".join(rows) + "\n")
            if not should_pass:
                failures.append(f"{n} beats accepted")
        except BeatValidationError:
            if should_pass:
                failures.append(f"{n} beats rejected")

    rng = np.random.default_rng(2024)
    queries = rng.uniform(0.0, sample_grid.last_beat, 1000)
    err = np.abs(sample_grid.beat_at_time(sample_grid.time_at_beat(queries)) - queries).max()
    if err >= 1e-9:
        failures.append(f"round-trip error {err:.2e}")
    _verdict(3, "12-beat validation and beat<->time identity", not failures, str(failures))


def test_criterion_4_ngram_mining_equals_naive_recount():
    rng = random.Random(9157)
    alphabet = [
        "A4:1/1", "B4:1/1", "C5:1/2", "D5:3/2", "E5:2/1", "G4:1/1", "R:1/1", "F#4:1/2",
    ]
    sequences = {
        f"seq{k:03d}": [rng.choice(alphabet) for _ in range(rng.randint(5, 500))]
        for k in range(100)
    }
    n_values = (2, 3, 4, 6)
    index = mine_ngrams(sequences, n_values=n_values, min_support=1)

    naive: dict[tuple[str, ...], int] = {}
    for tokens in sequences.values():
        for n in n_values:
            for i in range(len(tokens) - n + 1):
                key = tuple(tokens[i : i + n])
                naive[key] = naive.get(key, 0) + 1

    mined = {p.tokens: index.support(p) for p in index.patterns}
    ok = mined == naive
    detail = f"{len(naive)} distinct patterns"
    if not ok:
        only_mined = set(mined) - set(naive)
        only_naive = set(naive) - set(mined)
        wrong = [k for k in set(mined) & set(naive) if mined[k] != naive[k]]
        detail += f"; extra={len(only_mined)} missing={len(only_naive)} wrong={len(wrong)}"
    _verdict(4, "n-gram supports equal naive recount", ok, detail)


def test_criterion_5_histogram_mass_conservation(sample_score, sample_track):
    failures = []
    filtered = filter_track(sample_track)
    f0_hist = f0_histogram(filtered)
    if f0_hist.total_mass != filtered.n_voiced:
        failures.append(f"f0 mass {f0_hist.total_mass} != {filtered.n_voiced} voiced frames")

    events = note_sequence(sample_score)
    score_hist = score_duration_histogram(events)
    exact_sum = sum((e.duration_beats for e in events if e.pitch is not None), Fraction(0))
    if score_hist.exact_total != exact_sum:
        failures.append(f"score mass {score_hist.exact_total} != {exact_sum}")

    cases = [
        ({2: 7.0}, 1.0),
        ({3: 5.0}, 0.0),
        ({2: 3.0, 4: 1.0}, 0.75),
    ]
    for masses, expected in cases:
        got = mode_affinity(PitchHistogram(BIN_PITCH_CLASS, masses, "frames"), ujo())
        if got != expected:
            failures.append(f"affinity {masses} -> {got} != {expected}")
    _verdict(5, "histogram mass conservation and exact affinities", not failures, str(failures))


def test_criterion_6_vibrato_grid():
    t = np.arange(0, 2.0, HOP)
    failures = []
    for rate in (4, 5, 6, 7, 8):
        for depth in (20, 40, 60, 80):
            f0 = 440.0 * 2.0 ** ((depth / 1200.0) * np.sin(2 * np.pi * rate * t))
            cents = 1200.0 * np.log2(f0 / 440.0)
            m = vibrato_metrics(cents, HOP)
            if abs(m.rate_hz - rate) > 0.3:
                failures.append(f"rate {rate}/{depth}: {m.rate_hz:.3f}")
            if abs(m.depth_cents - depth) > 0.10 * depth:
                failures.append(f"depth {rate}/{depth}: {m.depth_cents:.2f}")
    _verdict(6, "vibrato rate ±0.3 Hz, depth ±10% on 4-8 Hz x 20-80 c grid",
             not failures, str(failures))


def test_criterion_7_onset_glide_ramps():
    t = np.arange(0, 0.5, HOP)
    failures = []
    for truth in (100.0, -50.0, 0.0):
        cents = (truth / 0.3) * t
        got = onset_glide(cents, HOP, window_s=0.3)
        if abs(got - truth) > 5.0:
            failures.append(f"{truth:+.0f} cents -> {got:.2f}")
        if truth != 0.0 and np.sign(got) != np.sign(truth):
            failures.append(f"sign of {truth:+.0f} -> {got:.2f}")
        if truth == 0.0 and abs(got) > 1.0:
            failures.append(f"flat -> {got:.2f}")
    _verdict(7, "onset glide ±5 cents with correct sign", not failures, str(failures))


def test_criterion_8_pipeline_determinism(manifest_path, tmp_path):
    out_dir = tmp_path / "out"
    first = run_pipeline(manifest_path, out_dir=out_dir)
    snapshot = {p: Path(p).read_bytes() for p in first["outputs"]}
    second = run_pipeline(manifest_path, out_dir=out_dir)

    failures = []
    if set(second["outputs"]) != set(snapshot):
        failures.append("output file sets differ")
    for p, data in snapshot.items():
        if Path(p).read_bytes() != data:
            failures.append(f"bytes changed: {Path(p).name}")
    for p in snapshot:
        if p.endswith(".svg"):
            try:
                root = ET.fromstring(Path(p).read_text())
                if not root.tag.endswith("svg"):
                    failures.append(f"root element of {Path(p).name}")
            except ET.ParseError as exc:
                failures.append(f"{Path(p).name}: {exc}")
    _verdict(8, "pipeline rerun byte-identical, SVG well-formed",
             not failures, f"{len(snapshot)} files; {failures}")


def test_criterion_9_musicxml_fixture_decode(fixtures_dir):
    expected = json.loads((fixtures_dir / "joongmori_sample.expected.json").read_text())
    score = parse_musicxml((fixtures_dir / "joongmori_sample.musicxml").read_bytes())
    failures = []
    if score.daemok_id != expected["daemok_id"]:
        failures.append("daemok_id")
    if str(score.time_signature) != expected["time_signature"]:
        failures.append("time signature")
    if event_records(note_sequence(score, merge_ties=False)) != expected["unmerged"]:
        failures.append("unmerged events")
    if event_records(note_sequence(score, merge_ties=True)) != expected["merged"]:
        failures.append("merged events")
    _verdict(9, "MusicXML fixture equals hand-derived table", not failures, str(failures))
