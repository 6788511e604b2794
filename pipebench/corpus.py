"""Seeded corpus generator for the pipeline benchmark.

Standalone on purpose, like tests/fixtures/make_fixtures.py: the corpus and
its ground-truth sidecar act as the oracle for the benchmark's output
checks, so nothing here imports `sorimir`. Scores are 12/4 joongmori with no
pickup, built measure by measure from a seeded motif bank; contour patterns
are n-grams taken from that bank, and their support is counted here by a
plain scan of the generated note lists.

Usage (normally called by run.py):
    python3 pipebench/corpus.py --workload csv_corpus --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import wave
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

BEATS_PER_MEASURE = 12
DIVISIONS = 2          # MusicXML divisions per quarter beat; durations are halves
LEAD_IN_S = 0.25
TAIL_S = 0.2
CSV_HOP_S = 0.01
SAMPLE_RATE = 22050

# Library defaults the ground truth depends on (pipeline filter and YIN).
FILTER_MIN_CONF, FILTER_MIN_HZ, FILTER_MAX_HZ = 0.6, 350.0, 1000.0
YIN_WINDOW = int(round(0.046 * SAMPLE_RATE))
YIN_HOP = int(round(0.010 * SAMPLE_RATE))
YIN_TAU_MAX = int(math.floor(SAMPLE_RATE / 60.0))
CONTOUR_SAMPLES = 200

# Pentatonic register G4..A5: with +-30 cents of vibrato every note stays
# inside the default 350..1000 Hz filter band.
SCALE = (67, 69, 72, 74, 76, 79, 81)
RHYTHM = tuple(Fraction(d) for d in ("1/2", "1/2", "1", "3/2", "3/2", "2", "2", "3"))
VIBRATO_RATE_HZ = 5.5
VIBRATO_DEPTH_CENTS = 30.0
VIBRATO_MIN_BEATS = 2

_SHARP_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


@dataclass(frozen=True)
class Workload:
    kind: str                 # "csv" or "wav"
    measures: tuple[int, ...]  # one entry per daemok
    bank_size: int
    bank_skew: float          # 0 = uniform motif choice; higher favours early motifs
    n_patterns: int
    beat_s: float


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "csv_corpus": Workload("csv", (8,) * 100, 24, 0.0, 2, 0.5),
    "pattern_dense": Workload("csv", (60,) * 6, 6, 0.35, 12, 0.5),
    "wav_long": Workload("wav", (3, 9), 4, 0.0, 2, 0.28),
}


def midi_hz(midi: int) -> float:
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def token(midi, duration: Fraction) -> str:
    head = "R" if midi is None else f"{_SHARP_NAMES[midi % 12]}{midi // 12 - 1}"
    return f"{head}:{duration.numerator}/{duration.denominator}"


def make_motif(rng: random.Random) -> list[tuple[int | None, Fraction]]:
    """One measure of (midi or None, duration) filling exactly 12 beats.

    Every motif has the same rhythm multiset, with its one-beat value as a
    rest, so the work per measure does not depend on the seed; only the
    order and the pitches do.
    """
    durations = list(RHYTHM)
    rng.shuffle(durations)
    rest_at = durations.index(Fraction(1))
    return [(None if k == rest_at else rng.choice(SCALE), d) for k, d in enumerate(durations)]


def motif_sequence(rng: random.Random, spec: "Workload") -> list[int]:
    """Motif index of every measure in the corpus, daemok after daemok.

    Each motif's share of the measures is fixed by the workload's skew
    (largest-remainder rounding); the seed only shuffles their order.
    """
    total = sum(spec.measures)
    weights = [math.exp(-spec.bank_skew * i) for i in range(spec.bank_size)]
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(spec.bank_size), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    order = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(order)
    return order


def beat_times(rng: random.Random, n_beats: int, beat_s: float) -> list[float]:
    times = [LEAD_IN_S]
    for _ in range(n_beats - 1):
        times.append(round(times[-1] + beat_s * (0.92 + 0.16 * rng.random()), 3))
    return times


def musicxml(daemok_id: str, notes) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<score-partwise version="3.1">',
        f"  <movement-title>{daemok_id}</movement-title>",
        '  <part-list><score-part id="P1"><part-name>Voice</part-name></score-part></part-list>',
        '  <part id="P1">',
    ]
    beat = Fraction(0)
    for midi, duration in notes:
        if beat % BEATS_PER_MEASURE == 0:
            if beat:
                out.append("    </measure>")
            out.append(f'    <measure number="{beat // BEATS_PER_MEASURE + 1}">')
            if beat == 0:
                out.append(
                    f"      <attributes><divisions>{DIVISIONS}</divisions>"
                    f"<time><beats>{BEATS_PER_MEASURE}</beats><beat-type>4</beat-type></time>"
                    "</attributes>"
                )
        if midi is None:
            body = "<rest/>"
        else:
            name = _SHARP_NAMES[midi % 12]
            alter = "<alter>1</alter>" if len(name) == 2 else ""
            body = f"<pitch><step>{name[0]}</step>{alter}<octave>{midi // 12 - 1}</octave></pitch>"
        out.append(
            f"      <note>{body}<duration>{int(duration * DIVISIONS)}</duration>"
            "<voice>1</voice></note>"
        )
        beat += duration
    out += ["    </measure>", "  </part>", "</score-partwise>", ""]
    return "\n".join(out)


def beats_csv(times: list[float]) -> str:
    lines = ["measure,beat,time"]
    for g, t in enumerate(times):
        lines.append(f"{g // BEATS_PER_MEASURE},{g % BEATS_PER_MEASURE},{t:.3f}")
    return "\n".join(lines) + "\n"


class NoteMap:
    """Time -> sounding note, through the beat grid (no extrapolation)."""

    def __init__(self, notes, times: list[float]):
        self.times = times
        self.onsets = []
        beat = 0.0
        for _, duration in notes:
            self.onsets.append(beat)
            beat += float(duration)
        self.notes = notes

    def at(self, t: float):
        times = self.times
        if t < times[0] or t > times[-1]:
            return None
        i = min(bisect_right(times, t) - 1, len(times) - 2)
        beat = i + (t - times[i]) / (times[i + 1] - times[i])
        k = bisect_right(self.onsets, beat) - 1
        return self.notes[k]


def f0_csv(rng: random.Random, notes, times: list[float]) -> tuple[str, int, int]:
    """Tracker-like CSV with low-confidence and octave-down errors.

    Returns (text, rows, frames passing the default filter); the pass count
    is taken from the values as written, so it is exact.
    """
    note_map = NoteMap(notes, times)
    rows = ["time,frequency,confidence"]
    n_frames = int(round((times[-1] + TAIL_S) / CSV_HOP_S)) + 1
    passing = 0
    for k in range(n_frames):
        t = k * CSV_HOP_S
        note = note_map.at(t)
        if note is None or note[0] is None:
            rows.append(f"{t:.2f},0.000,0.00")
            continue
        midi, duration = note
        freq = midi_hz(midi)
        if duration >= VIBRATO_MIN_BEATS:
            freq *= 2.0 ** (VIBRATO_DEPTH_CENTS / 1200.0 * math.sin(2.0 * math.pi * VIBRATO_RATE_HZ * t))
        conf = 0.75 + 0.2 * rng.random()
        draw = rng.random()
        if draw < 0.06:
            conf = 0.2 + 0.35 * rng.random()
        elif draw < 0.09:
            freq /= 2.0
        f_text, c_text = f"{freq:.3f}", f"{conf:.2f}"
        f, c = float(f_text), float(c_text)
        if c >= FILTER_MIN_CONF and FILTER_MIN_HZ <= f <= FILTER_MAX_HZ:
            passing += 1
        rows.append(f"{t:.2f},{f_text},{c_text}")
    return "\n".join(rows) + "\n", n_frames, passing


def wav_samples(np_rng: np.random.Generator, notes, times: list[float]) -> np.ndarray:
    """Harmonic voice with vibrato, silent (noise floor) in rests."""
    n = int(round((times[-1] + TAIL_S) * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    inside = (t >= times[0]) & (t <= times[-1])
    beat = np.interp(t, times, np.arange(len(times)))
    onsets = np.cumsum([0.0] + [float(d) for _, d in notes[:-1]])
    k = np.clip(np.searchsorted(onsets, beat, side="right") - 1, 0, len(notes) - 1)
    midi = np.array([0 if m is None else m for m, _ in notes], dtype=float)[k]
    long_note = np.array([d >= VIBRATO_MIN_BEATS for _, d in notes])[k]
    voiced = inside & (midi > 0)
    freq = np.where(voiced, 440.0 * 2.0 ** ((midi - 69.0) / 12.0), 0.0)
    vib = VIBRATO_DEPTH_CENTS / 1200.0 * np.sin(2.0 * np.pi * VIBRATO_RATE_HZ * t)
    freq = np.where(long_note, freq * 2.0 ** vib, freq)
    phase = 2.0 * np.pi * np.cumsum(freq) / SAMPLE_RATE
    ramp = int(0.01 * SAMPLE_RATE)
    amp = np.convolve(voiced.astype(float), np.ones(ramp) / ramp, mode="same")
    x = amp * (0.5 * np.sin(phase) + 0.15 * np.sin(2 * phase) + 0.05 * np.sin(3 * phase))
    x += 0.003 * np_rng.standard_normal(n)
    return np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")


def write_wav(path: Path, pcm: np.ndarray):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def count_occurrences(pattern: tuple[str, ...], sequences: dict) -> tuple[int, int]:
    """(support, placed): all windows equal to `pattern`, and those whose
    span ends on or before the grid's last annotated beat."""
    support = placed = 0
    n = len(pattern)
    for tokens, durations, last_beat in sequences.values():
        onset = Fraction(0)
        for start in range(len(tokens) - n + 1):
            if tuple(tokens[start:start + n]) == pattern:
                support += 1
                if onset + sum(durations[start:start + n]) <= last_beat:
                    placed += 1
            onset += durations[start]
    return support, placed


def pick_patterns(rng: random.Random, bank, sequences: dict, count: int) -> list[dict]:
    """Contour pattern k is a (3 + k % 2)-gram of motif k % len(bank) that
    starts on a note. 2-grams are avoided because they also match by chance
    elsewhere, which would make the patterns' total support vary by seed."""
    chosen = []
    for k in range(count):
        motif = bank[k % len(bank)]
        n = 3 + k % 2
        starts = [i for i in range(len(motif) - n + 1) if motif[i][0] is not None]
        for start in rng.sample(starts, len(starts)):
            pattern = tuple(token(m, d) for m, d in motif[start:start + n])
            if " ".join(pattern) not in (c["text"] for c in chosen):
                break
        support, placed = count_occurrences(pattern, sequences)
        if support < 2:
            raise RuntimeError(f"pattern {' '.join(pattern)!r} occurs {support} time(s); need >= 2")
        chosen.append({"text": " ".join(pattern), "support": support, "placed": placed})
    return chosen


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs, manifest and truth.json into `out`."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    np_rng = np.random.default_rng(rng.getrandbits(63))
    out.mkdir(parents=True, exist_ok=True)

    bank = [make_motif(rng) for _ in range(spec.bank_size)]
    order = motif_sequence(rng, spec)
    entries, daemok, sequences = [], {}, {}
    for i, n_measures in enumerate(spec.measures):
        daemok_id = f"d{i:03d}"
        notes = [note for m in order[:n_measures] for note in bank[m]]
        order = order[n_measures:]
        times = beat_times(rng, n_measures * BEATS_PER_MEASURE, spec.beat_s)
        (out / f"{daemok_id}.musicxml").write_text(musicxml(daemok_id, notes))
        (out / f"{daemok_id}.beats.csv").write_text(beats_csv(times))
        entry = {"id": daemok_id, "score": f"{daemok_id}.musicxml", "beats": f"{daemok_id}.beats.csv"}
        info = {"score_bins": sorted({m for m, _ in notes if m is not None})}
        if spec.kind == "csv":
            text, rows, passing = f0_csv(rng, notes, times)
            (out / f"{daemok_id}.f0.csv").write_text(text)
            entry["f0_csv"] = f"{daemok_id}.f0.csv"
            info.update(frames=rows, passing_frames=passing)
        else:
            pcm = wav_samples(np_rng, notes, times)
            write_wav(out / f"{daemok_id}.wav", pcm)
            entry["audio"] = f"{daemok_id}.wav"
            frames = (pcm.size - (YIN_WINDOW + YIN_TAU_MAX)) // YIN_HOP + 1
            info.update(frames=frames, audio_s=pcm.size / SAMPLE_RATE)
        entries.append(entry)
        daemok[daemok_id] = info
        sequences[daemok_id] = (
            [token(m, d) for m, d in notes],
            [d for _, d in notes],
            len(times) - 1,
        )

    patterns = pick_patterns(rng, bank, sequences, spec.n_patterns)
    manifest = {"daemok": entries, "settings": {"contour_patterns": [p["text"] for p in patterns]}}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    expected = ["patterns.json"]
    for daemok_id in daemok:
        expected += [f"{daemok_id}.histogram.json", f"{daemok_id}.histogram.svg"]
    for i in range(len(patterns)):
        expected += [f"pattern-{i:02d}.{kind}" for kind in ("contours.csv", "overlay.svg", "vibrato.json")]
    expected += [name + ".prov.json" for name in expected]

    truth = {
        "workload": workload,
        "seed": seed,
        "kind": spec.kind,
        "daemok": daemok,
        "patterns": patterns,
        "contour_samples": CONTOUR_SAMPLES,
        "frames": sum(d["frames"] for d in daemok.values()),
        "expected_files": sorted(expected),
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return truth


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, Path(args.out))
    print(f"{args.workload}: {len(truth['daemok'])} daemok, {truth['frames']} frames, "
          f"{len(truth['patterns'])} contour patterns, {len(truth['expected_files'])} outputs")


if __name__ == "__main__":
    main()
