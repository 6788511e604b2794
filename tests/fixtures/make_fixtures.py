#!/usr/bin/env python3
"""Regenerate the synthetic fixtures: sample.beats.csv, sample.f0.csv and the meter set.

Standalone on purpose: the fixtures act as test oracles, so they are built
from the note tables below rather than through the package under test. The
sample tables are a hand copy of joongmori_sample.musicxml. Each meter
fixture (12/8, 10/8, a 12/4 pickup) gets a MusicXML score, a beats CSV, an
F0 CSV and a manifest, all rendered here from one note table; the 12/8 one
is the sample performance transcribed in 12/8, so it reuses the sample's
beats and F0. Output is deterministic.

Placement convention (the one sorimir implements): score measure m is grid
measure m, and a position that is `u` written beats into its measure lies at
grid beat m * bpm + u * bpm / beats-per-measure-written. A pickup measure
ends on the downbeat of grid measure 1, so its notes fill the last beats of
grid measure 0. Run as a script to rewrite the files next to it.
"""

import json
import math
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).parent

MEASURES = 3
BEATS_PER_MEASURE = 12
LEAD_IN_S = 0.25
HOP_S = 0.01
TAIL_S = 0.2

VIBRATO_RATE_HZ = 5.5
VIBRATO_DEPTH_CENTS = 30.0
VIBRATO_MIN_BEATS = 2.0
CONFIDENCE = 0.92

# (onset_beats, duration_beats, midi or None for rests), tie-merged.
NOTES = [
    (0.0, 3.0, 74),
    (3.0, 3.0, 76),
    (6.0, 3.0, 78),
    (9.0, 1.5, None),
    (10.5, 1.5, 79),
    (12.0, 2.0, 69),
    (14.0, 2.0, 72),
    (16.0, 2.0, 69),
    (18.0, 2.0, 72),
    (20.0, 2.0, 67),
    (22.0, 3.0, 64),
    (25.0, 5.0, 62),
    (30.0, 6.0, 60),
]

# Meter fixtures: notes as (onset, duration, midi) in written beats (the time
# signature's beat-type note) from the score's first note, and the pulse the
# annotator tapped, in grid beats per measure.
METERS = {
    "meter-12-8": {  # the sample performance, transcribed in 12/8: one eighth per grid beat
        "beats": 12, "beat_type": 8, "divisions": 4, "bpm": 12, "pickup": 0, "notes": NOTES,
        "recording": "sample", "contour_patterns": ["A4:1/1 C5:1/1"],
    },
    "meter-10-8": {  # eotmori-like 3+2+3+2 eighths
        "beats": 10, "beat_type": 8, "divisions": 2, "bpm": 10, "pickup": 0,
        "notes": [
            (0, 3, 74), (3, 2, 76), (5, 3, 78), (8, 2, None),
            (10, 2, 69), (12, 3, 72), (15, 2, 69), (17, 3, 72),
            (20, 3, 67), (23, 2, 64), (25, 5, 62),
        ],
        "contour_patterns": ["A4:1/1 C5:3/2"],
    },
    "pickup-12-4": {  # a three-beat pickup into two full 12/4 measures
        "beats": 12, "beat_type": 4, "divisions": 1, "bpm": 12, "pickup": 3,
        "notes": [
            (0, 1, 67), (1, 2, 69),
            (3, 2, 69), (5, 2, 72), (7, 2, 69), (9, 2, 72), (11, 2, 67), (13, 2, 64),
            (15, 6, 62), (21, 6, 60),
        ],
        "contour_patterns": ["A4:2/1 C5:2/1", "G4:1/1 A4:2/1"],
    },
}

_SHARP_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


def beat_times(n_beats: int = MEASURES * BEATS_PER_MEASURE) -> list[float]:
    # Gently uneven inter-beat intervals (0.46/0.52/0.50/0.48 cycle) so the
    # grid is not trivially linear.
    times = [LEAD_IN_S]
    for g in range(n_beats - 1):
        times.append(round(times[-1] + 0.46 + 0.02 * ((3 * g) % 4), 3))
    return times


def beat_at_time(times: list[float], t: float):
    if t < times[0] or t > times[-1]:
        return None
    i = min(bisect_right(times, t) - 1, len(times) - 2)
    return i + (t - times[i]) / (times[i + 1] - times[i])


def note_at(notes, position: float):
    for onset, duration, midi in notes:
        if onset <= position < onset + duration:
            return onset, duration, midi
    return None


def beats_csv(times: list[float], bpm: int = BEATS_PER_MEASURE) -> str:
    lines = ["measure,beat,time"]
    for g, t in enumerate(times):
        lines.append(f"{g // bpm},{g % bpm},{t:.3f}")
    return "\n".join(lines) + "\n"


def f0_csv(times: list[float], notes=NOTES, grid_per_written: float = 1.0, shift: float = 0.0,
           vibrato: bool = True) -> str:
    """A clean rendering of `notes` on the grid `times`: a written position u sounds at grid
    beat (u + shift) * grid_per_written. Notes of VIBRATO_MIN_BEATS grid beats or more carry
    vibrato unless `vibrato` is off."""
    rows = ["time,frequency,confidence"]
    n_frames = int(round((times[-1] + TAIL_S) / HOP_S)) + 1
    for k in range(n_frames):
        t = k * HOP_S
        beat = beat_at_time(times, t)
        note = None if beat is None else note_at(notes, beat / grid_per_written - shift)
        if note is None or note[2] is None:
            rows.append(f"{t:.2f},0.000,0.0")
            continue
        _, duration, midi = note
        freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
        if vibrato and duration * grid_per_written >= VIBRATO_MIN_BEATS:
            freq *= 2.0 ** (
                (VIBRATO_DEPTH_CENTS / 1200.0) * math.sin(2.0 * math.pi * VIBRATO_RATE_HZ * t)
            )
        rows.append(f"{t:.2f},{freq:.3f},{CONFIDENCE}")
    return "\n".join(rows) + "\n"


def barlines(notes, beats: int, pickup=0) -> list:
    """Each measure's first written beat, then the score's end: a `pickup` of that many
    written beats opens the score as a measure of its own."""
    bars = [0, pickup] if pickup else [0, beats]
    end = max(onset + duration for onset, duration, _ in notes)
    while bars[-1] < end:
        bars.append(bars[-1] + beats)
    return bars


def musicxml(title: str, notes, beats: int, beat_type: int, divisions: int, pickup=0) -> str:
    """One-part MusicXML of `notes` (written beats from the first note). A note that crosses
    a barline is split into tied notes; a pickup is an implicit measure."""
    per_beat = divisions * 4 / beat_type  # divisions per written beat
    starts = barlines(notes, beats, pickup)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<score-partwise version="3.1">',
        f"  <movement-title>{title}</movement-title>",
        '  <part-list><score-part id="P1"><part-name>Voice</part-name></score-part></part-list>',
        '  <part id="P1">',
    ]
    for m, (lo, hi) in enumerate(zip(starts, starts[1:])):
        implicit = ' implicit="yes"' if pickup and m == 0 else ""
        out.append(f'    <measure number="{m + 1}"{implicit}>')
        if m == 0:
            out.append(
                f"      <attributes><divisions>{divisions}</divisions><time><beats>{beats}</beats>"
                f"<beat-type>{beat_type}</beat-type></time></attributes>"
            )
        for onset, duration, midi in notes:
            a, b = max(onset, lo), min(onset + duration, hi)
            if a >= b:
                continue
            ticks = (b - a) * per_beat
            if ticks != int(ticks):
                raise ValueError(f"{b - a} beats is not a whole number of divisions")
            if midi is None:
                body = "<rest/>"
            else:
                name = _SHARP_NAMES[midi % 12]
                alter = "<alter>1</alter>" if len(name) == 2 else ""
                body = f"<pitch><step>{name[0]}</step>{alter}<octave>{midi // 12 - 1}</octave></pitch>"
            ties = ('<tie type="stop"/>' if a > onset else "") + (
                '<tie type="start"/>' if b < onset + duration else "")
            out.append(f"      <note>{body}<duration>{int(ticks)}</duration>{ties}<voice>1</voice></note>")
        out.append("    </measure>")
    out += ["  </part>", "</score-partwise>", ""]
    return "\n".join(out)


def render_meter(name: str, spec: dict) -> dict[str, str]:
    """File name -> text of one meter fixture: score, manifest and, unless it reuses the
    sample recording, its beats and F0 CSVs."""
    score = f"{name}.musicxml"
    files = {score: musicxml(name, spec["notes"], spec["beats"], spec["beat_type"],
                             spec["divisions"], spec["pickup"])}
    if spec.get("recording") == "sample":
        beats, f0 = "sample.beats.csv", "sample.f0.csv"
    else:
        n_measures = len(barlines(spec["notes"], spec["beats"], spec["pickup"])) - 1
        times = beat_times(n_measures * spec["bpm"])
        shift = (spec["beats"] - spec["pickup"]) if spec["pickup"] else 0
        beats, f0 = f"{name}.beats.csv", f"{name}.f0.csv"
        files[beats] = beats_csv(times, spec["bpm"])
        files[f0] = f0_csv(times, spec["notes"], spec["bpm"] / spec["beats"], shift)
    manifest = {
        "daemok": [{"id": name, "score": score, "f0_csv": f0, "beats": beats}],
        "settings": {"beats_per_measure": spec["bpm"], "min_support": 1,
                     "contour_patterns": spec["contour_patterns"]},
    }
    files[f"{name}.manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    return files


def main():
    times = beat_times()
    (HERE / "sample.beats.csv").write_text(beats_csv(times))
    (HERE / "sample.f0.csv").write_text(f0_csv(times))
    print(f"wrote {len(times)} beats, {int(round((times[-1] + TAIL_S) / HOP_S)) + 1} f0 frames")
    for name, spec in METERS.items():
        for file_name, text in render_meter(name, spec).items():
            (HERE / file_name).write_text(text)
        print(f"wrote the {name} fixture")


if __name__ == "__main__":
    main()
