"""Pitch histograms (F0 frame counts vs. score note durations) and modes.

F0 frames land in the nearest equal-tempered semitone of a configurable
reference tuning; score notes are weighted by their exact rational
duration. Mode templates score how much histogram mass sits on a scale's
pitch classes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import UndefinedAffinityError
from .pitch_track import F0Track, hz_to_cents
from .score import PITCH_CLASS_NAMES, NoteEvent, fraction_str, pitch_from_midi, pitch_name

BIN_MIDI = "midi"
BIN_PITCH_CLASS = "pitch_class"

UNIT_FRAMES = "frames"
UNIT_BEATS = "beats"

PC_D = 2


@dataclass(frozen=True)
class PitchHistogram:
    """Mass per semitone (MIDI) bin or per pitch class.

    `masses` are floats; duration-weighted histograms additionally carry
    `exact_masses` as rationals so totals can be checked exactly.
    """

    bin_kind: str
    masses: Mapping[int, float]
    unit: str
    exact_masses: Mapping[int, Fraction] | None = None

    def __post_init__(self):
        if self.bin_kind not in (BIN_MIDI, BIN_PITCH_CLASS):
            raise ValueError(f"unknown bin_kind {self.bin_kind!r}")
        if self.unit not in (UNIT_FRAMES, UNIT_BEATS):
            raise ValueError(f"unknown unit {self.unit!r}")
        if any(v < 0 for v in self.masses.values()):
            raise ValueError("histogram masses must be non-negative")

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses.values()))

    @property
    def exact_total(self) -> Fraction | None:
        if self.exact_masses is None:
            return None
        return sum(self.exact_masses.values(), Fraction(0))

    def pitch_class_reduction(self) -> "PitchHistogram":
        """Fold MIDI bins mod 12; total mass is preserved."""
        if self.bin_kind == BIN_PITCH_CLASS:
            return self
        folded: dict[int, float] = {}
        for b, v in self.masses.items():
            folded[b % 12] = folded.get(b % 12, 0.0) + v
        exact = None
        if self.exact_masses is not None:
            exact = {}
            for b, v in self.exact_masses.items():
                exact[b % 12] = exact.get(b % 12, Fraction(0)) + v
        return PitchHistogram(BIN_PITCH_CLASS, folded, self.unit, exact)

    def bin_label(self, b: int) -> str:
        if self.bin_kind == BIN_PITCH_CLASS:
            return PITCH_CLASS_NAMES[b % 12]
        if 0 <= b <= 127:
            return pitch_name(pitch_from_midi(b))
        return f"midi{b}"

    def to_record(self) -> dict:
        """JSON-ready representation (bins as sorted string keys)."""
        rec = {
            "bin_kind": self.bin_kind,
            "unit": self.unit,
            "masses": {str(b): self.masses[b] for b in sorted(self.masses)},
            "labels": {str(b): self.bin_label(b) for b in sorted(self.masses)},
        }
        if self.exact_masses is not None:
            rec["exact_masses"] = {
                str(b): fraction_str(self.exact_masses[b]) for b in sorted(self.exact_masses)
            }
        return rec


def _nearest_semitone(midi_float: np.ndarray) -> np.ndarray:
    # Exact half-semitone values round toward the lower bin.
    return np.ceil(midi_float - 0.5).astype(int)


def f0_histogram(
    track: F0Track, reference_hz: float = 440.0, bin_kind: str = BIN_MIDI
) -> PitchHistogram:
    """Voiced-frame counts per nearest semitone of the reference tuning.

    Expects a filtered track; frames outside the MIDI range are still
    binned but trigger a warning since they suggest the filter was skipped.
    """
    voiced_f0 = track.f0_hz[track.voiced]
    masses: dict[int, float] = {}
    if voiced_f0.size:
        midi_float = 69.0 + hz_to_cents(voiced_f0, reference_hz) / 100.0
        bins = _nearest_semitone(midi_float)
        if np.any((bins < 0) | (bins > 127)):
            warnings.warn(
                "track contains frequencies outside the MIDI range; was it filtered?",
                stacklevel=2,
            )
        uniq, counts = np.unique(bins, return_counts=True)
        masses = {int(b): float(c) for b, c in zip(uniq, counts)}
    hist = PitchHistogram(BIN_MIDI, masses, UNIT_FRAMES)
    return hist if bin_kind == BIN_MIDI else hist.pitch_class_reduction()


def score_duration_histogram(
    events: Sequence[NoteEvent], bin_kind: str = BIN_MIDI
) -> PitchHistogram:
    """Summed rational note durations per MIDI bin; rests are excluded."""
    exact: dict[int, Fraction] = {}
    for ev in events:
        if ev.pitch is None:
            continue
        b = ev.pitch.midi
        exact[b] = exact.get(b, Fraction(0)) + ev.duration_beats
    masses = {b: float(v) for b, v in exact.items()}
    hist = PitchHistogram(BIN_MIDI, masses, UNIT_BEATS, exact_masses=exact)
    return hist if bin_kind == BIN_MIDI else hist.pitch_class_reduction()


@dataclass(frozen=True)
class ModeTemplate:
    """Scale degrees (pitch classes relative to the tonic) of one mode."""

    name: str
    scale_degrees: frozenset[int]
    tonic: int

    def __post_init__(self):
        if not self.scale_degrees:
            raise ValueError("scale_degrees must be non-empty")
        if not all(0 <= d <= 11 for d in self.scale_degrees):
            raise ValueError("scale degrees must lie in 0..11")
        if not 0 <= self.tonic <= 11:
            raise ValueError("tonic must be a pitch class 0..11")

    @property
    def pitch_classes(self) -> frozenset[int]:
        return frozenset((self.tonic + d) % 12 for d in self.scale_degrees)


def ujo(tonic: int = PC_D) -> ModeTemplate:
    """Pentatonic D-F-G-A-C shape (degrees 0,3,5,7,10) on the given tonic."""
    return ModeTemplate("ujo", frozenset({0, 3, 5, 7, 10}), tonic)


def gyemyeonjo(tonic: int = PC_D) -> ModeTemplate:
    """D-E-(G)-A-C shape (degrees 0,2,5,7,10) on the given tonic.

    The sobbing F->E figure is treated as an ornamental upper neighbor, so
    F is not a scale degree here.
    """
    return ModeTemplate("gyemyeonjo", frozenset({0, 2, 5, 7, 10}), tonic)


MODE_FACTORIES = {"ujo": ujo, "gyemyeonjo": gyemyeonjo}


def mode_affinity(histogram: PitchHistogram, template: ModeTemplate) -> float:
    """Fraction of total histogram mass on the template's pitch classes."""
    pc_hist = histogram.pitch_class_reduction()
    total = pc_hist.total_mass
    if total <= 0:
        raise UndefinedAffinityError("mode affinity is undefined for a zero-mass histogram")
    on_scale = sum(pc_hist.masses.get(pc, 0.0) for pc in template.pitch_classes)
    return on_scale / total
