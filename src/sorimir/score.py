"""MusicXML subset parser and the immutable score model.

Supported input: uncompressed MusicXML 3.x (`score-partwise`), a single
melodic part with a single voice. Durations are exact `Fraction`s in
quarter-note beats, so `divisions` never forces floating point.
"""

from __future__ import annotations

import math
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DanglingTieError,
    MusicXmlParseError,
    StructureError,
    UnsupportedStructureError,
)

STEP_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Canonical spelling used when converting a bare MIDI number back to a name.
_SHARP_SPELLING = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

_ALTER_SUFFIX = {-2: "bb", -1: "b", 0: "", 1: "#", 2: "##"}
_SUFFIX_ALTER = {v: k for k, v in _ALTER_SUFFIX.items()}

_NAME_RE = re.compile(r"^([A-G])(bb|b|##|#)?(-?\d+)$")


@dataclass(frozen=True)
class Pitch:
    """A spelled pitch. Spelling is preserved; comparisons should use `midi`."""

    step: str
    alter: int = 0
    octave: int = 4

    def __post_init__(self):
        if self.step not in STEP_SEMITONES:
            raise ValueError(f"bad step {self.step!r}")
        if not -2 <= self.alter <= 2:
            raise ValueError(f"alter {self.alter} outside -2..2")
        # Octave -1 is needed so that all 128 MIDI numbers are spellable.
        if not -1 <= self.octave <= 9:
            raise ValueError(f"octave {self.octave} outside -1..9")
        if not 0 <= self.midi <= 127:
            raise ValueError(f"pitch {self.step}{self.alter:+d}/{self.octave} maps to MIDI {self.midi}")

    @property
    def midi(self) -> int:
        return (self.octave + 1) * 12 + STEP_SEMITONES[self.step] + self.alter

    @property
    def pitch_class(self) -> int:
        return self.midi % 12


def pitch_name(pitch: Pitch) -> str:
    """Scientific pitch name, e.g. "D5", "F#4", "Eb5" (flats rendered as "b")."""
    return f"{pitch.step}{_ALTER_SUFFIX[pitch.alter]}{pitch.octave}"


def parse_pitch_name(name: str) -> Pitch:
    """Inverse of `pitch_name`."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"unparseable pitch name {name!r}")
    step, suffix, octave = m.groups()
    return Pitch(step, _SUFFIX_ALTER[suffix or ""], int(octave))


def pitch_from_midi(midi: int) -> Pitch:
    """Spell a MIDI number under the fixed sharp-spelling policy."""
    if not 0 <= midi <= 127:
        raise ValueError(f"MIDI {midi} outside 0..127")
    name = _SHARP_SPELLING[midi % 12]
    step, alter = name[0], len(name) - 1
    return Pitch(step, alter, midi // 12 - 1)


@dataclass(frozen=True)
class TimeSignature:
    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator < 1:
            raise ValueError(f"numerator {self.numerator} < 1")
        if self.denominator not in (1, 2, 4, 8, 16, 32):
            raise ValueError(f"denominator {self.denominator} is not a supported power of two")

    @property
    def quarter_beats(self) -> Fraction:
        """Measure capacity in quarter-note beats."""
        return Fraction(self.numerator * 4, self.denominator)

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class NoteEvent:
    """One score note or rest, positioned in beats from the piece start.

    `pitch` is None for rests. `tied_to_next` is kept alongside
    `tied_from_previous` so tie chains can be merged and validated without
    re-reading the source document.
    """

    onset_beats: Fraction
    duration_beats: Fraction
    pitch: Pitch | None
    measure_index: int
    tied_from_previous: bool = False
    tied_to_next: bool = False

    def __post_init__(self):
        if self.duration_beats <= 0:
            raise ValueError(f"duration {self.duration_beats} must be > 0")
        if self.measure_index < 0:
            raise ValueError("measure_index must be >= 0")

    @property
    def is_rest(self) -> bool:
        return self.pitch is None


@dataclass(frozen=True)
class Measure:
    """One measure's events; `capacity_beats` is its time signature's length in quarter-note beats."""

    index: int
    events: tuple[NoteEvent, ...]
    capacity_beats: Fraction
    is_pickup: bool = False

    @property
    def duration_beats(self) -> Fraction:
        return sum((e.duration_beats for e in self.events), Fraction(0))


@dataclass(frozen=True)
class Score:
    daemok_id: str
    time_signature: TimeSignature
    measures: tuple[Measure, ...]
    divisions: int


def _parse_xml_root(document) -> ET.Element:
    if hasattr(document, "read"):
        document = document.read()
    try:
        return ET.fromstring(document)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise MusicXmlParseError(f"malformed XML: {exc}", line=line) from exc
    except LookupError as exc:  # the XML declaration names an encoding Python does not know
        raise MusicXmlParseError(f"malformed XML: {exc}") from exc


def _int_text(text: str, element: str, measure_index: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise StructureError(
            f"<{element}> {text!r} is not an integer in measure {measure_index}"
        ) from None


def _parse_pitch_element(el: ET.Element | None, measure_index: int) -> Pitch:
    if el is None:
        raise StructureError(f"<note> without <pitch> or <rest> in measure {measure_index}")
    step = el.findtext("step")
    octave = el.findtext("octave")
    if step is None or octave is None:
        raise StructureError(f"<pitch> without step/octave in measure {measure_index}")
    alter_text = el.findtext("alter")
    alter = _int_text(alter_text, "alter", measure_index) if alter_text else 0
    try:
        return Pitch(step.strip(), alter, int(octave))
    except ValueError as exc:
        raise StructureError(f"bad pitch in measure {measure_index}: {exc}") from exc


def parse_musicxml(document) -> Score:
    """Parse a MusicXML document (bytes, str, or file-like) into a Score.

    Recognized elements: part, measure, attributes (divisions, time),
    note (pitch/rest, duration, tie). Lyrics, directions and similar
    markup are skipped; grace notes are skipped with a warning; chords and
    multiple parts/voices are rejected.
    """
    root = _parse_xml_root(document)
    if root.tag == "score-timewise":
        raise UnsupportedStructureError("unsupported element <score-timewise>: only partwise scores are handled")
    if root.tag != "score-partwise":
        raise StructureError(f"unexpected root element <{root.tag}>")

    parts = root.findall("part")
    if not parts:
        raise StructureError("no <part> element found")
    if len(parts) > 1:
        raise UnsupportedStructureError(
            f"unsupported element <part>: found {len(parts)} parts, only single-part scores are handled"
        )
    part = parts[0]

    daemok_id = (root.findtext("movement-title") or root.findtext("work/work-title") or part.get("id") or "score").strip()

    divisions: int | None = None
    time_sig: TimeSignature | None = None
    voice_seen: str | None = None
    measures: list[Measure] = []
    # Onsets and measure content are summed as integer ticks, `unit` to the quarter note: the
    # LCM of the <divisions> seen so far, so a change of divisions only rescales the sums.
    unit, onset_ticks, shared = 1, 0, {}

    def beats(ticks: int) -> Fraction:  # `ticks / unit`, one shared Fraction per pair
        key = (ticks, unit)
        return shared[key] if key in shared else shared.setdefault(key, Fraction(ticks, unit))

    for m_index, m_el in enumerate(part.findall("measure")):
        is_pickup = m_el.get("implicit") == "yes"
        events: list[NoteEvent] = []
        content_ticks = 0

        for child in m_el:
            if child.tag == "attributes":
                div_text = child.findtext("divisions")
                if div_text is not None:
                    divisions = _int_text(div_text, "divisions", m_index)
                    if divisions < 1:
                        raise StructureError(f"<divisions> must be positive, got {divisions}")
                    scale = math.lcm(unit, divisions) // unit
                    unit, onset_ticks, content_ticks = unit * scale, onset_ticks * scale, content_ticks * scale
                time_el = child.find("time")
                if time_el is not None:
                    try:
                        time_sig = TimeSignature(
                            int(time_el.findtext("beats")), int(time_el.findtext("beat-type"))
                        )
                    except (TypeError, ValueError) as exc:
                        raise StructureError(f"bad <time> in measure {m_index}: {exc}") from exc
                continue

            if child.tag != "note":
                # backup/forward only occur in multi-voice writing; with a
                # single voice they carry nothing, so they are skipped along
                # with lyrics, directions, barlines etc.
                continue

            if child.find("grace") is not None:
                warnings.warn(f"grace note skipped in measure {m_index}", stacklevel=2)
                continue
            if child.find("chord") is not None:
                raise UnsupportedStructureError(f"unsupported element <chord> in measure {m_index}")
            voice = child.findtext("voice")
            if voice is not None:
                if voice_seen is None:
                    voice_seen = voice
                elif voice != voice_seen:
                    raise UnsupportedStructureError(
                        f"unsupported element <voice>: second voice {voice!r} in measure {m_index}"
                    )

            dur_text = child.findtext("duration")
            if dur_text is None:
                raise StructureError(f"<note> without <duration> in measure {m_index}")
            if divisions is None:
                raise StructureError("missing <divisions> before the first note")
            ticks = _int_text(dur_text, "duration", m_index) * (unit // divisions)
            duration, onset = beats(ticks), beats(onset_ticks)

            is_rest = child.find("rest") is not None
            pitch = None if is_rest else _parse_pitch_element(child.find("pitch"), m_index)

            tie_types = {t.get("type") for t in child.findall("tie")}
            events.append(
                NoteEvent(
                    onset_beats=onset,
                    duration_beats=duration,
                    pitch=pitch,
                    measure_index=m_index,
                    tied_from_previous=not is_rest and "stop" in tie_types,
                    tied_to_next=not is_rest and "start" in tie_types,
                )
            )
            onset_ticks += ticks
            content_ticks += ticks

        if time_sig is None:
            raise StructureError(f"no <time> signature seen by the end of measure {m_index}")

        content = Fraction(content_ticks, unit)
        capacity = time_sig.quarter_beats
        if content != capacity and not (is_pickup and content < capacity):
            raise StructureError(
                f"measure {m_index} sums to {content} quarter beats, expected {capacity}"
                + (" (pickup longer than a full measure)" if is_pickup else "")
            )

        measures.append(
            Measure(index=m_index, events=tuple(events), capacity_beats=capacity, is_pickup=is_pickup)
        )

    if time_sig is None:
        raise StructureError("score contains no measures")

    return Score(
        daemok_id=daemok_id,
        time_signature=time_sig,
        measures=tuple(measures),
        divisions=divisions if divisions is not None else 1,
    )


def note_sequence(score: Score, merge_ties: bool = True) -> list[NoteEvent]:
    """Flatten a Score into an onset-sorted event list.

    With `merge_ties`, each tie chain collapses into one NoteEvent whose
    duration is the exact rational sum. Rests are always retained.
    """
    events = [e for m in score.measures for e in m.events]
    if not merge_ties:
        return events

    merged: list[NoteEvent] = []
    i = 0
    n = len(events)
    while i < n:
        ev = events[i]
        if ev.pitch is None or not ev.tied_to_next:
            merged.append(ev)
            i += 1
            continue
        total = ev.duration_beats
        j = i
        while events[j].tied_to_next:
            nxt = events[j + 1] if j + 1 < n else None
            if (
                nxt is None
                or nxt.pitch is None
                or not nxt.tied_from_previous
                or nxt.pitch.midi != ev.pitch.midi
            ):
                raise DanglingTieError(
                    f"tie started in measure {events[j].measure_index} never ends"
                )
            total += nxt.duration_beats
            j += 1
        merged.append(
            NoteEvent(
                onset_beats=ev.onset_beats,
                duration_beats=total,
                pitch=ev.pitch,
                measure_index=ev.measure_index,
            )
        )
        i = j + 1
    return merged


def fraction_str(value: Fraction) -> str:
    """Render a rational as "num/den" (always with an explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


def event_records(events: list[NoteEvent]) -> list[dict]:
    """JSON-ready rows for a note-event dump (schema documented in README)."""
    rows = []
    for ev in events:
        rows.append(
            {
                "onset": fraction_str(ev.onset_beats),
                "duration": fraction_str(ev.duration_beats),
                "pitch": None if ev.pitch is None else pitch_name(ev.pitch),
                "midi": None if ev.pitch is None else ev.pitch.midi,
                "measure": ev.measure_index,
                "tied_from_previous": ev.tied_from_previous,
            }
        )
    return rows
