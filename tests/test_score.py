import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.errors import (
    DanglingTieError,
    MusicXmlParseError,
    StructureError,
    UnsupportedStructureError,
)
from sorimir.score import (
    NoteEvent,
    Pitch,
    TimeSignature,
    event_records,
    note_sequence,
    parse_musicxml,
    parse_pitch_name,
    pitch_from_midi,
    pitch_name,
)


def xml_doc(measures: str, divisions: int = 1, beats: int = 12, beat_type: int = 4) -> bytes:
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<score-partwise version="3.1">
  <part-list><score-part id="P1"><part-name>V</part-name></score-part></part-list>
  <part id="P1">
    <measure number="1">
      <attributes>
        <divisions>{divisions}</divisions>
        <time><beats>{beats}</beats><beat-type>{beat_type}</beat-type></time>
      </attributes>
      {measures}
    </measure>
  </part>
</score-partwise>""".encode()


def note_xml(step, octave, duration, alter=None, tie=None, rest=False):
    if rest:
        body = "<rest/>"
    else:
        alter_el = f"<alter>{alter}</alter>" if alter is not None else ""
        body = f"<pitch><step>{step}</step>{alter_el}<octave>{octave}</octave></pitch>"
    tie_el = "".join(f'<tie type="{t}"/>' for t in (tie or ()))
    return f"<note>{body}<duration>{duration}</duration>{tie_el}</note>"


class TestPitch:
    def test_midi_formula(self):
        assert Pitch("C", 0, 4).midi == 60
        assert Pitch("A", 0, 4).midi == 69
        assert Pitch("D", 0, 5).midi == 74
        assert Pitch("F", 1, 5).midi == 78
        assert Pitch("E", -1, 5).midi == 75

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Pitch("H", 0, 4)
        with pytest.raises(ValueError):
            Pitch("C", 3, 4)
        with pytest.raises(ValueError):
            Pitch("C", 0, 10)
        with pytest.raises(ValueError):
            Pitch("B", 2, 9)  # MIDI 133

    def test_pitch_name_examples(self):
        assert pitch_name(Pitch("C", 0, 4)) == "C4"
        assert pitch_name(Pitch("F", 1, 4)) == "F#4"
        assert pitch_name(Pitch("E", -1, 5)) == "Eb5"
        assert pitch_name(Pitch("B", -2, 3)) == "Bbb3"

    def test_name_round_trip_all_midi(self):
        for midi in range(128):
            spelled = pitch_from_midi(midi)
            assert parse_pitch_name(pitch_name(spelled)).midi == midi

    def test_parse_name_rejects_garbage(self):
        for bad in ("", "X4", "C", "C#", "Cbbb4", "c4"):
            with pytest.raises(ValueError):
                parse_pitch_name(bad)


class TestTimeSignature:
    def test_capacity(self):
        assert TimeSignature(12, 4).quarter_beats == Fraction(12)
        assert TimeSignature(6, 8).quarter_beats == Fraction(3)

    def test_rejects(self):
        with pytest.raises(ValueError):
            TimeSignature(0, 4)
        with pytest.raises(ValueError):
            TimeSignature(4, 3)


class TestParseMusicXml:
    def test_single_note_minimal(self):
        doc = xml_doc(note_xml("D", 5, 12))
        score = parse_musicxml(doc)
        events = note_sequence(score)
        assert len(events) == 1
        ev = events[0]
        assert ev.onset_beats == 0
        assert ev.duration_beats == 12
        assert ev.pitch.midi == 74

    def test_divisions_scaling(self):
        doc = xml_doc(
            note_xml("C", 4, 2) + note_xml("D", 4, 4) + note_xml("E", 4, 6),
            divisions=2,
            beats=6,
        )
        events = note_sequence(parse_musicxml(doc))
        assert [e.duration_beats for e in events] == [Fraction(1), Fraction(2), Fraction(3)]

    def test_fixture_decode(self, sample_score, expected_fixture):
        assert sample_score.daemok_id == expected_fixture["daemok_id"]
        assert str(sample_score.time_signature) == expected_fixture["time_signature"]
        assert sample_score.divisions == expected_fixture["divisions"]
        unmerged = event_records(note_sequence(sample_score, merge_ties=False))
        merged = event_records(note_sequence(sample_score, merge_ties=True))
        assert unmerged == expected_fixture["unmerged"]
        assert merged == expected_fixture["merged"]

    def test_fixture_event_counts(self, sample_score):
        assert len(note_sequence(sample_score, merge_ties=False)) == 14
        assert len(note_sequence(sample_score, merge_ties=True)) == 13

    def test_malformed_xml_reports_line(self):
        with pytest.raises(MusicXmlParseError) as err:
            parse_musicxml(b"<score-partwise>\n<part\n</score-partwise>")
        assert err.value.line is not None

    def test_unknown_encoding_is_a_parse_error(self):
        with pytest.raises(MusicXmlParseError, match="unknown encoding: U3F-8"):
            parse_musicxml(b'<?xml version="1.0" encoding="U3F-8"?>\n<score-partwise/>')

    def test_note_without_pitch_or_rest(self):
        bare = "<note><duration>12</duration></note>"
        with pytest.raises(StructureError, match="without <pitch> or <rest>"):
            parse_musicxml(xml_doc(bare))

    def test_missing_divisions(self):
        doc = b"""<score-partwise><part-list/><part id="P1"><measure number="1">
            <attributes><time><beats>4</beats><beat-type>4</beat-type></time></attributes>
            <note><pitch><step>C</step><octave>4</octave></pitch><duration>4</duration></note>
        </measure></part></score-partwise>"""
        with pytest.raises(StructureError, match="divisions"):
            parse_musicxml(doc)

    def test_multiple_parts_rejected(self):
        doc = b"""<score-partwise><part-list/>
            <part id="P1"><measure number="1"><attributes><divisions>1</divisions>
            <time><beats>1</beats><beat-type>4</beat-type></time></attributes>
            <note><rest/><duration>1</duration></note></measure></part>
            <part id="P2"><measure number="1">
            <note><rest/><duration>1</duration></note></measure></part>
        </score-partwise>"""
        with pytest.raises(UnsupportedStructureError, match="part"):
            parse_musicxml(doc)

    def test_timewise_rejected(self):
        with pytest.raises(UnsupportedStructureError, match="score-timewise"):
            parse_musicxml(b"<score-timewise/>")

    def test_chord_rejected(self):
        chord = "<note><chord/><pitch><step>C</step><octave>4</octave></pitch><duration>12</duration></note>"
        with pytest.raises(UnsupportedStructureError, match="chord"):
            parse_musicxml(xml_doc(note_xml("C", 4, 12) + chord))

    def test_grace_note_skipped_with_warning(self):
        grace = "<note><grace/><pitch><step>C</step><octave>4</octave></pitch></note>"
        with pytest.warns(UserWarning, match="grace"):
            score = parse_musicxml(xml_doc(grace + note_xml("D", 4, 12)))
        assert len(note_sequence(score)) == 1

    @pytest.mark.parametrize(
        "doc, element",
        [
            (xml_doc(note_xml("C", 4, 12)).replace(b"<divisions>1<", b"<divisions>x<"), "divisions"),
            (xml_doc(note_xml("C", 4, "12.0")), "duration"),
            (xml_doc(note_xml("C", 4, 12, alter="1/2")), "alter"),
        ],
        ids=["divisions", "duration", "alter"],
    )
    def test_non_integer_value_names_measure(self, doc, element):
        with pytest.raises(StructureError, match=f"<{element}> .* not an integer in measure 0"):
            parse_musicxml(doc)

    def test_measure_capacity_mismatch(self):
        with pytest.raises(StructureError, match="measure 0"):
            parse_musicxml(xml_doc(note_xml("C", 4, 11)))

    def test_pickup_measure_allowed(self):
        doc = f"""<?xml version="1.0"?>
<score-partwise><part-list/><part id="P1">
  <measure number="0" implicit="yes">
    <attributes><divisions>1</divisions><time><beats>4</beats><beat-type>4</beat-type></time></attributes>
    {note_xml("G", 4, 1)}
  </measure>
  <measure number="1">{note_xml("C", 5, 4)}</measure>
</part></score-partwise>""".encode()
        score = parse_musicxml(doc)
        events = note_sequence(score)
        assert score.measures[0].is_pickup
        assert events[1].onset_beats == Fraction(1)

    def test_lyrics_and_directions_skipped(self, sample_score):
        # The fixture carries a <lyric>; parsing ignored it and kept the note.
        assert note_sequence(sample_score)[0].pitch.midi == 74


class TestNoteSequence:
    def test_tie_merge_two_plus_one(self):
        doc = xml_doc(
            note_xml("A", 4, 2, tie=("start",))
            + note_xml("A", 4, 1, tie=("stop",))
            + note_xml("C", 5, 9),
        )
        merged = note_sequence(parse_musicxml(doc), merge_ties=True)
        assert [e.duration_beats for e in merged] == [Fraction(3), Fraction(9)]

        unmerged = note_sequence(parse_musicxml(doc), merge_ties=False)
        assert len(unmerged) == 3
        assert unmerged[0].tied_to_next and not unmerged[0].tied_from_previous
        assert unmerged[1].tied_from_previous and not unmerged[1].tied_to_next

    def test_tie_chain_of_three(self):
        doc = xml_doc(
            note_xml("A", 4, 2, tie=("start",))
            + note_xml("A", 4, 4, tie=("stop", "start"))
            + note_xml("A", 4, 6, tie=("stop",)),
        )
        merged = note_sequence(parse_musicxml(doc), merge_ties=True)
        assert len(merged) == 1
        assert merged[0].duration_beats == Fraction(12)

    def test_dangling_tie_names_measure(self):
        doc = xml_doc(note_xml("A", 4, 3, tie=("start",)) + note_xml("B", 4, 9))
        with pytest.raises(DanglingTieError, match="measure 0"):
            note_sequence(parse_musicxml(doc), merge_ties=True)

    def test_onsets_sorted_and_non_overlapping(self, sample_score):
        for merge in (False, True):
            events = note_sequence(sample_score, merge_ties=merge)
            for a, b in zip(events, events[1:]):
                assert a.onset_beats < b.onset_beats
                assert a.onset_beats + a.duration_beats <= b.onset_beats


# -- generated-score properties ----------------------------------------------

_STEPS = ("C", "E", "G")


@st.composite
def measure_contents(draw):
    """Durations partitioning a 12-division measure, with pitches from a
    small alphabet so adjacent repeats (tie candidates) are common."""
    parts = []
    remaining = 12
    while remaining > 0:
        d = draw(st.integers(1, min(4, remaining)))
        parts.append(d)
        remaining -= d
    notes = []
    for d in parts:
        if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
            notes.append(("rest", None, d))
        else:
            notes.append(("note", draw(st.sampled_from(_STEPS)), d))
    return notes


@st.composite
def generated_score(draw):
    n_measures = draw(st.integers(1, 4))
    all_measures = [draw(measure_contents()) for _ in range(n_measures)]
    flat = [n for m in all_measures for n in m]
    # Tie adjacent same-pitch notes at random (never across a rest).
    ties = []
    for i in range(len(flat) - 1):
        same = flat[i][0] == "note" and flat[i + 1][0] == "note" and flat[i][1] == flat[i + 1][1]
        ties.append(same and draw(st.booleans()))
    xml_measures = []
    k = 0
    for m in all_measures:
        body = []
        for kind, step, dur in m:
            tie = []
            if k > 0 and ties[k - 1]:
                tie.append("stop")
            if k < len(ties) and ties[k]:
                tie.append("start")
            body.append(note_xml(step, 4, dur, tie=tie or None, rest=kind == "rest"))
            k += 1
        xml_measures.append("".join(body))
    doc = f"""<?xml version="1.0"?>
<score-partwise><part-list/><part id="P1">
  <measure number="1">
    <attributes><divisions>1</divisions><time><beats>12</beats><beat-type>4</beat-type></time></attributes>
    {xml_measures[0]}
  </measure>
  {"".join(f'<measure number="{i + 2}">{m}</measure>' for i, m in enumerate(xml_measures[1:]))}
</part></score-partwise>"""
    return doc.encode()


@given(generated_score())
@settings(max_examples=60)
def test_generated_measures_fill_their_capacity(doc):
    score = parse_musicxml(doc)
    capacity = score.time_signature.quarter_beats
    for measure in score.measures:
        assert measure.duration_beats == capacity


@given(generated_score())
@settings(max_examples=60)
def test_merging_preserves_sounding_duration_per_pitch(doc):
    score = parse_musicxml(doc)
    unmerged = note_sequence(score, merge_ties=False)
    merged = note_sequence(score, merge_ties=True)

    def per_pitch(events):
        totals = {}
        for e in events:
            if e.pitch is not None:
                totals[e.pitch.midi] = totals.get(e.pitch.midi, Fraction(0)) + e.duration_beats
        return totals

    assert per_pitch(unmerged) == per_pitch(merged)
    onsets = [e.onset_beats for e in merged]
    assert onsets == sorted(onsets)


def test_event_records_schema(sample_score, expected_fixture):
    records = event_records(note_sequence(sample_score, merge_ties=False))
    assert json.dumps(records)  # JSON-serializable
    rest = records[3]
    assert rest["pitch"] is None and rest["midi"] is None
