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


# -- integer-tick parser against the Fraction-sum parser ----------------------


def _parse_musicxml_oracle(document):
    """`parse_musicxml` as it summed onsets and measure content in `Fraction`s, one per note."""
    from sorimir.score import Measure, Score, _int_text, _parse_pitch_element, _parse_xml_root

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
    divisions = time_sig = voice_seen = None
    measures = []
    onset = Fraction(0)
    for m_index, m_el in enumerate(part.findall("measure")):
        is_pickup = m_el.get("implicit") == "yes"
        events = []
        for child in m_el:
            if child.tag == "attributes":
                div_text = child.findtext("divisions")
                if div_text is not None:
                    divisions = _int_text(div_text, "divisions", m_index)
                    if divisions < 1:
                        raise StructureError(f"<divisions> must be positive, got {divisions}")
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
                continue
            if child.find("grace") is not None:
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
            duration = Fraction(_int_text(dur_text, "duration", m_index), divisions)
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
            onset += duration
        if time_sig is None:
            raise StructureError(f"no <time> signature seen by the end of measure {m_index}")
        content = sum((e.duration_beats for e in events), Fraction(0))
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


_DIVISIONS = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 480])


@st.composite
def divisions_changing_score(draw):
    """A score whose <divisions> may change between measures and between notes, whose first
    measure may be a pickup, and whose measures mostly (not always) fill their capacity."""
    beats, beat_type = draw(st.integers(1, 12)), draw(st.sampled_from([2, 4, 8]))
    capacity = Fraction(4 * beats, beat_type)
    divisions = draw(_DIVISIONS)
    measures = []
    for m_index in range(draw(st.integers(1, 4))):
        pickup = m_index == 0 and draw(st.booleans())
        body = [f"<attributes><divisions>{divisions}</divisions>"
                f"<time><beats>{beats}</beats><beat-type>{beat_type}</beat-type></time></attributes>"
                if m_index == 0 else ""]
        remaining = capacity * draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1])) if pickup else capacity
        while remaining > 0:
            if draw(st.integers(0, 3)) == 0:
                divisions = draw(_DIVISIONS)
                body.append(f"<attributes><divisions>{divisions}</divisions></attributes>")
            room = remaining * divisions  # in ticks; not whole when the new divisions cannot fill it
            ticks = draw(st.integers(1, max(1, min(int(room), 8 * divisions))))
            if draw(st.integers(0, 15)) == 0:
                ticks += draw(st.integers(-ticks, 3))  # may overfill, underfill or give 0 ticks
            rest = draw(st.integers(0, 4)) == 0
            body.append(note_xml(draw(st.sampled_from(_STEPS)), 4, ticks, rest=rest))
            remaining -= max(Fraction(ticks, divisions), remaining if ticks == 0 else 0)
        implicit = ' implicit="yes"' if pickup else ""
        measures.append(f'<measure number="{m_index}"{implicit}>{"".join(body)}</measure>')
    return (f'<?xml version="1.0"?><score-partwise><part-list/><part id="P1">'
            f'{"".join(measures)}</part></score-partwise>').encode()


def _outcome(parse, doc):
    try:
        return parse(doc)
    except (StructureError, ValueError) as exc:
        return type(exc), str(exc)


@given(divisions_changing_score())
@settings(max_examples=300, deadline=None)
def test_tick_sums_give_the_score_of_fraction_sums(doc):
    expected = _outcome(_parse_musicxml_oracle, doc)
    assert _outcome(parse_musicxml, doc) == expected


def test_tick_sums_on_the_fixture(sample_score_bytes):
    assert parse_musicxml(sample_score_bytes) == _parse_musicxml_oracle(sample_score_bytes)
