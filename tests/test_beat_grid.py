import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.beat_grid import BeatGrid, first_frames, load_beats, slice_track
from sorimir.errors import BeatRangeError, BeatValidationError, FormatError, OrderingError
from sorimir.pitch_track import F0Track, track_cents


def beats_csv(n_beats, beats_per_measure=12, start=0.0, step=0.5):
    lines = ["measure,beat,time"]
    for g in range(n_beats):
        lines.append(f"{g // beats_per_measure},{g % beats_per_measure},{start + g * step:.3f}")
    return "\n".join(lines) + "\n"


def one_measure_csv(n_rows, start=0.0, step=0.5):
    """All rows annotate measure 0, beats 0..n_rows-1."""
    lines = ["measure,beat,time"]
    for b in range(n_rows):
        lines.append(f"0,{b},{start + b * step:.3f}")
    return "\n".join(lines) + "\n"


def tiny_grid(times, beats_per_measure=None):
    """Grid with one measure whose beat count equals len(times)."""
    return BeatGrid(times, beats_per_measure or len(times))


class TestValidation:
    def test_twelve_beats_valid(self):
        grid = load_beats(beats_csv(12))
        assert grid.n_beats == 12
        assert grid.n_measures == 1

    def test_thirteen_beats_rejected(self):
        with pytest.raises(BeatValidationError, match="measure 0 has 13 beats, expected 12"):
            load_beats(one_measure_csv(13))

    def test_eleven_beats_rejected(self):
        with pytest.raises(BeatValidationError, match="measure 0 has 11 beats"):
            load_beats(one_measure_csv(11))

    @pytest.mark.parametrize("n,ok", [(11, False), (12, True), (13, False)])
    def test_exhaustive_small_cases(self, n, ok):
        if ok:
            load_beats(one_measure_csv(n))
        else:
            with pytest.raises(BeatValidationError):
                load_beats(one_measure_csv(n))

    def test_error_lists_all_bad_measures(self):
        lines = ["measure,beat,time"]
        t = 0.0
        for m in range(2):
            for b in range(12 if m == 0 else 11):
                lines.append(f"{m},{b},{t:.3f}")
                t += 0.5
        with pytest.raises(BeatValidationError) as err:
            load_beats("\n".join(lines) + "\n")
        assert err.value.measures == (1,)

    def test_missing_measure_rejected(self):
        lines = ["measure,beat,time"]
        t = 0.0
        for m in (0, 2):
            for b in range(12):
                lines.append(f"{m},{b},{t:.3f}")
                t += 0.5
        with pytest.raises(BeatValidationError, match="missing measures"):
            load_beats("\n".join(lines) + "\n")

    def test_reused_time_is_ordering_error(self):
        text = beats_csv(24).replace("11.500", "11.000")  # beat 23 reuses beat 22's time
        with pytest.raises(OrderingError) as err:
            load_beats(text)
        assert err.value.row == 24

    def test_duplicate_annotation(self):
        text = beats_csv(12) + "0,5,99.0\n"
        with pytest.raises(FormatError, match="duplicate"):
            load_beats(text)

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            load_beats("m,b,t\n0,0,0.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected_with_row(self, value):
        lines = beats_csv(12).splitlines()
        lines[6] = f"0,5,{value}"
        with pytest.raises(FormatError, match="non-finite") as err:
            load_beats("\n".join(lines) + "\n")
        assert err.value.row == 6

    def test_non_numeric_row(self):
        with pytest.raises(FormatError) as err:
            load_beats("measure,beat,time\n0,0,abc\n")
        assert err.value.row == 1

    @pytest.mark.parametrize("text", ["measure,beat,time\n", "measure,beat,time", "measure,beat,time\n\n  \n"])
    def test_header_only_is_rejected(self, text):
        with pytest.raises(BeatValidationError, match="^no beat annotations$") as err:
            load_beats(text)
        assert err.value.measures == ()


    def test_missing_measures_are_capped_at_ten(self):
        with pytest.raises(BeatValidationError) as err:
            load_beats("measure,beat,time\n1000000,0,0.0\n", 1)
        assert err.value.measures == tuple(range(10))
        assert str(err.value) == f"missing measures {list(range(10))} (first 10 of 1000000)"

    @pytest.mark.parametrize("last, tail", [(12, ""), (13, " (first 10 of 11)")])
    def test_ten_missing_measures_are_all_listed(self, last, tail):
        with pytest.raises(BeatValidationError) as err:
            load_beats(f"measure,beat,time\n0,0,0.0\n5,0,1.0\n{last},0,2.0\n", 1)
        assert err.value.measures == (1, 2, 3, 4, 6, 7, 8, 9, 10, 11)
        assert str(err.value) == f"missing measures {list(err.value.measures)}{tail}"


class TestDirectConstruction:
    def test_times_are_a_read_only_float64_copy(self):
        source = np.array([0.0, 0.5, 1.0, 1.5])
        grid = BeatGrid(source, 2)
        source[0] = 9.0
        assert grid.times.dtype == np.float64 and grid.times.tolist() == [0.0, 0.5, 1.0, 1.5]
        assert (grid.n_beats, grid.n_measures, grid.last_beat) == (4, 2, 3)
        with pytest.raises(ValueError):
            grid.times[0] = 1.0

    def test_list_of_ints_is_accepted(self):
        assert BeatGrid([0, 1, 2], 3).times.tobytes() == np.arange(3.0).tobytes()

    def test_empty_grid(self):
        grid = BeatGrid([], 4)
        assert (grid.n_beats, grid.n_measures) == (0, 0)

    @pytest.mark.parametrize("times", [[[0.0, 1.0]], [0.0, float("nan")], [0.0, float("inf")], 0.5])
    def test_not_1d_finite_is_value_error(self, times):
        with pytest.raises(ValueError, match="1-d array of finite seconds"):
            BeatGrid(times, 1)

    def test_partial_last_measure(self):
        with pytest.raises(BeatValidationError, match=r"^measure 1 has 2 beats, expected 3$") as err:
            BeatGrid([0.0, 0.5, 1.0, 1.5, 2.0], 3)
        assert err.value.measures == (1,)

    @pytest.mark.parametrize("times", [[0.0, 0.5, 0.5], [0.0, 0.5, 0.25]])
    def test_times_must_increase(self, times):
        with pytest.raises(OrderingError) as err:
            BeatGrid(times, 3)
        assert str(err.value) == f"time {times[2]:.6f} at global beat 2 does not increase past 0.500000"
        assert err.value.row is None

    @pytest.mark.parametrize("bpm", [0, -1])
    def test_beats_per_measure_below_one_is_value_error(self, bpm):
        with pytest.raises(ValueError, match="^beats_per_measure must be >= 1$"):
            BeatGrid([], bpm)
        with pytest.raises(ValueError, match="^beats_per_measure must be >= 1$"):
            load_beats("not a beats CSV", bpm)  # checked before any row is read

    def test_ordering_error_is_a_format_error(self):
        assert issubclass(OrderingError, FormatError)


# -- the previous loader, kept as an oracle -------------------------------------


@dataclass(frozen=True)
class OracleAnnotation:
    measure_index: int
    beat_in_measure: int
    time_s: float


@dataclass(frozen=True)
class OracleGrid:
    beats_per_measure: int
    annotations: tuple

    def __post_init__(self):
        bpm = self.beats_per_measure
        per_measure = {}
        for a in self.annotations:
            per_measure.setdefault(a.measure_index, []).append(a)

        bad = []
        for m in sorted(per_measure):
            beats = sorted(a.beat_in_measure for a in per_measure[m])
            if len(beats) != bpm:
                bad.append((m, f"measure {m} has {len(beats)} beats, expected {bpm}"))
            elif beats != list(range(bpm)):
                bad.append((m, f"measure {m} beat indices do not form 0..{bpm - 1}"))
        if per_measure and sorted(per_measure) != list(range(max(per_measure) + 1)):
            missing = sorted(set(range(max(per_measure) + 1)) - set(per_measure))
            raise BeatValidationError(f"missing measures {missing}", measures=missing)
        if bad:
            raise BeatValidationError("; ".join(d for _, d in bad), measures=[m for m, _ in bad])

        ordered = sorted(self.annotations, key=lambda a: (a.measure_index, a.beat_in_measure))
        times = np.array([a.time_s for a in ordered], dtype=np.float64)
        if np.any(np.diff(times) <= 0):
            i = int(np.nonzero(np.diff(times) <= 0)[0][0]) + 1
            raise OrderingError(
                f"time {times[i]:.6f} at global beat {i} does not increase past {times[i - 1]:.6f}"
            )
        object.__setattr__(self, "times", times)


def oracle_load_beats(text, beats_per_measure):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["measure", "beat", "time"]:
        raise FormatError("expected CSV header 'measure,beat,time'")

    rows = []
    for row_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 columns, got {len(row)}", row=row_no)
        try:
            m, b, t = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise FormatError(f"non-numeric value in {row!r}", row=row_no) from None
        if m < 0 or b < 0:
            raise FormatError(f"negative measure/beat index in {row!r}", row=row_no)
        if not math.isfinite(t):
            raise FormatError(f"non-finite time {t}", row=row_no)
        if t < 0:
            raise FormatError(f"negative time {t}", row=row_no)
        rows.append((m, b, t, row_no))

    seen = {}
    for m, b, _, row_no in rows:
        if (m, b) in seen:
            raise FormatError(f"duplicate annotation for measure {m} beat {b}", row=row_no)
        seen[(m, b)] = row_no

    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur[2] <= prev[2]:
            raise OrderingError(
                f"time {cur[2]} at measure {cur[0]} beat {cur[1]} does not increase",
                row=cur[3],
            )
    return OracleGrid(beats_per_measure, tuple(OracleAnnotation(m, b, t) for m, b, t, _ in ordered))


def _outcome(load, text, beats_per_measure):
    try:
        grid = load(text, beats_per_measure)
    except (FormatError, BeatValidationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "measures", None)
    return "ok", grid.times.tobytes()


_BAD_CELLS = ("x", "", "-1", "1.5", "nan", "inf", "-0.5", "1e400", " 2 ", "0,0")


@st.composite
def mutated_beats_csv(draw):
    """A beats CSV of whole measures with gaps, then dropped, repeated or swapped rows, bad cells
    and blank lines."""
    bpm = draw(st.integers(1, 12))
    n_measures = draw(st.integers(0, 4))
    measure_of = list(range(n_measures))
    for _ in range(draw(st.integers(0, 2))):  # gaps: at most 2 x 3 missing measures
        if n_measures:
            at, width = draw(st.integers(0, n_measures - 1)), draw(st.integers(1, 3))
            measure_of = [m + width if i >= at else m for i, m in enumerate(measure_of)]
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 0.125]), min_size=n_measures * bpm,
                          max_size=n_measures * bpm))
    times = np.cumsum([0.0] + steps)[:-1] if steps else []
    rows = [[str(measure_of[g // bpm]), str(g % bpm), f"{t:.3f}"] for g, t in enumerate(times)]
    ops = st.sampled_from(("drop", "repeat", "swap", "swap_times", "bad_cell", "extra_beat"))
    for op in draw(st.lists(ops, max_size=4)):
        if not rows:
            break
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if op == "drop":
            del rows[i]
        elif op == "repeat":
            rows.insert(j, list(rows[i][:2]) + [draw(st.sampled_from([rows[i][2], "99.000"]))])
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "swap_times":
            rows[i][2], rows[j][2] = rows[j][2], rows[i][2]
        elif op == "bad_cell":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(_BAD_CELLS))
        else:
            rows.append([rows[i][0], str(draw(st.integers(bpm, bpm + 2))), "999.000"])
    lines = [",".join(r) for r in rows]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, draw(st.sampled_from(["", "  "])))
    text = "\n".join(["measure,beat,time"] + lines) + "\n"
    return text, draw(st.sampled_from([bpm, bpm, bpm, draw(st.integers(1, 12))]))


class TestLoadBeatsMatchesOracle:
    @given(mutated_beats_csv())
    @settings(max_examples=300, deadline=None)
    def test_same_times_or_same_error(self, case):
        text, bpm = case
        expected = _outcome(oracle_load_beats, text, bpm)
        if expected == ("ok", b""):  # the oracle accepted a CSV without rows as an empty grid
            expected = ("BeatValidationError", "no beat annotations", None, ())
        assert _outcome(load_beats, text, bpm) == expected

    def test_fixture(self, fixtures_dir):
        text = (fixtures_dir / "sample.beats.csv").read_text()
        assert _outcome(load_beats, text, 12) == _outcome(oracle_load_beats, text, 12)


class TestInterpolation:
    def test_linear_midpoint(self):
        grid = tiny_grid([0.0, 0.5])
        assert grid.time_at_beat(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_exact_at_annotation(self):
        grid = tiny_grid([0.0, 0.5])
        assert grid.time_at_beat(1.0) == 0.5

    def test_uneven_spacing(self):
        grid = tiny_grid([0.0, 0.4, 1.0])
        assert grid.time_at_beat(1.5) == pytest.approx(0.7, abs=1e-12)

    def test_inverse_examples(self):
        grid = tiny_grid([0.0, 0.4, 1.0])
        assert grid.beat_at_time(0.7) == pytest.approx(1.5, abs=1e-12)
        assert grid.beat_at_time(0.2) == pytest.approx(0.5, abs=1e-12)
        assert grid.beat_at_time(0.4) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_1000_random(self, sample_grid):
        rng = np.random.default_rng(42)
        beats = rng.uniform(0, sample_grid.last_beat, 1000)
        back = sample_grid.beat_at_time(sample_grid.time_at_beat(beats))
        assert np.abs(back - beats).max() < 1e-9

    def test_no_extrapolation(self):
        grid = tiny_grid([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(BeatRangeError):
            grid.time_at_beat(3.5)
        with pytest.raises(BeatRangeError):
            grid.time_at_beat(-0.1)
        with pytest.raises(BeatRangeError):
            grid.beat_at_time(1.6)
        with pytest.raises(BeatRangeError):
            grid.beat_at_time(-0.1)

    def test_strictly_increasing(self, sample_grid):
        beats = np.linspace(0, sample_grid.last_beat, 500)
        times = sample_grid.time_at_beat(beats)
        assert np.all(np.diff(times) > 0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_round_trip_property(self, frac):
        grid = tiny_grid([0.25, 0.71, 1.23, 1.73])
        beat = frac * grid.last_beat
        assert abs(grid.beat_at_time(grid.time_at_beat(beat)) - beat) < 1e-9


def constant_track(n, hop=0.01, f0=440.0):
    return F0Track(np.full(n, f0), np.full(n, 0.9), hop)


def frame_range(seg, track):
    """The frames `lo, hi` of `track` that `seg` holds: its `f0_hz` is a view of the track's."""
    assert seg.f0_hz.base is not None and seg.f0_hz.strides == track.f0_hz.strides
    lo = (seg.f0_hz.ctypes.data - track.f0_hz.ctypes.data) // track.f0_hz.itemsize
    assert 0 <= lo <= lo + len(seg) <= len(track)
    return lo, lo + len(seg)


class TestSliceTrack:
    def test_fifty_frames_per_half_second_beat(self):
        grid = tiny_grid([0.0, 0.5])
        track = constant_track(100)
        seg = slice_track(track, grid, 0.0, 1.0)
        assert len(seg) == 50
        assert frame_range(seg, track) == (0, 50)
        assert seg.beats[0] == 0.0

    def test_empty_intersection(self):
        grid = tiny_grid([0.5, 1.0])
        track = constant_track(10)  # ends at 0.09 s, before the grid
        seg = slice_track(track, grid, 0.0, 1.0)
        assert len(seg) == 0

    def test_inverted_interval(self):
        grid = tiny_grid([0.0, 0.5])
        with pytest.raises(BeatRangeError):
            slice_track(constant_track(100), grid, 1.0, 0.0)

    def test_fixture_slice_against_brute_force(self, sample_grid, sample_track):
        start, end = 12.0, 20.0
        seg = slice_track(sample_track, sample_grid, start, end)
        t_start = sample_grid.time_at_beat(start)
        t_end = sample_grid.time_at_beat(end)
        times = sample_track.times()
        expected_idx = [i for i in range(len(sample_track)) if t_start <= times[i] < t_end]
        assert len(seg) == len(expected_idx)
        assert frame_range(seg, sample_track) == (expected_idx[0], expected_idx[-1] + 1)
        assert seg.f0_hz.tobytes() == sample_track.f0_hz[expected_idx].tobytes()
        assert seg.beats[0] == pytest.approx(sample_grid.beat_at_time(times[expected_idx[0]]), abs=1e-12)
        assert seg.beats[-1] == pytest.approx(sample_grid.beat_at_time(times[expected_idx[-1]]), abs=1e-12)
        assert start <= seg.beats[0] and seg.beats[-1] < end

    def test_concatenation_is_frame_exact(self, sample_grid, sample_track):
        a, b, c = 3.0, 17.5, 30.0
        left = slice_track(sample_track, sample_grid, a, b)
        right = slice_track(sample_track, sample_grid, b, c)
        whole = slice_track(sample_track, sample_grid, a, c)
        (lo, mid), (mid_r, hi) = frame_range(left, sample_track), frame_range(right, sample_track)
        assert mid == mid_r and frame_range(whole, sample_track) == (lo, hi)
        assert np.array_equal(np.concatenate([left.beats, right.beats]), whole.beats)
        assert np.array_equal(np.concatenate([left.f0_hz, right.f0_hz]), whole.f0_hz)

    def test_segment_cents(self):
        grid = tiny_grid([0.0, 0.5])
        track = F0Track(np.array([440.0, 0.0] * 25), np.array([0.9, 0.0] * 25), 0.01)
        seg = slice_track(track, grid, 0.0, 1.0)
        cents = track_cents(seg, 440.0)
        assert cents[0] == 0.0
        assert np.isnan(cents[1])


def _slice_by_mask(track, grid, start_beat, end_beat):
    """The whole-track mask `slice_track` is defined by: its frame indices and their times."""
    times = track.times()
    idx = np.nonzero((times >= grid.time_at_beat(start_beat)) & (times < grid.time_at_beat(end_beat)))[0]
    return idx, times[idx]


@st.composite
def track_grid_interval(draw):
    """A track, a grid whose beats may sit exactly on frame times, and a beat interval."""
    hop = draw(st.sampled_from([0.01, 0.005, 1 / 3, 0.0116, 256 / 22050, 0.1]))
    n = draw(st.integers(0, 400))
    n_beats = draw(st.integers(2, 8))
    if draw(st.booleans()):  # beats on frame times k * hop, as track.times() computes them
        frames = draw(st.lists(st.integers(0, n + 20), min_size=n_beats, max_size=n_beats, unique=True))
        times = [k * hop for k in sorted(frames)]
    else:
        steps = draw(st.lists(st.floats(0.01, 2.0), min_size=n_beats, max_size=n_beats))
        times = list(draw(st.floats(-0.5, 2.0)) + np.cumsum(steps))
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n_beats - 1)), draw(st.integers(0, n_beats - 1))
    else:
        a, b = draw(st.floats(0.0, n_beats - 1)), draw(st.floats(0.0, n_beats - 1))
    track = F0Track(np.arange(n) + 100.0, np.linspace(0, 1, n), hop)
    return track, tiny_grid(times), float(min(a, b)), float(max(a, b))


@pytest.mark.parametrize("hop", [0.1, 0.0116, 0.01, 256 / 22050, 1 / 3, 0.009315119473282858])
def test_first_frames_is_the_first_frame_at_or_after_each_time(hop):
    """Times on and a few ulps around frame times, where t / hop rounds onto an integer below
    the frame that follows t (0.1 * 2429 < 242.90000000000003, whose t / hop is 2429.0)."""
    n = 5000
    frame_times = np.arange(n) * hop
    times = frame_times[:, None].repeat(7, axis=1)
    for j, ulps in enumerate(range(-3, 4)):
        for _ in range(abs(ulps)):
            times[:, j] = np.nextafter(times[:, j], np.sign(ulps) * np.inf)
    times = np.concatenate([times.ravel(), [-1.0, 0.0, n * hop, n * hop + 1.0]])
    assert np.array_equal(first_frames(times, hop, n), np.searchsorted(frame_times, times, "left"))


class TestSliceTrackMatchesMask:
    @given(track_grid_interval())
    @settings(max_examples=100, deadline=None)
    def test_same_frames_and_times_as_the_mask(self, case):
        track, grid, start, end = case
        if not start < end:
            return
        seg = slice_track(track, grid, start, end)
        idx, times = _slice_by_mask(track, grid, start, end)
        lo, hi = frame_range(seg, track)
        assert np.array_equal(np.arange(lo, hi), idx)
        assert seg.f0_hz.tobytes() == track.f0_hz[idx].tobytes()
        assert seg.beats.tobytes() == (grid.beat_at_time(times) if times.size else np.zeros(0)).tobytes()

    def test_boundaries_on_frame_times(self):
        hop = 0.01
        grid = tiny_grid([7 * hop, 19 * hop, 23 * hop])
        track = constant_track(40, hop)
        for start, end in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (0.5, 1.5)):
            lo, hi = frame_range(slice_track(track, grid, start, end), track)
            assert np.array_equal(np.arange(lo, hi), _slice_by_mask(track, grid, start, end)[0])
