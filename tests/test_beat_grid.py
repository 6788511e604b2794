import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorimir.beat_grid import BeatAnnotation, BeatGrid, JangdanSpec, load_beats, slice_track
from sorimir.errors import BeatRangeError, BeatValidationError, FormatError, OrderingError
from sorimir.pitch_track import F0Track


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
    bpm = beats_per_measure or len(times)
    return BeatGrid(
        spec=JangdanSpec("test", bpm),
        annotations=tuple(BeatAnnotation(0, i, t) for i, t in enumerate(times)),
    )


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


class TestSliceTrack:
    def test_fifty_frames_per_half_second_beat(self):
        grid = tiny_grid([0.0, 0.5])
        track = constant_track(100)
        seg = slice_track(track, grid, 0.0, 1.0)
        assert len(seg) == 50
        assert seg.times[0] == 0.0
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
        assert seg.times[0] == times[expected_idx[0]]
        assert seg.times[-1] == times[expected_idx[-1]]
        assert seg.beats[0] == pytest.approx(sample_grid.beat_at_time(times[expected_idx[0]]), abs=1e-12)
        assert seg.beats[-1] == pytest.approx(sample_grid.beat_at_time(times[expected_idx[-1]]), abs=1e-12)
        assert start <= seg.beats[0] and seg.beats[-1] < end

    def test_concatenation_is_frame_exact(self, sample_grid, sample_track):
        a, b, c = 3.0, 17.5, 30.0
        left = slice_track(sample_track, sample_grid, a, b)
        right = slice_track(sample_track, sample_grid, b, c)
        whole = slice_track(sample_track, sample_grid, a, c)
        assert np.array_equal(np.concatenate([left.times, right.times]), whole.times)
        assert np.array_equal(np.concatenate([left.f0_hz, right.f0_hz]), whole.f0_hz)

    def test_segment_cents(self):
        grid = tiny_grid([0.0, 0.5])
        track = F0Track(np.array([440.0, 0.0] * 25), np.array([0.9, 0.0] * 25), 0.01)
        seg = slice_track(track, grid, 0.0, 1.0)
        cents = seg.cents(440.0)
        assert cents[0] == 0.0
        assert np.isnan(cents[1])


def _slice_by_mask(track, grid, start_beat, end_beat):
    """The whole-track mask `slice_track` is defined by."""
    times = track.times()
    idx = np.nonzero((times >= grid.time_at_beat(start_beat)) & (times < grid.time_at_beat(end_beat)))[0]
    return times[idx], track.f0_hz[idx], track.confidence[idx]


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


class TestSliceTrackMatchesMask:
    @given(track_grid_interval())
    @settings(max_examples=100, deadline=None)
    def test_same_frames_and_times_as_the_mask(self, case):
        track, grid, start, end = case
        if not start < end:
            return
        seg = slice_track(track, grid, start, end)
        times, f0, conf = _slice_by_mask(track, grid, start, end)
        assert seg.times.tobytes() == times.tobytes()
        assert seg.f0_hz.tobytes() == f0.tobytes() and seg.confidence.tobytes() == conf.tobytes()
        assert seg.beats.tobytes() == (grid.beat_at_time(times) if times.size else np.zeros(0)).tobytes()

    def test_boundaries_on_frame_times(self):
        hop = 0.01
        grid = tiny_grid([7 * hop, 19 * hop, 23 * hop])
        track = constant_track(40, hop)
        for start, end in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (0.5, 1.5)):
            assert slice_track(track, grid, start, end).times.tobytes() == (
                _slice_by_mask(track, grid, start, end)[0].tobytes()
            )
