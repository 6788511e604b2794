import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sorimir import _kernels

SR = 44100

# Largest |difference| allowed between the FFT kernel and the direct-sum
# oracle, on lags (samples) and on CMNDF minima, for frames both call voiced.
ORACLE_TOL = 1e-9


def _yin_lag_search_oracle(x, window, hop, tau_min, tau_max, threshold):
    """Reference YIN lag search: one frame and one lag at a time, direct sums.

    Same contract as `_kernels.yin_lag_search`. d(τ) is the literal sum of
    squared differences over the window, with no FFT and no energy terms.
    """
    n = x.shape[0]
    span = window + tau_max
    n_frames = (n - span) // hop + 1
    lags = np.full(n_frames, np.nan)
    minima = np.ones(n_frames)
    d = np.empty(tau_max + 1)
    dprime = np.empty(tau_max + 1)

    for i in range(n_frames):
        s = i * hop
        d[0] = 0.0
        dprime[0] = 1.0
        running = 0.0
        for tau in range(1, tau_max + 1):
            diff = x[s : s + window] - x[s + tau : s + tau + window]
            acc = float(diff @ diff)
            d[tau] = acc
            running += acc
            dprime[tau] = d[tau] * tau / running if running > 0.0 else 1.0

        tau_d = -1
        for tau in range(tau_min, tau_max + 1):
            if dprime[tau] < threshold:
                tau_d = tau
                break
        if tau_d < 0:
            continue
        while tau_d + 1 <= tau_max and dprime[tau_d + 1] < dprime[tau_d]:
            tau_d += 1

        lag = float(tau_d)
        val = dprime[tau_d]
        if tau_d - 1 >= 1 and tau_d + 1 <= tau_max:
            y0 = dprime[tau_d - 1]
            y1 = dprime[tau_d]
            y2 = dprime[tau_d + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom > 0.0:
                delta = 0.5 * (y0 - y2) / denom
                if -1.0 < delta < 1.0:
                    lag = tau_d + delta
                    val = y1 - 0.25 * (y0 - y2) * delta
        lags[i] = lag
        minima[i] = val

    return lags, minima


def _mixed_signal():
    rng = np.random.default_rng(7)
    t = np.arange(int(0.8 * SR)) / SR
    x = 0.7 * np.sin(2 * np.pi * 440.0 * t)
    x += 0.2 * np.sin(2 * np.pi * 880.0 * t + 0.3)
    x += 0.02 * rng.standard_normal(t.shape)
    x[: SR // 10] = 0.0  # leading silence: some unvoiced frames
    return x


def _vibrato_voice(n, sr, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sr
    f0 = 520.0 * 2.0 ** ((40.0 / 1200.0) * np.sin(2 * np.pi * 5.5 * t))
    phase = 2 * np.pi * np.cumsum(f0) / sr
    return 0.6 * np.sin(phase) + 0.15 * np.sin(2 * phase) + 0.01 * rng.standard_normal(n)


def _zero_gap():
    x = _vibrato_voice(int(0.6 * SR), SR, seed=1)
    x[int(0.25 * SR) : int(0.45 * SR)] = 0.0
    return x


def _near_silent():
    x = _vibrato_voice(int(0.6 * SR), SR, seed=2)
    x[int(0.25 * SR) :] *= 1e-5
    return x


def _block_plus_one():
    # span 400 + 100 samples, hop 50: exactly BLOCK_FRAMES + 1 frames
    return _vibrato_voice(500 + _kernels.BLOCK_FRAMES * 50, 22050, seed=3)


# (signal, window, hop, tau_min, tau_max); threshold is 0.15 throughout. The last three are
# hop-block partitions of the window: q = window // hop whole blocks plus rem = window % hop.
_CASES = {
    "mixed_leading_silence": (_mixed_signal, 2029, 441, 41, 147),
    "vibrato_voice": (lambda: _vibrato_voice(SR, SR), 2029, 441, 41, 147),
    "zero_gap_after_loud": (_zero_gap, 2029, 441, 41, 147),
    "near_silent_after_loud": (_near_silent, 2029, 441, 41, 147),
    "block_plus_one_frames": (_block_plus_one, 400, 50, 20, 100),
    # the pipeline's defaults at 22.05 kHz: q = 4, rem = 134; 95 frames, two blocks
    "default_settings_22k": (lambda: _vibrato_voice(22050, 22050, seed=4), 1014, 220, 14, 367),
    # q = 0: the window is the head of one hop-block
    "hop_longer_than_window": (lambda: _vibrato_voice(80 * 450, 22050, seed=5), 400, 450, 20, 100),
    # q = 1, rem = 1
    "hop_one_short_of_window": (lambda: _vibrato_voice(80 * 399, 22050, seed=6), 400, 399, 20, 100),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_kernel_matches_direct_sum_oracle(case):
    make, window, hop, tau_min, tau_max = _CASES[case]
    x = make()
    got_lags, got_min = _kernels.yin_lag_search(x, window, hop, tau_min, tau_max, 0.15)
    ref_lags, ref_min = _yin_lag_search_oracle(x, window, hop, tau_min, tau_max, 0.15)

    assert got_lags.shape == ref_lags.shape
    if case == "block_plus_one_frames":
        assert got_lags.shape[0] == _kernels.BLOCK_FRAMES + 1
    voiced = ~np.isnan(ref_lags)
    assert np.array_equal(~np.isnan(got_lags), voiced)
    assert voiced.any()
    if case in ("mixed_leading_silence", "zero_gap_after_loud"):
        assert not voiced.all()
    assert np.abs(got_lags[voiced] - ref_lags[voiced]).max() <= ORACLE_TOL
    assert np.abs(got_min[voiced] - ref_min[voiced]).max() <= ORACLE_TOL
    assert np.all(got_min[~voiced] == 1.0)


def _search_oracle(d, tau_min, tau_max, threshold):
    """`_kernels._search` before its one masked pass: inner dips gathered, refined and scattered
    back. Every refined row goes through the same operations, so results are bitwise equal."""
    n_frames = d.shape[0]
    running = np.cumsum(d[:, 1:], axis=1)
    dprime = np.ones_like(d)
    np.divide(
        d[:, 1:] * np.arange(1, tau_max + 1, dtype=float),
        running,
        out=dprime[:, 1:],
        where=running > 0.0,
    )

    below = dprime < threshold
    below[:, :tau_min] = False
    has_dip = below.any(axis=1)
    tau_first = np.argmax(below, axis=1)

    non_decreasing = dprime[:, 1:] >= dprime[:, :-1]
    eligible = non_decreasing & (np.arange(tau_max)[None, :] >= tau_first[:, None])
    stop_found = eligible.any(axis=1)
    tau_star = np.where(stop_found, np.argmax(eligible, axis=1), tau_max)

    lags = np.full(n_frames, np.nan)
    minima = np.ones(n_frames)
    rows = np.nonzero(has_dip)[0]
    ts = tau_star[rows]
    lag = ts.astype(float)
    val = dprime[rows, ts]

    inner = (ts >= 2) & (ts + 1 <= tau_max)
    r_in, t_in = rows[inner], ts[inner]
    y0 = dprime[r_in, t_in - 1]
    y1 = dprime[r_in, t_in]
    y2 = dprime[r_in, t_in + 1]
    denom = y0 - 2.0 * y1 + y2
    delta = np.where(denom > 0.0, 0.5 * (y0 - y2) / np.where(denom > 0.0, denom, 1.0), 0.0)
    delta[np.abs(delta) >= 1.0] = 0.0
    refined = delta != 0.0
    lag_in = lag[inner]
    val_in = val[inner]
    lag_in[refined] = t_in[refined] + delta[refined]
    val_in[refined] = y1[refined] - 0.25 * (y0[refined] - y2[refined]) * delta[refined]
    lag[inner] = lag_in
    val[inner] = val_in

    lags[rows] = lag
    minima[rows] = val
    return lags, minima


def _assert_search_matches_oracle(x, window, hop, tau_min, tau_max, threshold):
    n_frames = (x.shape[0] - window - tau_max) // hop + 1
    d = _kernels._difference(x, 0, n_frames, window, hop, tau_max)
    got = _kernels._search(d, tau_min, tau_max, threshold)
    want = _search_oracle(d, tau_min, tau_max, threshold)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_search_is_bitwise_equal_to_the_gather_and_scatter_oracle(case):
    make, window, hop, tau_min, tau_max = _CASES[case]
    x = make()
    for threshold in (0.1, 0.15, 0.3, 0.6):
        _assert_search_matches_oracle(x, window, hop, tau_min, tau_max, threshold)


@st.composite
def _short_signals(draw):
    """A periodic tone plus noise, or raw samples; periods up to tau_max + 8 put dips at both
    ends of the lag range, where a dip has no neighbour on one side."""
    window, tau_max = 24, 40
    n = window + tau_max + draw(st.integers(0, 120))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        period = draw(st.floats(1.5, tau_max + 8.0))
        x = np.sin(2 * np.pi * np.arange(n) / period + draw(st.floats(0.0, 6.3)))
        x += draw(st.sampled_from([0.0, 0.01, 0.3])) * rng.standard_normal(n)
    else:
        x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return x, window, draw(st.integers(1, 9)), draw(st.integers(1, 20)), tau_max


# A tone of period 10 searched from lag 11: the first dip sits on a rising slope, where the
# parabola's |delta| >= 1, so the dip keeps its integer lag.
_RISING_DIP = (np.sin(2 * np.pi * np.arange(150) / 10.0), 24, 7, 11, 40)


@given(_short_signals(), st.floats(0.1, 0.6))
@example(_RISING_DIP, 0.5)
@settings(max_examples=300, deadline=None)
def test_search_matches_the_oracle_on_short_signals(signal, threshold):
    x, window, hop, tau_min, tau_max = signal
    _assert_search_matches_oracle(x, window, hop, tau_min, tau_max, threshold)


def _literal_difference(x, frame, window, hop, tau_max):
    """d(τ) of one frame as a literal sum of squared differences."""
    s = frame * hop
    return [float(np.sum((x[s : s + window] - x[s + tau : s + tau + window]) ** 2))
            for tau in range(tau_max + 1)]


@st.composite
def _partitions(draw):
    """Integer samples (so the literal sums are exact), a window split into any number of
    hop-blocks with any remainder, and a chunk of frames starting anywhere."""
    window = draw(st.integers(2, 40))
    divisors = [h for h in range(1, window + 1) if window % h == 0]
    hop = draw(st.one_of(st.integers(1, window + 8), st.sampled_from(divisors)))
    tau_max = draw(st.integers(1, 30))
    n_frames = draw(st.integers(1, 10))
    n = window + tau_max + (n_frames - 1) * hop + draw(st.integers(0, hop - 1))
    x = np.array(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)), dtype=float)
    first = draw(st.integers(0, n_frames - 1))
    return x, first, draw(st.integers(1, n_frames - first)), window, hop, tau_max


def _ramp(window, hop, tau_max, n_frames):
    n = window + tau_max + (n_frames - 1) * hop
    return np.arange(n, dtype=float) % 7 - 3.0, 0, n_frames, window, hop, tau_max


@given(_partitions())
@example(_ramp(10, 13, 6, 4))  # hop > window: q = 0
@example(_ramp(12, 12, 5, 4))  # hop = window: q = 1, rem = 0
@example(_ramp(12, 4, 9, 5))  # rem = 0
@example(_ramp(13, 4, 9, 5))  # rem = 1
@example(_ramp(12, 5, 9, 5))  # rem = hop - 1
@settings(max_examples=300, deadline=None)
def test_each_row_of_the_difference_is_the_literal_sum(partition):
    x, first, count, window, hop, tau_max = partition
    d = _kernels._difference(x, first, count, window, hop, tau_max)
    assert d.shape == (count, tau_max + 1)
    for r in range(count):
        want = _literal_difference(x, first + r, window, hop, tau_max)
        assert np.abs(d[r] - want).max() <= ORACLE_TOL, f"frame {first + r}"


def test_numpy_path_basic_shape():
    lags, minima = _kernels.yin_lag_search(_mixed_signal(), 2029, 441, 41, 147, 0.15)
    assert lags.shape == minima.shape
    voiced = ~np.isnan(lags)
    # 440 Hz at 44.1 kHz -> lag just above 100 samples
    assert np.all(np.abs(lags[voiced] - SR / 440.0) < 1.0)
    assert np.all(minima[~voiced] == 1.0)


def _peak_bytes(seconds, sr=22050):
    # Default YIN settings at 22.05 kHz: 46 ms frames, 10 ms hop, 60-1600 Hz.
    x = _vibrato_voice(int(seconds * sr), sr)
    tracemalloc.start()
    try:
        lags, _ = _kernels.yin_lag_search(x, 1014, 220, 14, 367, 0.15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, lags.shape[0]


def test_kernel_temporaries_do_not_grow_with_signal_length(monkeypatch):
    # One worker, so the peak does not depend on how the workers' block temporaries overlap in
    # time; test_threaded_peak_is_at_most_one_256_frame_block bounds the threaded peak.
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 1)
    peak_short, frames_short = _peak_bytes(10.0)
    peak_long, frames_long = _peak_bytes(60.0)
    extra_outputs = 2 * 8 * (frames_long - frames_short)  # lags and minima, float64
    assert peak_long - peak_short <= extra_outputs + 2**20


def _run_kernel(case):
    make, window, hop, tau_min, tau_max = _CASES[case]
    return _kernels.yin_lag_search(make(), window, hop, tau_min, tau_max, 0.15)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_tracks_are_bitwise_equal_for_any_worker_count(case, monkeypatch):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 1)
    ref_lags, ref_min = _run_kernel(case)
    for workers in (2, 3):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda: workers)
        lags, minima = _run_kernel(case)
        assert np.array_equal(lags, ref_lags, equal_nan=True)
        assert np.array_equal(minima, ref_min, equal_nan=True)


def test_many_small_blocks_with_fast_thread_switching(monkeypatch):
    # More workers than cores, tiny blocks and a short switch interval: a block
    # skipped, written twice or written to the wrong rows breaks bitwise equality.
    ref_lags, ref_min = _run_kernel("zero_gap_after_loud")
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 8)
    monkeypatch.setattr(_kernels, "MAX_WORKERS", 8)
    monkeypatch.setattr(_kernels, "BLOCK_FRAMES", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lags, minima = _run_kernel("zero_gap_after_loud")
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(lags, ref_lags, equal_nan=True)
    assert np.array_equal(minima, ref_min, equal_nan=True)


def test_tracks_do_not_depend_on_the_block_size(monkeypatch):
    ref_lags, ref_min = _run_kernel("mixed_leading_silence")
    for frames in (1, 7, 256):
        monkeypatch.setattr(_kernels, "BLOCK_FRAMES", frames)
        lags, minima = _run_kernel("mixed_leading_silence")
        assert np.array_equal(lags, ref_lags, equal_nan=True)
        assert np.array_equal(minima, ref_min, equal_nan=True)


def test_a_single_block_runs_inline(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 3)
    search, seen = _kernels._search, []

    def recording(*args):
        seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
        return search(*args)

    monkeypatch.setattr(_kernels, "_search", recording)
    before = threading.active_count()
    # 0.5 s at 22.05 kHz with the default settings: 45 frames, fewer than one block
    lags, _ = _kernels.yin_lag_search(_vibrato_voice(11025, 22050), 1014, 220, 14, 367, 0.15)
    assert lags.shape[0] < _kernels.BLOCK_FRAMES
    assert seen == [(True, before)]


def test_a_worker_error_reaches_the_caller(kernel_fails_on_second_block):
    x = _vibrato_voice(60 * 22050, 22050)  # 6,000 frames
    before = threading.active_count()
    with pytest.raises(MemoryError, match="second block"):
        _kernels.yin_lag_search(x, 1014, 220, 14, 367, 0.15)
    assert threading.active_count() == before
    # the other worker stops at its next block instead of finishing its half of the signal
    assert len(kernel_fails_on_second_block) < 6000 // _kernels.BLOCK_FRAMES // 2


def test_the_lowest_failing_share_gives_the_error(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 3)
    all_started = threading.Barrier(3, timeout=10)

    def failing(*args):
        all_started.wait()  # every share is past its first stop check
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.2)  # share 0 fails last
            raise MemoryError("share 0")
        raise MemoryError("a helper's share")

    monkeypatch.setattr(_kernels, "_search", failing)
    with pytest.raises(MemoryError, match="share 0"):
        _kernels.yin_lag_search(_vibrato_voice(60 * 22050, 22050), 1014, 220, 14, 367, 0.15)


def test_an_interrupt_while_waiting_stops_and_joins_the_helpers(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
    search, main = _kernels._search, threading.main_thread()
    share_blocks = -(-6000 // _kernels.BLOCK_FRAMES) // 2  # of 6,000 frames, in two shares
    caller_blocks, helper_blocks, in_flight = [], [], []
    caller_done = threading.Event()

    def slow_helper(*args):
        """The caller's share runs at full speed, and its last block sets `caller_done`. The
        helper waits for that before its first block and interrupts the caller at its second,
        while the caller waits; each of its blocks takes 50 ms."""
        if threading.current_thread() is main:
            caller_blocks.append(None)
            result = search(*args)
            if len(caller_blocks) == share_blocks:
                caller_done.set()
            return result
        if not helper_blocks:
            assert caller_done.wait(timeout=60)
        helper_blocks.append(None)
        if len(helper_blocks) == 2:
            signal.pthread_kill(main.ident, signal.SIGINT)
        in_flight.append(None)
        time.sleep(0.05)
        in_flight.pop()
        return search(*args)

    monkeypatch.setattr(_kernels, "_search", slow_helper)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _kernels.yin_lag_search(_vibrato_voice(60 * 22050, 22050), 1014, 220, 14, 367, 0.15)
    assert not in_flight  # the helper's last block ended before the interrupt propagated
    # A joined thread can stay listed a moment longer, but not alive.
    assert sum(t.is_alive() for t in threading.enumerate()) == before
    assert len(caller_blocks) == share_blocks
    # the helper stops at its next block instead of finishing its share
    assert len(helper_blocks) < share_blocks


def test_threaded_peak_is_at_most_one_256_frame_block(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: _kernels.MAX_WORKERS)
    sr, window, hop, tau_min, tau_max = 22050, 1014, 220, 14, 367
    x = _vibrato_voice(60 * sr, sr)
    tracemalloc.start()
    try:
        d = _kernels._difference(x, 0, 256, window, hop, tau_max)
        _kernels._search(d, tau_min, tau_max, 0.15)
        del d
        _, one_block = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _kernels.yin_lag_search(x, window, hop, tau_min, tau_max, 0.15)
        _, threaded = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert threaded <= one_block
