"""The YIN lag search, the hot numeric kernel.

The difference function is computed as in YIN's eq. 7 (de Cheveigné &
Kawahara, JASA 2002): d(τ) = r_t(0) + r_{t+τ}(0) − 2 r_t(τ). The cross term
r_t(τ) comes from real FFTs of each frame; the energy terms come from a
cumulative sum of x² taken over each frame's own span, so a loud passage
never costs precision in a quiet frame after it.

Frames are processed in fixed blocks of BLOCK_FRAMES, so temporaries stay
the same size however long the signal is. The blocks are independent, and
numpy's FFTs and array loops release the GIL, so the blocks are split into
one share per CPU the process may use (at most MAX_WORKERS); the calling
thread runs the first share and a helper thread each other one, and each
writes its rows straight into the shared output arrays. Every row goes
through the same operations whichever thread or block holds it, so the
tracks are bit-identical for any CPU count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

USING_NUMBA = False  # the kernel is pure numpy; kept for run metadata
# Frames per block. One block's temporaries peak at about 1.7 MB at span 1381
# (the default settings at 22.05 kHz), and at most MAX_WORKERS blocks are in
# flight: 3 × 64 frames peak below the single 256-frame block used before.
BLOCK_FRAMES = 64
MAX_WORKERS = 3


def _cpu_count():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fast_len(n):
    """Smallest 2·3·5-smooth integer >= n, a size numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _difference(frames, window, tau_max, n_fft):
    """d[i, τ] for τ in 0..tau_max over rows of `frames` (each window + tau_max long)."""
    # conj(head) · spec is formed in place, so at most two spectra are alive at once.
    spec = np.fft.rfft(frames[:, :window], n=n_fft)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(frames, n=n_fft)
    twice_cross = 2.0 * np.fft.irfft(spec, n=n_fft)[:, : tau_max + 1]
    del spec
    energy = np.zeros((frames.shape[0], frames.shape[1] + 1))
    np.cumsum(frames * frames, axis=1, out=energy[:, 1:])
    tail = energy[:, window : window + tau_max + 1] - energy[:, : tau_max + 1]
    d = energy[:, window, None] + tail - twice_cross
    np.maximum(d, 0.0, out=d)
    return d


def _search(d, tau_min, tau_max, threshold):
    """CMNDF first-dip search over rows of `d`; returns (lags, cmndf_minima).

    Each first dip is walked down to its local minimum t and refined, in one
    masked pass, by a parabola through t - 1, t, t + 1. A dip at t < 2 or at
    tau_max reads t for both neighbours, so denom and delta are 0 and it keeps t.
    """
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

    # Walk each first dip down to its local minimum: the stop lag is the
    # first t >= tau_first with dprime[t+1] >= dprime[t], else tau_max.
    non_decreasing = dprime[:, 1:] >= dprime[:, :-1]
    eligible = non_decreasing & (np.arange(tau_max)[None, :] >= tau_first[:, None])
    stop_found = eligible.any(axis=1)
    tau_star = np.where(stop_found, np.argmax(eligible, axis=1), tau_max)

    lags = np.full(n_frames, np.nan)
    minima = np.ones(n_frames)
    rows = np.nonzero(has_dip)[0]
    ts = tau_star[rows]
    inner = (ts >= 2) & (ts + 1 <= tau_max)
    y0 = dprime[rows, np.where(inner, ts - 1, ts)]
    y1 = dprime[rows, ts]
    y2 = dprime[rows, np.where(inner, ts + 1, ts)]
    denom = y0 - 2.0 * y1 + y2
    delta = np.where(denom > 0.0, 0.5 * (y0 - y2) / np.where(denom > 0.0, denom, 1.0), 0.0)
    delta[np.abs(delta) >= 1.0] = 0.0
    refined = delta != 0.0
    lags[rows] = np.where(refined, ts + delta, ts)
    minima[rows] = np.where(refined, y1 - 0.25 * (y0 - y2) * delta, y1)
    return lags, minima


def yin_lag_search(x, window, hop, tau_min, tau_max, threshold):
    """Per-frame YIN lag estimate from the normalized difference function.

    For each frame the cumulative-mean-normalized difference function
    (CMNDF) is evaluated over lags 1..tau_max; the first lag dipping below
    `threshold` (searched from tau_min) is walked down to its local minimum
    and refined by parabolic interpolation. Returns (lags, cmndf_minima)
    with lag = NaN and minimum = 1.0 for frames without a dip.
    """
    span = window + tau_max
    n_frames = (x.shape[0] - span) // hop + 1
    n_fft = _fast_len(span)
    frames = np.lib.stride_tricks.sliding_window_view(x, span)[::hop]
    lags, minima = np.empty(n_frames), np.empty(n_frames)
    workers = min(_cpu_count(), max(1, -(-n_frames // BLOCK_FRAMES)), MAX_WORKERS)
    stop, errors = threading.Event(), [None] * workers
    done = threading.Semaphore(0)  # released once by each share as it ends

    def work(share):
        """Blocks share, share + workers, ...; an error is kept and stops every share."""
        try:
            for b in range(share * BLOCK_FRAMES, n_frames, workers * BLOCK_FRAMES):
                if stop.is_set():
                    return
                e = min(b + BLOCK_FRAMES, n_frames)
                d = _difference(frames[b:e], window, tau_max, n_fft)
                lags[b:e], minima[b:e] = _search(d, tau_min, tau_max, threshold)
        except BaseException as exc:
            errors[share] = exc
            stop.set()
        finally:
            done.release()

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    try:
        work(0)
        # Not Thread.join: on CPython 3.11 an interrupted join marks a running thread stopped.
        for _ in range(workers):
            done.acquire()
    finally:  # an interrupt while the caller waits stops the helpers; none outlives the call
        stop.set()
        for thread in helpers:
            thread.join()
    for exc in filter(None, errors):  # the lowest failing share's error
        raise exc
    return lags, minima
