"""The YIN lag search, the hot numeric kernel.

The difference function is computed as in YIN's eq. 7 (de Cheveigné &
Kawahara, JASA 2002): d(τ) = r_t(0) + r_{t+τ}(0) − 2 r_t(τ). The cross term
r_t(τ) comes from real FFTs of each frame; the energy terms come from a
cumulative sum of x² taken over each frame's own span, so a loud passage
never costs precision in a quiet frame after it. Frames are processed in
fixed blocks, so temporaries stay the same size however long the signal is.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False  # the kernel is pure numpy; kept for run metadata
BLOCK_FRAMES = 256  # temporaries about 12 MB at span 1381; larger blocks raise peak RSS


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
    head = np.fft.rfft(frames[:, :window], n=n_fft)
    cross = np.fft.irfft(np.conj(head) * np.fft.rfft(frames, n=n_fft), n=n_fft)
    energy = np.zeros((frames.shape[0], frames.shape[1] + 1))
    np.cumsum(frames * frames, axis=1, out=energy[:, 1:])
    tail = energy[:, window : window + tau_max + 1] - energy[:, : tau_max + 1]
    d = energy[:, window, None] + tail - 2.0 * cross[:, : tau_max + 1]
    np.maximum(d, 0.0, out=d)
    return d


def _search(d, tau_min, tau_max, threshold):
    """CMNDF first-dip search over rows of `d`; returns (lags, cmndf_minima)."""
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
    lags = np.empty(n_frames)
    minima = np.empty(n_frames)
    for b in range(0, n_frames, BLOCK_FRAMES):
        e = min(b + BLOCK_FRAMES, n_frames)
        d = _difference(frames[b:e], window, tau_max, n_fft)
        lags[b:e], minima[b:e] = _search(d, tau_min, tau_max, threshold)
    return lags, minima
