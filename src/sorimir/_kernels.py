"""The YIN lag search, the hot numeric kernel.

The difference function is computed as in YIN's eq. 7 (de Cheveigné &
Kawahara, JASA 2002): d(τ) = r_t(0) + r_{t+τ}(0) − 2 r_t(τ). Each term is a
sum over the window, so it splits over any partition of the window. Frame i's
window is cut into hop-blocks: blocks i..i+q−1 whole, where q = window // hop,
and the first rem = window % hop samples of block i+q (hop ≥ window is q = 0).
A hop-block lies in about window / hop frames (4.6 at the defaults), and its
partial terms are computed once for all of them:

- the cross term r_t(τ): the real FFTs of the block's target (its first
  min(hop, window) samples and the tau_max after them) and of its heads (its
  first hop and its first rem samples), multiplied as conj(head) · target. A
  frame sums its q whole-block products and its rem product, in block order,
  and takes one inverse FFT. The FFT size is _fast_len(min(hop, window) +
  tau_max), 600 at the default settings and 22.05 kHz, and a frame costs
  about four such FFTs: three forward per hop-block, one inverse per frame.
- the energy terms: a cumulative sum of x² over each block's own target, so
  the sums are local to one hop (10 ms by default) and a loud passage never
  costs precision in a quiet frame after it.

Frames are processed in fixed blocks of BLOCK_FRAMES, so temporaries stay
the same size however long the signal is; a block recomputes the q or q + 1
hop-blocks it shares with the next one. The blocks are independent, and
numpy's FFTs and array loops release the GIL, so the blocks are split into
one share per CPU the process may use (at most MAX_WORKERS); the calling
thread runs the first share and a helper thread each other one, and each
writes its rows straight into the shared output arrays. Every row goes
through the same operations whichever thread or block holds it, so the
tracks are bit-identical for any CPU count and block size.
"""

from __future__ import annotations

import os
import threading

import numpy as np

USING_NUMBA = False  # the kernel is pure numpy; kept for run metadata
# Frames per block. One block's temporaries peak at about 1.2 MB at the default
# settings at 22.05 kHz, and at most MAX_WORKERS blocks are in flight: 3 × 64
# frames peak below a single 256-frame block.
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


def _difference(x, first, count, window, hop, tau_max):
    """d[r, τ] for τ in 0..tau_max of frames first + r, r in 0..count - 1, from hop-block partials.

    Counted from hop-block `first`, frame first + r is made of hop-blocks r..r+q-1 whole and of
    the first rem samples of hop-block r + q.
    """
    q, rem = divmod(window, hop)
    size = min(hop, window) + tau_max  # a hop-block's target: what a frame uses of it, and tau_max more
    n_fft = _fast_len(size)
    n_blocks = count + q - (rem == 0)  # up to the last frame's last hop-block
    start, stop = first * hop, (first + n_blocks - 1) * hop + size
    seg = x[start:stop]
    if seg.shape[0] < stop - start:  # the target of the last frame's rem hop-block runs past x
        seg = np.concatenate([seg, np.zeros(stop - start - seg.shape[0])])
    targets = np.lib.stride_tricks.sliding_window_view(seg, size)[::hop]

    def frame_sums(block_terms):
        """Each frame's sum of `block_terms(head)` over its hop-blocks, added in hop-block order,
        so a frame's row has the same bits in any block of frames."""
        total = 0.0
        for head, offsets in ((hop, range(q)), (rem, range(q, q + (rem > 0)))):
            if offsets:
                terms = block_terms(head)
                for k in offsets:
                    total += terms[k : k + count]
                del terms
        return total

    energy = np.zeros((n_blocks, size + 1))
    np.cumsum(targets * targets, axis=1, out=energy[:, 1:])
    # Σ x² over the frame's samples shifted by τ; at τ = 0 it is the frame's own energy.
    lagged = frame_sums(lambda head: energy[:, head : head + tau_max + 1] - energy[:, : tau_max + 1])
    del energy
    spec = np.fft.rfft(targets, n=n_fft)

    def block_cross(head):
        """Spectra of r(τ) = Σ head · target(τ) over each hop-block's first `head` samples."""
        cross = np.fft.rfft(targets[:, :head], n=n_fft)
        np.conjugate(cross, out=cross)
        cross *= spec
        return cross

    cross = frame_sums(block_cross)
    del spec
    twice_cross = 2.0 * np.fft.irfft(cross, n=n_fft)[:, : tau_max + 1]
    del cross
    d = lagged[:, :1] + lagged - twice_cross
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
    n_frames = (x.shape[0] - window - tau_max) // hop + 1
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
                d = _difference(x, b, e - b, window, hop, tau_max)
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
