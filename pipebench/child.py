"""One timed sample of the pipeline benchmark, in a fresh interpreter.

run.py starts this script once per sample. It imports the package and
builds the CLI parser (the set-up the benchmark reports as `setup_s`), then
calls `sorimir.cli.main(["run", ...])` once and writes a JSON result file:
when set-up finished on the shared monotonic clock, the wall time of
`main`, its exit code, and the process's peak RSS.

Right before and right after `main` it also times a fixed reference load
(`reference_s`) that does not touch the package. The host's speed drifts by
up to a third over tens of seconds; run.py divides by this yardstick to
take that drift out of the reported times.

With --trace, the public functions are wrapped where `report`, `patterns`
and `pitch_track` look them up, and every call becomes a span (name, start,
end, parent span, run id) kept in memory and written with the result.
Nothing in the package is edited; the wrappers only replace module
attributes in this process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time

# (module, attribute, span name, counts taken from (result, *args, **kwargs))
TRACED = (
    ("report", "run_pipeline", "report.run_pipeline", None),
    ("report", "parse_musicxml", "score.parse_musicxml", None),
    ("report", "note_sequence", "score.note_sequence", lambda r, *a, **k: {"events": len(r)}),
    ("report", "load_beats", "beat_grid.load_beats", None),
    ("report", "import_f0_csv", "pitch_track.import_f0_csv", lambda r, *a, **k: {"rows": len(r)}),
    ("report", "load_wav", "pitch_track.load_wav",
     lambda r, *a, **k: {"bytes": r[0].nbytes, "audio_s": r[0].shape[0] / r[1]}),
    ("report", "estimate_f0_yin", "pitch_track.estimate_f0_yin",
     lambda r, samples, sample_rate, *a, **k: {"audio_s": len(samples) / sample_rate}),
    ("pitch_track", "yin_lag_search", "kernels.yin_lag_search",
     lambda r, x, window, hop, tau_min, tau_max, *a, **k: {
         "frames": len(r[0]), "lags": len(r[0]) * tau_max}),
    ("report", "filter_track", "pitch_track.filter_track",
     lambda r, track, *a, **k: {"voiced_in": track.n_voiced, "voiced_out": r.n_voiced}),
    ("report", "f0_histogram", "histogram.f0_histogram", None),
    ("report", "score_duration_histogram", "histogram.score_duration_histogram", None),
    ("report", "mode_affinity", "histogram.mode_affinity", None),
    ("report", "render_histogram_figure", "report.render_histogram_figure", None),
    ("report", "tokenize", "patterns.tokenize", None),
    ("report", "mine_ngrams", "patterns.mine_ngrams",
     lambda r, sequences, n_values, **k: {
         "windows": sum(max(0, len(s) - n + 1) for n in set(n_values) for s in sequences.values()),
         "kept": sum(len(o) for o in r.occurrences.values())}),
    ("report", "pattern_index_record", "report.pattern_index_record", None),
    ("report", "occurrence_contours", "patterns.occurrence_contours",
     lambda r, index, pattern, *a, **k: {"support": index.support(pattern), "placed": len(r)}),
    ("patterns", "slice_track", "beat_grid.slice_track",
     lambda r, track, *a, **k: {"scanned": len(track), "returned": len(r)}),
    ("report", "contours_csv", "report.contours_csv", None),
    ("report", "render_contour_overlay", "report.render_contour_overlay", None),
    ("report", "occurrence_vibrato", "patterns.occurrence_vibrato", None),
)


def reference_s() -> float:
    """Wall time of a fixed load that never touches the package.

    Three parts, for the three kinds of work in the workloads: interpreter
    work (dicts and f-strings), numpy on small arrays, and a YIN-like
    streaming difference over a few MB (subtract and einsum over frames of
    one signal, as `_kernels.yin_lag_search_numpy` does). The large buffers
    come from mmap, not malloc: freeing large numpy arrays would raise
    glibc's mmap threshold and change how `main` allocates. At about 20 MB
    they keep the process below the peak RSS of every workload.
    """
    import mmap

    import numpy

    n_frames, window, span, hop = 2000, 1000, 1400, 250
    x_buf = mmap.mmap(-1, ((n_frames - 1) * hop + span) * 8)
    diff_buf = mmap.mmap(-1, n_frames * window * 8)
    x = numpy.frombuffer(x_buf, dtype=numpy.float64)
    diff = numpy.frombuffer(diff_buf, dtype=numpy.float64).reshape(n_frames, window)
    rng = numpy.random.default_rng(0)
    rng.standard_normal(out=x)
    diff.fill(0.0)
    frames = numpy.lib.stride_tricks.sliding_window_view(x, span)[::hop]

    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(200_000):
        key = f"k{i % 977}"
        counts[key] = counts.get(key, 0) + i
    for _ in range(240):
        values = numpy.sort(rng.standard_normal(10_000))  # 80 KB, below the mmap threshold
        numpy.cumsum(values * values)
    for tau in range(1, 31):
        numpy.subtract(frames[:, :window], frames[:, tau : tau + window], out=diff)
        numpy.einsum("ij,ij->i", diff, diff)
    elapsed = time.perf_counter() - start

    del x, diff, frames
    x_buf.close()
    diff_buf.close()
    return elapsed


class Tracer:
    """In-memory spans of one run; a span's parent is the innermost open one."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None, "run": self.run_id}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(result, *args, **kwargs)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counts in TRACED:
            module = importlib.import_module(f"sorimir.{module_name}")
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="where to write this sample's JSON result")
    parser.add_argument("--manifest", required=True, help="pipeline manifest")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", metavar="RUN_ID", help="record spans under this run id")
    args = parser.parse_args()

    import scipy.io.wavfile  # noqa: F401  (the CLI imports it lazily; set-up includes it)

    import sorimir
    from sorimir import _kernels, cli

    cli.build_parser()
    ready = time.monotonic()

    import numpy
    import scipy

    result = {
        "ready": ready,
        "build": {
            "sorimir": sorimir.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_imported": "numba" in sys.modules,
            "using_numba": _kernels.USING_NUMBA,
        },
    }

    tracer = None
    main_fn = cli.main
    if args.trace is not None:
        tracer = Tracer(args.trace)
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    argv = ["run", "--manifest", args.manifest, "--out-dir", args.out_dir]
    reference_before = reference_s()
    start = time.perf_counter()
    try:
        rc = main_fn(argv)
    except (Exception, SystemExit) as exc:  # argparse exits; either way the sample failed
        rc = f"{type(exc).__name__}: {exc}"
    result["run_s"] = time.perf_counter() - start
    result["rc"] = rc
    # Read before the second reference load, which would add its buffers to
    # whatever `main` left resident.
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["reference_s"] = reference_before + reference_s()
    if tracer is not None:
        result["spans"] = tracer.spans

    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
