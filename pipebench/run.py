#!/usr/bin/env python3
"""Pipeline benchmark: whole `sorimir run` per corpus, end to end and per layer.

Usage, from the repository root:
    python3 pipebench/run.py --workload csv_corpus --seed 1 --seconds 20 --trace 0

The workload's corpus is generated from --seed (pipebench/corpus.py). Then,
closed loop with one client, each sample is one fresh interpreter
(pipebench/child.py) that runs `sorimir.cli.main(["run", ...])` once; new
samples start until --seconds have passed. Every sample's outputs are
checked. With --trace 0 the last stdout line reports the end-to-end metrics
(medians over samples); with --trace 1 untraced and traced samples
alternate and it reports the per-layer metrics of the median traced sample.
End-to-end times are scaled to a host of fixed speed, measured in each
sample by a reference load (see REFERENCE_S).
Details, including the metric -> layer -> workload table, are in
pipebench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".pipebench"

MIN_SAMPLES = 3           # per kind of sample, even when one sample outlasts --seconds
LAST_START_S = 120.0      # no sample starts later than this, so a run ends well within 180 s
CHILD_TIMEOUT_S = 150.0
WAV_MIN_ON_SCORE = 0.95   # share of f0-histogram mass that must fall on the score's MIDI bins

# Seconds that child.reference_s, timed once before and once after `main`,
# takes in all on the reference host (the usual state of the 2-vCPU guest
# in README.md). The host's speed drifts by up to a third over tens of
# seconds, so a sample's run_s and setup_s are reported as its wall time
# times REFERENCE_S / its own reference time: the time the sample would have
# taken on the reference host. Wall times are kept in the results file.
REFERENCE_S = 0.60

END_TO_END_UNITS = {"run_s": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "report.run_pipeline": "report.self_s",
    "score.parse_musicxml": "score.parse_s",
    "score.note_sequence": "score.parse_s",
    "beat_grid.load_beats": "beat_grid.load_s",
    "pitch_track.import_f0_csv": "pitch_track.csv_import_s",
    "pitch_track.load_wav": "pitch_track.wav_read_s",
    "pitch_track.estimate_f0_yin": "pitch_track.yin_self_s",
    "kernels.yin_lag_search": "kernels.lag_search_s",
    "pitch_track.filter_track": "pitch_track.filter_s",
    "histogram.f0_histogram": "histogram.build_s",
    "histogram.score_duration_histogram": "histogram.build_s",
    "histogram.mode_affinity": "histogram.build_s",
    "report.render_histogram_figure": "report.histogram_svg_s",
    "patterns.tokenize": "patterns.mine_s",
    "patterns.mine_ngrams": "patterns.mine_s",
    "report.pattern_index_record": "report.index_record_s",
    "patterns.occurrence_contours": "patterns.contours_self_s",
    "beat_grid.slice_track": "beat_grid.slice_s",
    "report.contours_csv": "report.contours_csv_s",
    "report.render_contour_overlay": "report.overlay_svg_s",
    "patterns.occurrence_vibrato": "patterns.vibrato_self_s",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in sorted(set(SELF_TIME_METRIC.values()))},
    "score.events": "count",
    "pitch_track.csv_rows_per_s": "1/s",
    "pitch_track.wav_mb": "MB",
    "kernels.lags_per_s": "1/s",
    "kernels.ms_per_audio_s.short": "ms/s",
    "kernels.ms_per_audio_s.long": "ms/s",
    "pitch_track.voiced_kept_ratio": "ratio",
    "beat_grid.slice_calls": "count",
    "beat_grid.slice_yield": "ratio",
    "patterns.windows": "count",
    "patterns.kept_ratio": "ratio",
    "patterns.occurrences_placed": "count",
    "patterns.occurrences_skipped": "count",
    "report.files_written": "count",
    "report.bytes_written": "B",
    "trace.run_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = threads
    return env


def launch(child_args: list[str], result_path: Path, env: dict) -> tuple[dict | None, float, str]:
    """Run child.py to completion: (result or None, launch time, error text)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--result", str(result_path), *child_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, started, f"sample timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return None, started, f"child exited {proc.returncode}: {' | '.join(tail)}"
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, started, ""


def output_digest(out: Path) -> tuple[list[str], str, int]:
    """(file names, SHA-256 over names and contents, total bytes) of a run's outputs."""
    names = sorted(p.name for p in out.iterdir())
    digest = hashlib.sha256()
    total = 0
    for name in names:
        data = (out / name).read_bytes()
        total += len(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return names, "sha256:" + digest.hexdigest(), total


def check_against_truth(out: Path, truth: dict) -> list[str]:
    """Compare one run's outputs with the generator's ground truth."""
    problems = []
    for daemok_id, info in truth["daemok"].items():
        record = json.loads((out / f"{daemok_id}.histogram.json").read_text())
        masses = {int(b): m for b, m in record["f0_histogram"]["masses"].items()}
        total = sum(masses.values())
        if truth["kind"] == "csv":
            if total != info["passing_frames"]:
                problems.append(f"{daemok_id}: f0 mass {total} != {info['passing_frames']} "
                                "frames passing the default filter")
        else:
            on_score = sum(m for b, m in masses.items() if b in set(info["score_bins"]))
            if total <= 0 or on_score / total < WAV_MIN_ON_SCORE:
                problems.append(f"{daemok_id}: {on_score:.0f} of {total:.0f} f0 frames on the "
                                f"score's bins, need >= {WAV_MIN_ON_SCORE:.0%}")
    index = json.loads((out / "patterns.json").read_text())
    support = {" ".join(p["tokens"]): p["support"] for p in index["patterns"]}
    for i, pattern in enumerate(truth["patterns"]):
        stem = f"pattern-{i:02d}"
        if support.get(pattern["text"]) != pattern["support"]:
            problems.append(f"{stem}: support {support.get(pattern['text'])} != "
                            f"generator count {pattern['support']}")
        rows = len((out / f"{stem}.contours.csv").read_text().splitlines()) - 1
        if rows != pattern["placed"] * truth["contour_samples"]:
            problems.append(f"{stem}: {rows} contour rows, expected {pattern['placed']} "
                            f"placed occurrences x {truth['contour_samples']} samples")
        vibrato = json.loads((out / f"{stem}.vibrato.json").read_text())
        if len(vibrato["occurrences"]) != pattern["support"]:
            problems.append(f"{stem}: {len(vibrato['occurrences'])} vibrato records, "
                            f"expected {pattern['support']}")
    return problems


class Run:
    """One benchmark invocation: corpus, samples, checks and metrics."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.truth = corpus.generate(workload, seed, work / "corpus")
        self.digests: dict[str, list[str]] = {}   # digest -> problems found for it
        self.setup_s: list[float] = []
        self.samples: list[dict] = []
        self.build: dict = {}

    def sample(self, traced: bool):
        i = len(self.samples)
        out = self.work / f"out-{i}"
        args = ["--manifest", str(self.work / "corpus" / "manifest.json"), "--out-dir", str(out)]
        if traced:
            args += ["--trace", f"{self.workload}-{self.seed}-{i}"]
        result, started, error = launch(args, self.work / f"sample-{i}.json", self.env)
        record = {"traced": traced, "problems": [error] if error else []}
        if result is not None:
            speed = REFERENCE_S / result["reference_s"]
            self.setup_s.append((result["ready"] - started) * speed)
            self.build = result["build"]
            record.update(run_s=result["run_s"] * speed, wall_run_s=result["run_s"],
                          wall_setup_s=result["ready"] - started,
                          reference_s=result["reference_s"], peak_rss_mb=result["maxrss_mb"],
                          spans=result.get("spans", []))
            if result["rc"] != 0:
                record["problems"].append(f"sorimir run returned {result['rc']!r}")
            else:
                record["problems"] += self.check(out, record)
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append(record)

    def check(self, out: Path, record: dict) -> list[str]:
        names, digest, total = output_digest(out)
        record.update(digest=digest, files=len(names), bytes=total)
        if names != self.truth["expected_files"]:
            missing = sorted(set(self.truth["expected_files"]) - set(names))
            extra = sorted(set(names) - set(self.truth["expected_files"]))
            return [f"output set differs: missing {missing[:5]}, unexpected {extra[:5]}"]
        if digest not in self.digests:
            problems = check_against_truth(out, self.truth)
            if self.digests:
                problems.append("outputs differ from an earlier run of the same corpus")
            self.digests[digest] = problems
        return self.digests[digest]

    def ok(self, traced: bool) -> list[dict]:
        return [s for s in self.samples if s["traced"] == traced and not s["problems"]]

    def end_to_end(self) -> dict:
        ok = self.ok(False)
        frames = self.truth["frames"]
        return {
            "run_s": [s["run_s"] for s in ok],
            "frames_per_s": [frames / s["run_s"] for s in ok],
            "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
            "setup_s": self.setup_s,
        }

    def per_layer(self) -> dict:
        traced = sorted(self.ok(True), key=lambda s: s["run_s"])
        sample = traced[(len(traced) - 1) // 2]
        metrics = layer_metrics(sample["spans"])
        metrics["report.files_written"] = sample["files"]
        metrics["report.bytes_written"] = sample["bytes"]
        metrics["trace.run_s"] = sample["wall_run_s"]
        metrics["trace.overhead_s"] = (
            statistics.median(s["run_s"] for s in traced)
            - statistics.median(s["run_s"] for s in self.ok(False))
        )
        return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run; self times sum to the root span."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    counts: dict[str, float] = {}
    kernel_ms_per_audio_s = []
    for span in spans:
        duration = span["end"] - span["start"]
        metrics[SELF_TIME_METRIC[span["name"]]] += duration - child_time[span["id"]]
        metrics["trace.self_sum_s"] += duration - child_time[span["id"]]
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if span["name"] == "beat_grid.slice_track":
            counts["slice_calls"] = counts.get("slice_calls", 0) + 1
        if span["name"] == "kernels.yin_lag_search":
            audio_s = spans[span["parent"]]["counts"]["audio_s"]
            kernel_ms_per_audio_s.append((audio_s, 1000.0 * duration / audio_s))
    c = counts.get
    metrics.update({
        "score.events": c("events", 0),
        "pitch_track.csv_rows_per_s": ratio(c("rows", 0), metrics["pitch_track.csv_import_s"]),
        "pitch_track.wav_mb": c("bytes", 0) / 2**20,
        "kernels.lags_per_s": ratio(c("lags", 0), metrics["kernels.lag_search_s"]),
        "pitch_track.voiced_kept_ratio": ratio(c("voiced_out", 0), c("voiced_in", 0)),
        "beat_grid.slice_calls": c("slice_calls", 0),
        "beat_grid.slice_yield": ratio(c("returned", 0), c("scanned", 0)),
        "patterns.windows": c("windows", 0),
        "patterns.kept_ratio": ratio(c("kept", 0), c("windows", 0)),
        "patterns.occurrences_placed": c("placed", 0),
        "patterns.occurrences_skipped": c("support", 0) - c("placed", 0),
    })
    if kernel_ms_per_audio_s:
        kernel_ms_per_audio_s.sort()
        metrics["kernels.ms_per_audio_s.short"] = kernel_ms_per_audio_s[0][1]
        metrics["kernels.ms_per_audio_s.long"] = kernel_ms_per_audio_s[-1][1]
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "sorimir" / "cli.py").is_file():
        print(f"pipebench: no sorimir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(args.workload, args.seed, work)
        # One round is one sample, or an untraced/traced pair with --trace 1.
        # A round starts only if a typical round still ends within --seconds.
        kinds = (False, True) if args.trace else (False,)
        begin = time.monotonic()
        rounds: list[float] = []
        while time.monotonic() - begin < LAST_START_S:
            elapsed = time.monotonic() - begin
            if len(rounds) >= MIN_SAMPLES and elapsed + statistics.median(rounds) > args.seconds:
                break
            for traced in kinds:
                run.sample(traced)
            rounds.append(time.monotonic() - begin - elapsed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in run.samples if s["problems"]]
    if any(not run.ok(k) for k in kinds):
        for s in failed[:5]:
            print(f"pipebench: failed sample: {'; '.join(s['problems'])}", file=sys.stderr)
        print("pipebench: no successful sample to measure", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu": cpu_model(),
        "python": platform.python_version(), **run.build, "commit": git_commit(),
        "frames": run.truth["frames"], "daemok": len(run.truth["daemok"]),
        "outputs": len(run.truth["expected_files"]),
        "output_digests": sorted(run.digests),
    }
    print("pipebench: " + json.dumps(info, sort_keys=True))
    for s in failed:
        print(f"pipebench: failed sample: {'; '.join(s['problems'])}")

    if args.trace:
        layer = run.per_layer()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    else:
        series = run.end_to_end()
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            q1, median, q3 = quartiles(series[name])
            metrics[name] = {"value": median, "unit": unit}
            print(f"  {name:14s} median {median:12.6g} {unit:5s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n={len(series[name])}")
        ok = run.ok(False)
        for name in ("wall_run_s", "wall_setup_s", "reference_s"):
            print(f"  {name:14s} median {statistics.median(s[name] for s in ok):12.6g} s")
    failed_frac = len(failed) / len(run.samples)
    print(f"  failed_frac    {failed_frac:.6g} ({len(failed)} of {len(run.samples)} runs)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"info": info, "metrics": metrics, "failed_frac": failed_frac,
         "samples": [{k: v for k, v in s.items() if k != "spans"} for s in run.samples],
         "setup_s": run.setup_s}, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(run.samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
