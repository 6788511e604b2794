"""The contour stage of `run` split over processes: the same outputs and errors on any CPU count."""

import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import sorimir
from sorimir import _kernels, report
from sorimir.cli import main

# Patterns of the meter-12-8 fixture (min_support 1) and what `run` makes of each.
PAIR = "A4:1/1 C5:1/1"  # 2 occurrences, both placed
THREE = "C5:1/1 G4:1/1 E4:3/2"  # 1 occurrence, placed
TWO = "C5:1/1 G4:1/1"  # 1 occurrence, placed
PAST_20 = "G4:1/1 E4:3/2 D4:5/2 C4:3/1"  # 1 occurrence, past the grid: warned at beat 20.0
PAST_22 = "E4:3/2 D4:5/2 C4:3/1"  # past the grid at beat 22.0
PAST_25 = "D4:5/2 C4:3/1"  # past the grid at beat 25.0
UNMINED = "B4:1/1 B4:1/1"

# PAST_20 twice: a serial run warns its text once, as the second warning repeats the first.
PATTERNS = [PAIR, PAST_20, THREE, PAST_25, PAST_20, PAST_22]


def _manifest(fixtures_dir, tmp_path, patterns, **settings) -> Path:
    manifest = json.loads((fixtures_dir / "meter-12-8.manifest.json").read_text())
    entry = manifest["daemok"][0]
    for key in ("score", "f0_csv", "beats"):
        entry[key] = str(fixtures_dir / entry[key])
    manifest["settings"].update(settings, contour_patterns=patterns)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def _weights(manifest) -> list[int]:
    """The support of each of the manifest's contour patterns, as `run` weighs its jobs."""
    entries, settings = report.load_manifest(manifest)
    index = report.mine_index(report.load_corpus(entries, settings)[0], settings)
    return [report._support(index, p) for p in settings["contour_patterns"]]


@pytest.fixture
def cpus(monkeypatch):
    """`pin(n)`: the process may use n CPUs, and every pattern repays a fork."""
    monkeypatch.setattr(report, "MIN_SHARE_OCCURRENCES", 0)
    return lambda n: monkeypatch.setattr(_kernels, "_cpu_count", lambda: n)


class TestShares:
    def test_pattern_dense_splits_in_halves(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
        weights = [121, 85, 60, 43, 30, 21] * 2
        shares = report._shares(weights)
        assert shares == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]
        assert [sum(weights[i] for i in s) for s in shares] == [360, 360]

    def test_descending_weight_to_the_least_loaded_share(self, cpus):
        cpus(3)
        # 9 -> 0; 5 -> 1; 4 -> 2; 3 -> 2 (4 < 5); 2 -> 1 (5 < 7); 1 -> 1 (9, 7, 7: the first 7)
        assert report._shares([1, 2, 3, 4, 5, 9]) == [[5], [0, 1, 4], [2, 3]]

    @pytest.mark.parametrize("count, weights, shares", [
        (4, [60, 60, 60], 3),  # no more shares than jobs
        (2, [60, 59], 1),  # 119 occurrences do not repay two shares of 60
        (2, [60, 60], 2),
        (3, [100, 50, 29], 2),  # 179 repay two shares, not three
        (2, [3, 3], 1),  # wav_long: 6 occurrences stay serial
        (1, [500, 500], 1),
        (2, [], 1),
    ])
    def test_share_count(self, monkeypatch, count, weights, shares):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda: count)
        assert len(report._shares(weights)) == shares

    def test_one_share_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert len(report._shares([500, 500])) == 1
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert len(report._shares([500, 500])) == 2

    def test_every_job_in_exactly_one_share(self, cpus):
        cpus(3)
        weights = [7, 0, 3, 3, 12, 1, 0, 5]
        shares = report._shares(weights)
        assert sorted(i for s in shares for i in s) == list(range(len(weights)))
        assert all(s == sorted(s) for s in shares)


_RUN_PINNED = """
import sys
from sorimir import _kernels, cli, report
_kernels._cpu_count = lambda: int(sys.argv[1])
report.MIN_SHARE_OCCURRENCES = 0
sys.exit(cli.main(sys.argv[2:]))
"""


def _run_pinned(manifest, cwd: Path, count: int) -> subprocess.CompletedProcess:
    """`sorimir run` in a fresh interpreter whose process may use `count` CPUs, writing `out`."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(sorimir.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", _RUN_PINNED, str(count), "run", "--manifest", str(manifest),
         "--out-dir", "out"],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )


def test_run_is_byte_identical_on_one_two_and_three_cpus(fixtures_dir, tmp_path):
    manifest = _manifest(fixtures_dir, tmp_path, PATTERNS)
    runs = {}
    for count in (1, 2, 3):
        done = _run_pinned(manifest, tmp_path / f"cpus{count}", count)
        out = tmp_path / f"cpus{count}" / "out"
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs[count] = (done.returncode, done.stdout, done.stderr, files)
    assert runs[1] == runs[2] == runs[3]
    code, stdout, stderr, files = runs[1]
    assert code == 0
    assert json.loads(stdout)["contour_sets"] == {PAIR: 2, PAST_20: 0, THREE: 1, PAST_25: 0, PAST_22: 0}
    assert len(files) == 2 * (2 + 1 + 3 * len(PATTERNS))  # histogram x2, patterns.json, 3 a pattern
    # The warnings reach the CLI's stderr in pattern order, each text once.
    warned = [line for line in stderr.decode().splitlines() if "UserWarning" in line]
    assert [line.split("beat ")[1].split(" ")[0] for line in warned] == ["20.0", "25.0", "22.0"]


def _json_line(capsys, manifest, out_dir) -> dict:
    code = main(["run", "--manifest", str(manifest), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)["error"]


@pytest.mark.parametrize("failing, settings, message", [
    (TWO, {"samples_per_contour": 10**15},
     "stage 'contours' failed for daemok '*': Unable to allocate"),
    (UNMINED, {}, f"stage 'contours' failed for daemok '*': pattern '{UNMINED}' is not in the index"),
])
def test_a_job_failing_in_a_child_gives_the_serial_json_line(
    capsys, cpus, fixtures_dir, tmp_path, failing, settings, message
):
    # PAST_25 warns and places nothing, so it renders no contour and passes even at 10**15
    # samples; the failing job comes next. PAIR, the heaviest, fails too under 10**15, later.
    patterns = [PAST_25, failing, PAIR, THREE, "G4:1/1 E4:3/2"]
    manifest = _manifest(fixtures_dir, tmp_path, patterns, **settings)
    lines = []
    for count in (1, 2, 3):
        cpus(count)
        if count > 1:  # the warning and the failing job run in children, not in the parent
            assert {0, 1}.isdisjoint(report._shares(_weights(manifest))[0])
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert lines[0]["type"] == "PipelineError" and lines[0]["message"].startswith(message)
    assert lines[0]["warnings"] == [
        "occurrence at meter-12-8 beat 25.0 runs past the annotated grid; skipped"
    ]


def test_a_failure_in_the_parents_share_waits_for_the_children(capsys, cpus, fixtures_dir,
                                                               tmp_path):
    # PAIR runs in the parent and fails first; the children's later warnings are dropped.
    manifest = _manifest(fixtures_dir, tmp_path, [PAIR, PAST_20, THREE, PAST_22],
                         samples_per_contour=10**15)
    lines = []
    for count in (1, 2, 3):
        cpus(count)
        assert 0 in report._shares(_weights(manifest))[0]
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert "warnings" not in lines[0]
    assert lines[0]["message"].startswith("stage 'contours' failed for daemok '*': Unable to")


def test_a_child_that_dies_is_one_json_line(capsys, cpus, fixtures_dir, tmp_path, monkeypatch):
    cpus(2)
    parent, artifacts = os.getpid(), report.pattern_artifacts

    def dying(*args):
        if os.getpid() != parent:
            os._exit(9)
        return artifacts(*args)

    monkeypatch.setattr(report, "pattern_artifacts", dying)
    manifest = _manifest(fixtures_dir, tmp_path, PATTERNS)
    assert _json_line(capsys, manifest, tmp_path / "out") == {
        "type": "PipelineError",
        "message": "stage 'contours' failed for daemok '*': a worker process ended with exit "
                   "code 9 before it returned its results",
    }  # at the child's first pattern, PAST_20: no warning comes before it
    assert not (tmp_path / "out").exists()


def test_an_error_of_the_parents_own_kills_and_reaps_every_child(cpus):
    cpus(3)
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        report._fan_out(job, [1, 1, 1])
    assert time.monotonic() - start < 30  # the no_child_process_left fixture checks the reaping


def test_results_and_warnings_come_back_in_job_order(cpus, recwarn):
    cpus(3)

    def job(i):
        warnings.warn(f"job {i} from {'parent' if os.getpid() == parent else 'child'}")
        return i * i

    parent = os.getpid()
    assert report._fan_out(job, [5, 4, 3, 2, 1]) == [0, 1, 4, 9, 16]
    texts = [str(w.message) for w in recwarn]
    assert [t.split(" from ")[0] for t in texts] == [f"job {i}" for i in range(5)]
    assert {t.split(" from ")[1] for t in texts} == {"parent", "child"}
