"""`run`'s forked work, the F0 readers beside the score parse and the output stages claimed by
every process: the same outputs and errors on any CPU count."""

import ast
import gc
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sorimir
from sorimir import _kernels, report
from sorimir.cli import main
from sorimir.errors import IncompatibleHistogramError, PipelineError

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


def _manifest(fixtures_dir, tmp_path, patterns, copies=1, **settings) -> Path:
    """The meter-12-8 fixture manifest with `patterns` and `settings`; with `copies` > 1 its
    daemok is repeated as meter-12-8-1, meter-12-8-2 and so on."""
    manifest = json.loads((fixtures_dir / "meter-12-8.manifest.json").read_text())
    entry = manifest["daemok"][0]
    for key in ("score", "f0_csv", "beats"):
        entry[key] = str(fixtures_dir / entry[key])
    if copies > 1:
        manifest["daemok"] = [{**entry, "id": f"{entry['id']}-{i}"} for i in range(1, copies + 1)]
    manifest["settings"].update(settings, contour_patterns=patterns)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.fixture
def cpus(monkeypatch):
    """`pin(n)`: the process may use n CPUs, and every job repays a fork."""
    monkeypatch.setattr(report, "MIN_SHARE_OCCURRENCES", 0)
    return lambda n: monkeypatch.setattr(_kernels, "_cpu_count", lambda: n)


@pytest.fixture
def forks(monkeypatch) -> list:
    """Every child this process forks from now on, as a list that grows by one for each."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())
    return forked


@pytest.fixture
def handoff():
    """`(give, take)`, which work across a fork: each `take()` returns once `give()` has been
    called once more, in this process or in any child, and fails after 30 s."""
    read_end, write_end = os.pipe()

    def take():
        assert select.select([read_end], [], [], 30)[0], "nothing was given within 30 s"
        os.read(read_end, 1)

    yield partial(os.write, write_end, b"x"), take
    os.close(read_end)
    os.close(write_end)


def _gate(monkeypatch, stage: str, until) -> None:
    """Give each fan-out of a job of `stage` one more job, last in job order and run by the
    parent alone, before it claims any: `until()`. A job that must run in a child gives
    `until` its go, so the parent cannot claim it. The gate's result is dropped."""
    fan_out = report._fan_out

    def gated(jobs, order, processes):
        if not any(job[0] == stage for job in jobs):
            return fan_out(jobs, order, processes)
        return fan_out([*jobs, ("gate", "*", until)], order, processes)[:-1]

    monkeypatch.setattr(report, "_fan_out", gated)


class TestClaims:
    def test_descending_weight_ties_in_job_order(self):
        assert report._claims([1, 2, 3, 3, 0, 9])[0] == [5, 2, 3, 1, 0, 4]

    def test_pattern_dense_alternates_its_two_halves(self):
        order, _ = report._claims([121, 85, 60, 43, 30, 21] * 2)
        assert order == [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]

    @pytest.mark.parametrize("weights, processes", [
        ([60, 60, 60], 3),
        ([60, 59], 1),  # 119 occurrences do not repay two processes of 60
        ([60, 60], 2),
        ([100, 50, 29], 2),  # 179 repay two processes, not three
        ([4, 4, 0, 3, 3], 1),  # wav_long: 2 histograms, patterns.json, 6 occurrences
        ([], 1),
    ])
    def test_process_count(self, weights, processes):
        assert report._claims(weights)[1] == processes

    @pytest.mark.parametrize("count, processes, forked", [(2, 5, 1), (3, 5, 2), (3, 2, 1),
                                                          (1, 5, 0), (4, 1, 0)])
    def test_no_more_processes_than_cpus(self, cpus, forks, count, processes, forked):
        cpus(count)
        assert report._fan_out(_jobs(lambda i: -i, 6), list(range(6)), processes) == [
            0, -1, -2, -3, -4, -5]
        assert len(forks) == forked

    def test_one_process_while_another_thread_runs(self, cpus, forks):
        cpus(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert report._fan_out(_jobs(lambda i: i, 2), [0, 1], 2) == [0, 1]
            assert not forks
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert report._fan_out(_jobs(lambda i: i, 2), [0, 1], 2) == [0, 1]
        assert len(forks) == 1

    @pytest.mark.parametrize("count, forked", [(1, 0), (2, 1), (3, 2), (8, 3)])
    def test_the_load_phase_forks_a_reader_per_cpu_but_one_up_to_the_csv_count(
        self, cpus, forks, fixtures_dir, tmp_path, count, forked
    ):
        entries, settings = report.load_manifest(_mixed(fixtures_dir, tmp_path))  # 3 CSVs
        cpus(count)
        report.load_corpus(entries, settings)
        assert len(forks) == forked

    def test_the_parent_runs_its_own_jobs_first_and_claims_the_rest_in_order(
        self, cpus, handoff, tmp_path
    ):
        # Jobs 1 and 4 are the parent's own. Job 1 waits until the child has started every
        # claimed job, so the child runs them all, one after another in claim order.
        give, take = handoff
        parent, log = os.getpid(), tmp_path / "log"
        order = [5, 0, 3, 2]

        def job(i):
            with open(log, "a") as fh:
                fh.write(f"{'parent' if os.getpid() == parent else 'child'} {i}\n")
            if os.getpid() != parent:
                give()
            elif i == 1:
                for _ in order:
                    take()
            return i

        cpus(2)
        assert report._fan_out(_jobs(job, 6), order, 2) == list(range(6))
        lines = log.read_text().splitlines()
        assert [line for line in lines if line.startswith("parent")] == ["parent 1", "parent 4"]
        assert [line for line in lines if line.startswith("child")] == [
            f"child {i}" for i in order]


_RUN_PINNED = """
import os, sys
from sorimir import _kernels, cli, report
_kernels._cpu_count = lambda: int(sys.argv[1])
if sys.argv[2] == "lowered":  # every job repays a fork
    report.MIN_SHARE_OCCURRENCES = 0
fork = os.fork
def counted():  # the parent adds a line to `forks` for each child it forks
    pid = fork()
    if pid:
        with open("forks", "a") as fh:
            fh.write("fork\\n")
    return pid
os.fork = counted
sys.exit(cli.main(sys.argv[3:]))
"""


def _run_pinned(manifest, cwd: Path, count: int, lowered: bool = True, flags=()) -> tuple:
    """`sorimir run` in a fresh interpreter, started with the options `flags`, whose process may
    use `count` CPUs, writing `out` in `cwd`: its exit code, stdout, stderr, `{name: bytes}` of
    `out`, and how many children it forked. If `lowered`, every job repays a fork."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(sorimir.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, *flags, "-c", _RUN_PINNED, str(count),
         "lowered" if lowered else "measured",
         "run", "--manifest", str(manifest), "--out-dir", "out"],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    out, forks = cwd / "out", cwd / "forks"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    forked = len(forks.read_text().splitlines()) if forks.exists() else 0
    return done.returncode, done.stdout, done.stderr, files, forked


def test_run_is_byte_identical_on_one_two_and_three_cpus(fixtures_dir, tmp_path):
    manifest = _manifest(fixtures_dir, tmp_path, PATTERNS)
    runs = {count: _run_pinned(manifest, tmp_path / f"cpus{count}", count)[:4] for count in (1, 2, 3)}
    assert runs[1] == runs[2] == runs[3]
    code, stdout, stderr, files = runs[1]
    assert code == 0
    assert json.loads(stdout)["contour_sets"] == {PAIR: 2, PAST_20: 0, THREE: 1, PAST_25: 0, PAST_22: 0}
    assert len(files) == 2 * (2 + 1 + 3 * len(PATTERNS))  # histogram x2, patterns.json, 3 a pattern
    # The warnings reach the CLI's stderr in pattern order, each text once.
    warned = [line for line in stderr.decode().splitlines() if "UserWarning" in line]
    assert [line.split("beat ")[1].split(" ")[0] for line in warned] == ["20.0", "25.0", "22.0"]


def _json_line(capsys, manifest, out_dir) -> dict:
    return _error_of(capsys, ["run", "--manifest", str(manifest), "--out-dir", str(out_dir)])


def _error_of(capsys, argv: list[str]) -> dict:
    """The error of the command line `argv`, which must fail with one JSON line and exit 1."""
    code = main(argv)
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
    capsys, cpus, handoff, fixtures_dir, tmp_path, monkeypatch, failing, settings, message
):
    # PAST_25 warns and places nothing, so it renders no contour and passes even at 10**15
    # samples; the failing job comes next. PAIR, the heaviest, fails too under 10**15, later.
    patterns = [PAST_25, failing, PAIR, THREE, "G4:1/1 E4:3/2"]
    manifest = _manifest(fixtures_dir, tmp_path, patterns, **settings)
    cpus(1)
    lines = [_json_line(capsys, manifest, tmp_path / "out1")]
    # The parent claims nothing until a child has started the failing job, which it claims
    # after the warning job: both run in children, not in the parent.
    give, take = handoff
    parent, artifacts = os.getpid(), report.pattern_artifacts

    def signalling(index, pattern_text, *args):
        if pattern_text == failing and os.getpid() != parent:
            give()
        return artifacts(index, pattern_text, *args)

    monkeypatch.setattr(report, "pattern_artifacts", signalling)
    _gate(monkeypatch, "contours", take)
    for count in (2, 3):
        cpus(count)
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert lines[0]["type"] == "PipelineError" and lines[0]["message"].startswith(message)
    assert lines[0]["warnings"] == [
        "occurrence at meter-12-8 beat 25.0 runs past the annotated grid; skipped"
    ]


def test_the_first_failing_job_drops_the_later_warnings_and_errors(capsys, cpus, fixtures_dir,
                                                                   tmp_path, monkeypatch):
    # The histogram job, the heaviest and the first claimed, fails first in job order; the
    # later warnings and errors (PAIR and THREE fail at 10**15 samples) are dropped.
    def failing(f0_hist, score_hist):
        raise IncompatibleHistogramError("boom")

    monkeypatch.setattr(report, "render_histogram_figure", failing)
    manifest = _manifest(fixtures_dir, tmp_path, [PAIR, PAST_20, THREE, PAST_22],
                         samples_per_contour=10**15)
    lines = []
    for count in (1, 2, 3):
        cpus(count)
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert "warnings" not in lines[0]
    assert lines[0]["message"] == "stage 'histogram' failed for daemok 'meter-12-8': boom"


def test_a_child_that_dies_is_one_json_line(capsys, cpus, handoff, fixtures_dir, tmp_path,
                                            monkeypatch):
    cpus(2)
    give, take = handoff
    parent, artifacts = os.getpid(), report.pattern_artifacts

    def dying(*args):
        if os.getpid() != parent:
            give()
            os._exit(9)
        return artifacts(*args)

    monkeypatch.setattr(report, "pattern_artifacts", dying)
    _gate(monkeypatch, "contours", take)
    manifest = _manifest(fixtures_dir, tmp_path, PATTERNS)
    assert _json_line(capsys, manifest, tmp_path / "out") == {
        "type": "PipelineError",
        "message": "stage 'contours' failed for daemok '*': a worker process ended with exit "
                   "code 9 before it returned its results",
    }  # at the child's first contour job, PAIR, the heaviest: no warning comes before it
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [2, 3])
def test_a_worker_that_dies_is_named_at_the_job_it_was_running(capsys, cpus, handoff,
                                                                 fixtures_dir, tmp_path,
                                                                 monkeypatch, count):
    # The parent claims nothing until a child has started d4's histogram job, the last claimed
    # but `patterns.json`; on two CPUs the one child has reported every job claimed before it.
    give, take = handoff
    parent, record = os.getpid(), report.histogram_record

    def dying(daemok_id, *args):
        warnings.warn(f"histogram of {daemok_id}")
        if daemok_id == "d4" and os.getpid() != parent:
            give()
            os._exit(9)
        return record(daemok_id, *args)

    monkeypatch.setattr(report, "histogram_record", dying)
    _gate(monkeypatch, "histogram", take)
    manifest = _mixed(fixtures_dir, tmp_path)
    cpus(count)
    assert _json_line(capsys, manifest, tmp_path / "out") == {
        "type": "PipelineError",
        "warnings": ["histogram of d1", "histogram of d2", "histogram of d3"],
        "message": "stage 'histogram' failed for daemok 'd4': a worker process ended with exit "
                   "code 9 before it returned its results",
    }
    assert not (tmp_path / "out").exists()


def _jobs(job, count: int) -> list[tuple]:
    """`job(0)` to `job(count - 1)` as `_fan_out` jobs, job i under stage `job` of daemok `di`."""
    return [("job", f"d{i}", partial(job, i)) for i in range(count)]


def test_an_error_of_the_parents_own_kills_and_reaps_every_child(cpus, handoff):
    # Job 0, the parent's own, raises once both children run a claimed job, which never ends.
    give, take = handoff
    parent, never = os.getpid(), os.pipe()

    def job(i):
        if os.getpid() == parent:
            take()
            take()
            raise KeyboardInterrupt
        give()
        select.select([never[0]], [], [], 60)  # killed long before

    cpus(3)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            report._fan_out(_jobs(job, 3), [1, 2], 3)
    finally:
        os.close(never[0])
        os.close(never[1])
    assert time.monotonic() - start < 30  # the no_child_process_left fixture checks the reaping


@pytest.mark.parametrize("failing", [{2}, {1, 2}])
def test_a_fork_that_fails_leaves_one_process_fewer(cpus, monkeypatch, failing):
    fork, calls, forked = os.fork, [], []

    def flaky():
        calls.append(None)
        if len(calls) in failing:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forked.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", flaky)
    cpus(3)
    assert report._fan_out(_jobs(lambda i: i * i, 6), [5, 4, 3, 2, 1], 3) == [
        0, 1, 4, 9, 16, 25]
    assert len(calls) == 2 and len(forked) == 2 - len(failing)


def test_results_and_warnings_come_back_in_job_order(cpus, handoff, recwarn):
    # Job 0, the parent's own, waits until the child has run a claimed job.
    give, take = handoff

    def job(i):
        warnings.warn(f"job {i} from {'parent' if os.getpid() == parent else 'child'}")
        if os.getpid() != parent:
            give()
        elif i == 0:
            take()
        return i * i

    parent = os.getpid()
    cpus(2)
    assert report._fan_out(_jobs(job, 5), [4, 3, 2, 1], 2) == [0, 1, 4, 9, 16]
    texts = [str(w.message) for w in recwarn]
    assert [t.split(" from ")[0] for t in texts] == [f"job {i}" for i in range(5)]
    assert texts[0] == "job 0 from parent" and "job 4 from child" in texts


def test_each_job_runs_once_whoever_claims_it(cpus, tmp_path, recwarn):
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def job(i):
        os.write(log, f"{i}\n".encode())  # one write, appended whole
        warnings.warn(f"job {i}")
        return i * i

    cpus(3)
    try:
        results = report._fan_out(_jobs(job, 500), list(range(500)), 3)
    finally:
        os.close(log)
    assert results == [i * i for i in range(500)]
    assert sorted(map(int, (tmp_path / "log").read_text().split())) == list(range(500))
    assert [str(w.message) for w in recwarn] == [f"job {i}" for i in range(500)]


def test_a_child_that_dies_holding_the_claim_lock_hangs_nobody(cpus, handoff, monkeypatch):
    # Each child dies on its first claim, with the lock held: the kernel drops the lock, and
    # the parent, once its own job 0 is done, claims and runs every job.
    import fcntl

    give, take = handoff
    parent, lockf = os.getpid(), fcntl.lockf

    def dying(fd, cmd, *args):
        lockf(fd, cmd, *args)
        if cmd == fcntl.LOCK_EX and os.getpid() != parent:
            give()
            os._exit(7)

    def job(i):
        if i == 0:
            take()
            take()
        return -i

    monkeypatch.setattr(fcntl, "lockf", dying)
    cpus(3)
    start = time.monotonic()
    assert report._fan_out(_jobs(job, 5), [4, 3, 2, 1], 3) == [0, -1, -2, -3, -4]
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("ending", ["error", "interrupt", "death", "none"])
def test_the_gc_is_frozen_only_while_children_run(cpus, handoff, ending):
    give, take = handoff
    parent, frozen = os.getpid(), []

    def job(i):
        if os.getpid() != parent:
            give()
            if ending == "death":
                os._exit(5)
            return i
        frozen.append(gc.get_freeze_count())
        if i == 0:
            take()  # the child has claimed job 1
            if ending == "error":
                raise ValueError("own")
            if ending == "interrupt":
                raise KeyboardInterrupt
        return i

    cpus(2)
    raised = {"error": PipelineError, "interrupt": KeyboardInterrupt, "death": PipelineError}
    if ending in raised:
        with pytest.raises(raised[ending]):
            report._fan_out(_jobs(job, 3), [1, 2], 2)
    else:
        assert report._fan_out(_jobs(job, 3), [1, 2], 2) == [0, 1, 2]
    assert frozen[0] > 0 and gc.get_freeze_count() == 0


@pytest.mark.parametrize("serial", ["one cpu", "another thread"])
def test_the_serial_path_runs_the_jobs_in_job_order_and_nothing_else(cpus, forks, monkeypatch,
                                                                     serial):
    def untouched(*args, **kwargs):
        raise AssertionError("the serial path opened a claims file or froze the GC")

    for module, name in ((report.tempfile, "TemporaryFile"), (gc, "freeze"), (gc, "unfreeze")):
        monkeypatch.setattr(module, name, untouched)
    ran = []
    cpus(1 if serial == "one cpu" else 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if serial == "another thread":
        thread.start()
    try:
        assert report._fan_out(_jobs(lambda i: ran.append(i) or i, 5), [4, 3, 2, 1, 0], 3) == [
            0, 1, 2, 3, 4]
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(10)
    assert ran == [0, 1, 2, 3, 4] and not forks


# Inputs that fail to load, each at the stage of its entry key.
_BAD = {"score": "<score-partwise", "beats": "measure,beat,time\n", "f0_csv": "not,an,f0,csv\n",
        "audio": "not a wav"}


def _mixed(fixtures_dir, tmp_path, bad=()) -> Path:
    """A manifest of four copies of the fixture daemok, d1 to d4, of which d3 reads a WAV tone
    instead of the F0 CSV. Each `(daemok id, entry key)` of `bad` gets an input that fails."""
    from scipy.io import wavfile

    manifest = json.loads((fixtures_dir / "manifest.json").read_text())
    entry = {k: v if k == "id" else str(fixtures_dir / v) for k, v in manifest["daemok"][0].items()}
    wav = tmp_path / "tone.wav"
    t = np.arange(22050) / 22050
    wavfile.write(wav, 22050, (0.5 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(np.int16))
    manifest["daemok"] = []
    for daemok_id in ("d1", "d2", "d3", "d4"):
        copy = {**entry, "id": daemok_id}
        if daemok_id == "d3":
            del copy["f0_csv"]
            copy["audio"] = str(wav)
        for key in (key for bad_id, key in bad if bad_id == daemok_id):
            (tmp_path / f"{daemok_id}.{key}").write_text(_BAD[key])
            copy[key] = str(tmp_path / f"{daemok_id}.{key}")
        manifest["daemok"].append(copy)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("bad, stage, daemok_id", [
    ((("d1", "f0_csv"), ("d2", "score")), "f0", "d1"),
    ((("d1", "score"), ("d2", "f0_csv")), "score", "d1"),
    ((("d2", "beats"), ("d2", "f0_csv")), "beats", "d2"),
    ((("d4", "f0_csv"),), "f0", "d4"),  # the reader's own error, sent over its pipe
    ((("d3", "audio"), ("d4", "f0_csv")), "f0", "d3"),  # audio is decoded in the parent
])
def test_the_first_error_in_serial_order_wins(capsys, cpus, forks, fixtures_dir, tmp_path, bad,
                                              stage, daemok_id):
    manifest = _mixed(fixtures_dir, tmp_path, bad)
    lines = []
    for count in (1, 2):
        cpus(count)
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert len(forks) == count - 1  # the F0 reader, on two CPUs only
    assert lines[0] == lines[1]
    assert lines[0]["message"].startswith(f"stage '{stage}' failed for daemok '{daemok_id}'")


@pytest.mark.parametrize("mining_fails", [True, False])
def test_mining_fails_and_warns_before_the_histograms(capsys, cpus, fixtures_dir, tmp_path,
                                                      monkeypatch, mining_fails):
    mine_index, record = report.mine_index, report.histogram_record

    def mine(events_by_id, settings):
        warnings.warn("mined")
        if mining_fails:
            raise ValueError("no index")
        return mine_index(events_by_id, settings)

    def histogram(daemok_id, *args):
        warnings.warn(f"histogram of {daemok_id}")
        if daemok_id == "d2":
            raise ValueError("no histogram")
        return record(daemok_id, *args)

    monkeypatch.setattr(report, "mine_index", mine)
    monkeypatch.setattr(report, "histogram_record", histogram)
    manifest = _mixed(fixtures_dir, tmp_path)
    lines = []
    for count in (1, 2):
        cpus(count)
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
    assert lines[0] == lines[1]
    if mining_fails:
        assert lines[0] == {"type": "PipelineError", "warnings": ["mined"],
                            "message": "stage 'patterns' failed for daemok '*': no index"}
    else:
        assert lines[0] == {"type": "PipelineError",
                            "warnings": ["mined", "histogram of d1", "histogram of d2"],
                            "message": "stage 'histogram' failed for daemok 'd2': no histogram"}


def test_the_reader_gives_the_serial_corpus(cpus, forks, fixtures_dir, tmp_path):
    entries, settings = report.load_manifest(_mixed(fixtures_dir, tmp_path))
    cpus(1)
    events, grids, tracks, index = report.load_corpus(entries, settings)
    cpus(2)
    forked = report.load_corpus(entries, settings)
    assert len(forks) == 1 and list(forked[0]) == ["d1", "d2", "d3", "d4"]
    assert forked[0] == events and list(forked[1]) == list(grids) and list(forked[2]) == list(tracks)
    assert forked[3] == index and len(index) > 0
    for daemok_id, track in forked[2].items():
        assert track.hop_s == tracks[daemok_id].hop_s
        for name in ("f0_hz", "confidence"):
            sent, own = getattr(track, name), getattr(tracks[daemok_id], name)
            np.testing.assert_array_equal(sent, own)
            assert not sent.flags.writeable  # read-only, as a track built in this process


def test_a_score_error_waits_for_the_reader(capsys, cpus, forks, fixtures_dir, tmp_path,
                                           monkeypatch):
    # Every CSV import warns, and d2's score fails: the line holds the warning of d1's CSV.
    manifest = _mixed(fixtures_dir, tmp_path, [("d2", "score")])
    parent, import_csv, parse = os.getpid(), report.import_f0_csv, report.parse_musicxml

    def warning(text):
        warnings.warn("read a csv")
        return import_csv(text)

    monkeypatch.setattr(report, "import_f0_csv", warning)
    cpus(1)
    serial = _json_line(capsys, manifest, tmp_path / "out1")
    assert serial["warnings"] == ["read a csv"]
    assert serial["message"].startswith("stage 'score' failed for daemok 'd2'")

    # The reader starts d1's CSV, the first claimed, before the parent parses d1's score, and
    # reads it only once the parent has failed at d2's score.
    reading, failed, parsed = os.pipe(), os.pipe(), []

    def waiting(text):
        if os.getpid() != parent:
            os.write(reading[1], b"x")
            assert select.select([failed[0]], [], [], 30)[0]
        return warning(text)

    def parsing(data):
        if not parsed:  # d1's score
            assert select.select([reading[0]], [], [], 30)[0]
        parsed.append(None)
        try:
            return parse(data)
        except Exception:
            os.write(failed[1], b"x")
            raise

    monkeypatch.setattr(report, "import_f0_csv", waiting)
    monkeypatch.setattr(report, "parse_musicxml", parsing)
    cpus(2)
    try:
        assert _json_line(capsys, manifest, tmp_path / "out2") == serial
    finally:
        for fd in (*reading, *failed):
            os.close(fd)
    assert len(forks) == 1 and len(parsed) == 2


def test_a_reader_that_dies_is_one_json_line(capsys, cpus, fixtures_dir, tmp_path, monkeypatch):
    cpus(2)
    parent, import_csv = os.getpid(), report.import_f0_csv

    def dying(text):
        if os.getpid() != parent:
            os._exit(3)
        return import_csv(text)

    monkeypatch.setattr(report, "import_f0_csv", dying)
    manifest = _mixed(fixtures_dir, tmp_path)
    assert _json_line(capsys, manifest, tmp_path / "out") == {
        "type": "PipelineError",
        "message": "stage 'f0' failed for daemok 'd1': a worker process ended with exit code 3 "
                   "before it returned its results",
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [2, 3])
def test_a_reader_that_dies_is_named_at_the_csv_it_was_reading(capsys, cpus, forks, handoff,
                                                                fixtures_dir, tmp_path,
                                                                monkeypatch, count):
    # d4 reads the first 1,000 lines of the fixture CSV, so its import is told apart. The
    # parent claims no CSV until a reader has started d4's, after d1's and d2's.
    manifest = _mixed(fixtures_dir, tmp_path)
    data = json.loads(manifest.read_text())
    lines = (fixtures_dir / "sample.f0.csv").read_text().splitlines(keepends=True)
    (tmp_path / "d4.f0.csv").write_text("".join(lines[:1000]))
    data["daemok"][3]["f0_csv"] = str(tmp_path / "d4.f0.csv")
    manifest.write_text(json.dumps(data))
    give, take = handoff
    parent, import_csv = os.getpid(), report.import_f0_csv

    def dying(text):
        if os.getpid() != parent and len(text.splitlines()) == 1000:
            give()
            os._exit(3)
        return import_csv(text)

    monkeypatch.setattr(report, "import_f0_csv", dying)
    _gate(monkeypatch, "f0", take)
    cpus(count)
    assert _json_line(capsys, manifest, tmp_path / "out") == {
        "type": "PipelineError",
        "message": "stage 'f0' failed for daemok 'd4': a worker process ended with exit code 3 "
                   "before it returned its results",
    }
    assert len(forks) == count - 1 and not (tmp_path / "out").exists()


def test_an_unreadable_csv_fails_at_f0_through_the_reader(capsys, cpus, forks, fixtures_dir,
                                                          tmp_path):
    # `patterns contours` hashes no input first (it has no `inputs` stage): the F0 job is the
    # first to open d2's CSV, which is missing.
    manifest = _mixed(fixtures_dir, tmp_path)
    data = json.loads(manifest.read_text())
    data["daemok"][1]["f0_csv"] = str(tmp_path / "missing.f0.csv")
    manifest.write_text(json.dumps(data))
    lines = []
    for count in (1, 2):
        cpus(count)
        lines.append(_error_of(capsys, ["patterns", "contours", "--manifest", str(manifest),
                                        "--pattern", "A4:2/1 C5:2/1"]))
        assert len(forks) == count - 1  # the F0 reader, on two CPUs only
    assert lines[0] == lines[1]
    assert lines[0]["message"].startswith("stage 'f0' failed for daemok 'd2': [Errno 2]")


def test_one_daemok_forks_one_reader_and_is_byte_identical(fixtures_dir, manifest_path, tmp_path):
    # The fixture's 32 KB of F0 CSV: any CSV is read in a forked reader where a fork can pay.
    runs = {count: _run_pinned(manifest_path, tmp_path / f"cpus{count}", count, lowered=False)
            for count in (1, 2)}
    assert {count: run[4] for count, run in runs.items()} == {1: 0, 2: 1}
    assert runs[1][:4] == runs[2][:4]
    assert runs[1][0] == 0 and len(runs[1][3]) == 2 * (2 + 1 + 3)


def test_a_corpus_that_splits_every_stage_is_byte_identical_on_one_two_and_three_cpus(
    capsys, cpus, fixtures_dir, tmp_path, monkeypatch
):
    # 40 copies of the fixture daemok: 40 F0 CSVs, read by one reader a CPU but one, and output
    # jobs that one process a CPU claims at the measured thresholds (160 in histograms, 80
    # occurrences).
    manifest = _manifest_of_copies(fixtures_dir, tmp_path, [f"copy-{i:02d}" for i in range(40)])
    runs = {count: _run_pinned(manifest, tmp_path / f"cpus{count}", count, lowered=False)
            for count in (1, 2, 3)}
    # Each fan-out forks a child a CPU but one: the readers, then the output stages' children.
    assert {count: run[4] for count, run in runs.items()} == {1: 0, 2: 2, 3: 4}
    assert runs[1][:4] == runs[2][:4] == runs[3][:4]
    code, stdout, _, files, _ = runs[1]
    assert code == 0 and len(files) == 2 * (2 * 40 + 1 + 3)
    assert json.loads(stdout)["contour_sets"] == {"A4:2/1 C5:2/1": 80}

    # One CPU is the serial path, whatever the thresholds: nothing is forked.
    def no_fork():
        raise AssertionError("forked on one CPU")

    cpus(1)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.chdir(tmp_path / "cpus1")
    assert main(["run", "--manifest", str(manifest), "--out-dir", "serial"]) == 0
    assert capsys.readouterr().out.encode() == stdout.replace(b'"out/', b'"serial/')
    assert {p.name: p.read_bytes() for p in sorted(Path("serial").iterdir())} == files


def _manifest_of_copies(fixtures_dir, tmp_path, ids) -> Path:
    """The fixture manifest with its one daemok's inputs repeated under each of `ids`."""
    manifest = json.loads((fixtures_dir / "manifest.json").read_text())
    entry = {k: v if k == "id" else str(fixtures_dir / v) for k, v in manifest["daemok"][0].items()}
    manifest["daemok"] = [{**entry, "id": daemok_id} for daemok_id in ids]
    path = tmp_path / "copies.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("seed", range(5))
def test_jobs_of_random_lengths_give_the_serial_bytes(capsys, cpus, fixtures_dir, tmp_path,
                                                      monkeypatch, seed):
    # Every job of both fan-outs first sleeps 0-5 ms, drawn from `seed`: claims then fall to
    # other processes, in other orders, from one seed to the next.
    manifest = _manifest(fixtures_dir, tmp_path, PATTERNS, copies=3)
    fan_out = report._fan_out

    def jittered(jobs, order, processes):
        rng = random.Random(f"{seed}-{len(jobs)}")
        return fan_out([(stage, daemok_id, partial(_after, rng.uniform(0, 0.005), run))
                        for stage, daemok_id, run in jobs], order, processes)

    monkeypatch.setattr(report, "_fan_out", jittered)
    runs = []
    for count in (1, 2, 3):
        cpus(count)
        monkeypatch.chdir((tmp_path / f"cpus{count}").mkdir() or tmp_path / f"cpus{count}")
        with warnings.catch_warnings(record=True) as caught:  # what stderr would show
            warnings.simplefilter("default")
            code = main(["run", "--manifest", str(manifest), "--out-dir", "out"])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, [str(w.message) for w in caught],
                     {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}))
    assert runs[0] == runs[1] == runs[2]
    code, _, stderr, warned, files = runs[0]
    assert code == 0 and stderr == "" and len(files) == 2 * (3 * 2 + 1 + 3 * len(PATTERNS))
    # Each daemok's past-grid texts once, daemok by daemok within each pattern, in pattern order.
    assert [w.removeprefix("occurrence at ").split(" runs")[0] for w in warned] == [
        f"meter-12-8-{i} beat {beat}" for beat in ("20.0", "25.0", "22.0") for i in (1, 2, 3)]


def _after(delay: float, run):
    time.sleep(delay)
    return run()


def test_a_forked_run_closes_every_file_it_opens(manifest_path, tmp_path):
    # Under -X dev, an unclosed claims or results file is a ResourceWarning, here an error that
    # is printed to stderr.
    code, stdout, stderr, files, forked = _run_pinned(
        manifest_path, tmp_path / "dev", 2, flags=("-X", "dev", "-W", "error::ResourceWarning"))
    assert (code, stderr, forked) == (0, b"", 2)  # the F0 reader, and an output stages' child
    assert json.loads(stdout)["ok"] and len(files) == 2 * (2 + 1 + 3)


def test_the_fan_out_is_the_only_place_that_forks():
    """`sorimir` calls `os.fork` once, in `_fan_out`, so no second fork path grows back."""
    calls = []
    for path in sorted(Path(sorimir.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # id of a node -> the innermost function around it (ast.walk goes outside in)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        calls += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "fork"]
    assert calls == [("report.py", "_fan_out")]
