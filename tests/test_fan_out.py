"""`run`'s forked work, the F0 reader beside the score parse and the output stages split over
processes: the same outputs and errors on any CPU count."""

import ast
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sorimir
from sorimir import _kernels, report
from sorimir.cli import main
from sorimir.errors import IncompatibleHistogramError
from sorimir.patterns import NGramPattern

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


# The output fan-out of a one-daemok manifest: the `patterns.json` job, its histogram job, then
# one job per contour pattern from this index on.
FIRST_PATTERN = 2


def _weights(manifest) -> list[int]:
    """The weight of each job of `run`'s output fan-out, as `run` weighs them: the
    `patterns.json` job, one histogram job per daemok, then each contour pattern's support."""
    entries, settings = report.load_manifest(manifest)
    index = report.load_corpus(entries, settings)[3]
    rows = sum(map(len, index.occurrences.values()))
    return ([rows // report.ROWS_PER_OCCURRENCE] + [report.HISTOGRAM_WEIGHT] * len(entries)
            + [index.support(NGramPattern.from_text(p)) for p in settings["contour_patterns"]])


@pytest.fixture
def cpus(monkeypatch):
    """`pin(n)`: the process may use n CPUs, every job repays a fork and any F0 CSV the reader."""
    monkeypatch.setattr(report, "MIN_SHARE_OCCURRENCES", 0)
    monkeypatch.setattr(report, "MIN_READER_BYTES", 0)
    return lambda n: monkeypatch.setattr(_kernels, "_cpu_count", lambda: n)


@pytest.fixture
def forks(monkeypatch) -> list:
    """Every child this process forks from now on, as a list that grows by one for each."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())
    return forked


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
        (2, [4, 4, 0, 3, 3], 1),  # wav_long: 2 histograms, patterns.json, 6 occurrences
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
import os, sys
from sorimir import _kernels, cli, report
_kernels._cpu_count = lambda: int(sys.argv[1])
if sys.argv[2] == "lowered":  # every job repays a fork, and any F0 CSV the reader
    report.MIN_SHARE_OCCURRENCES = report.MIN_READER_BYTES = 0
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


def _run_pinned(manifest, cwd: Path, count: int, lowered: bool = True) -> tuple:
    """`sorimir run` in a fresh interpreter whose process may use `count` CPUs, writing `out`
    in `cwd`: its exit code, stdout, stderr, `{name: bytes}` of `out`, and how many children it
    forked. If `lowered`, every job repays a fork and any F0 CSV the reader."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(sorimir.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_PINNED, str(count), "lowered" if lowered else "measured",
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
            shares = report._shares(_weights(manifest))
            assert {FIRST_PATTERN, FIRST_PATTERN + 1}.isdisjoint(shares[0])
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert lines[0]["type"] == "PipelineError" and lines[0]["message"].startswith(message)
    assert lines[0]["warnings"] == [
        "occurrence at meter-12-8 beat 25.0 runs past the annotated grid; skipped"
    ]


def test_a_failure_in_the_parents_share_waits_for_the_children(capsys, cpus, fixtures_dir,
                                                               tmp_path, monkeypatch):
    # The histogram job, the heaviest, runs in the parent and fails first; the children's
    # later warnings and errors (PAIR and THREE fail at 10**15 samples) are dropped.
    def failing(f0_hist, score_hist):
        raise IncompatibleHistogramError("boom")

    monkeypatch.setattr(report, "render_histogram_figure", failing)
    manifest = _manifest(fixtures_dir, tmp_path, [PAIR, PAST_20, THREE, PAST_22],
                         samples_per_contour=10**15)
    lines = []
    for count in (1, 2, 3):
        cpus(count)
        shares = report._shares(_weights(manifest))
        assert len(shares) == count and 1 in shares[0]
        lines.append(_json_line(capsys, manifest, tmp_path / f"out{count}"))
        assert not (tmp_path / f"out{count}").exists()
    assert lines[0] == lines[1] == lines[2]
    assert "warnings" not in lines[0]
    assert lines[0]["message"] == "stage 'histogram' failed for daemok 'meter-12-8': boom"


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
    }  # at the child's first job, `patterns.json`: no warning comes before it
    assert not (tmp_path / "out").exists()


def test_an_error_of_the_parents_own_kills_and_reaps_every_child():
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        report._fan_out(job, [[0], [1], [2]])
    assert time.monotonic() - start < 30  # the no_child_process_left fixture checks the reaping


def test_results_and_warnings_come_back_in_job_order(recwarn):
    def job(i):
        warnings.warn(f"job {i} from {'parent' if os.getpid() == parent else 'child'}")
        return i * i

    parent = os.getpid()
    assert report._fan_out(job, [[0], [1, 4], [2, 3]]) == [0, 1, 4, 9, 16]
    texts = [str(w.message) for w in recwarn]
    assert [t.split(" from ")[0] for t in texts] == [f"job {i}" for i in range(5)]
    assert {t.split(" from ")[1] for t in texts} == {"parent", "child"}


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


def test_a_score_error_waits_for_a_slow_reader(capsys, cpus, forks, fixtures_dir, tmp_path,
                                               monkeypatch):
    manifest = _mixed(fixtures_dir, tmp_path, [("d2", "score")])
    cpus(1)
    serial = _json_line(capsys, manifest, tmp_path / "out1")
    cpus(2)
    parent, import_csv = os.getpid(), report.import_f0_csv

    def slow(text):
        if os.getpid() != parent:
            time.sleep(0.2)  # three CSVs: the parent fails long before the reader is done
        return import_csv(text)

    monkeypatch.setattr(report, "import_f0_csv", slow)
    start = time.monotonic()
    assert _json_line(capsys, manifest, tmp_path / "out2") == serial
    assert time.monotonic() - start >= 0.5  # the no_child_process_left fixture checks the reaping
    assert len(forks) == 1
    assert serial["message"].startswith("stage 'score' failed for daemok 'd2'")


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


def test_a_corpus_that_splits_every_stage_is_byte_identical_on_one_two_and_three_cpus(
    capsys, cpus, fixtures_dir, tmp_path, monkeypatch
):
    # 40 copies of the fixture daemok: 1.3 MB of F0 CSV, enough for the reader, and output
    # jobs that split three ways at the measured thresholds (160 in histograms, 80 occurrences).
    manifest = _manifest_of_copies(fixtures_dir, tmp_path, [f"copy-{i:02d}" for i in range(40)])
    runs = {count: _run_pinned(manifest, tmp_path / f"cpus{count}", count, lowered=False)
            for count in (1, 2, 3)}
    assert {count: run[4] for count, run in runs.items()} == {1: 0, 2: 2, 3: 3}  # reader + shares
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
