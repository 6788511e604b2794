import json
import threading
from pathlib import Path

import pytest

from sorimir import _kernels

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def sample_score_bytes() -> bytes:
    return (FIXTURES / "joongmori_sample.musicxml").read_bytes()


@pytest.fixture(scope="session")
def sample_score(sample_score_bytes):
    from sorimir.score import parse_musicxml

    return parse_musicxml(sample_score_bytes)


@pytest.fixture(scope="session")
def expected_fixture() -> dict:
    return json.loads((FIXTURES / "joongmori_sample.expected.json").read_text())


@pytest.fixture(scope="session")
def sample_grid():
    from sorimir.beat_grid import load_beats

    return load_beats((FIXTURES / "sample.beats.csv").read_text())


@pytest.fixture(scope="session")
def sample_track():
    from sorimir.pitch_track import import_f0_csv

    return import_f0_csv((FIXTURES / "sample.f0.csv").read_text())


@pytest.fixture(scope="session")
def manifest_path() -> Path:
    return FIXTURES / "manifest.json"


@pytest.fixture
def kernel_fails_on_second_block(monkeypatch):
    """Two YIN workers, and `_kernels._search` raising MemoryError on its second block."""
    search, calls, lock = _kernels._search, [], threading.Lock()

    def failing(*args):
        with lock:
            calls.append(None)
            second = len(calls) == 2
        if second:
            raise MemoryError("second block")
        return search(*args)

    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_kernels, "_search", failing)
    return calls
