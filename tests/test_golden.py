"""Every artifact of the fixture manifests, sidecars included, against its committed sha256.

`fixtures/golden.sha256.json` maps each fixture manifest to `{output file name: sha256}`. A
change that alters output bytes on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed artifacts in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from sorimir.report import run_pipeline

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.sha256.json"
MANIFESTS = ("manifest.json", "meter-10-8.manifest.json", "meter-12-8.manifest.json",
             "pickup-12-4.manifest.json")


def digests(manifest: str, out_dir: Path) -> dict:
    """`{output file name: sha256}` of one `run_pipeline` of `manifest` into `out_dir`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the past-grid warnings; their text is tested elsewhere
        outputs = run_pipeline(FIXTURES / manifest, out_dir=out_dir)["outputs"]
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(outputs)}


@pytest.mark.parametrize("manifest", MANIFESTS)
def test_every_artifact_matches_its_golden_digest(manifest, tmp_path):
    golden = json.loads(GOLDEN.read_text())[manifest]
    found = digests(manifest, tmp_path / "out")
    changed = sorted(name for name in golden.keys() | found.keys()
                     if golden.get(name) != found.get(name))
    assert not changed, f"{manifest}: artifacts differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {m: digests(m, Path(tmp) / str(i)) for i, m in enumerate(MANIFESTS)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
