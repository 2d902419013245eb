"""The recorded outputs of the package's commands, as a standing check.

outputs_manifest.json holds the SHA-256 of every file that tools/outputs.py
writes, with the numpy version and the platform they were made on: the
bytes are claimed only there.  A change that moves an output on purpose
writes the manifest again in the same commit, and the manifest's diff shows
which files moved:

    PYTHONPATH=src python tests/test_outputs.py
"""

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

MANIFEST = Path(__file__).with_name("outputs_manifest.json")
OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def _made_on() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}"}


def manifest(directory: Path) -> dict:
    """The manifest of tools/outputs.py run into directory."""
    spec = importlib.util.spec_from_file_location("outputs", OUTPUTS)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    outputs.write_outputs(directory)
    return {**_made_on(), "files": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                                    for path in sorted(directory.iterdir())}}


def test_outputs_match_the_manifest(tmp_path):
    recorded = json.loads(MANIFEST.read_text())
    made_on = {key: recorded[key] for key in _made_on()}
    if made_on != _made_on():
        pytest.skip(f"the manifest's bytes are claimed for {made_on}, not for {_made_on()}")
    files = manifest(tmp_path)["files"]
    moved = sorted(name for name in recorded["files"].keys() | files.keys()
                   if recorded["files"].get(name) != files.get(name))
    assert not moved, (
        f"{len(moved)} of {len(recorded['files'])} recorded outputs moved: {', '.join(moved)}. "
        "Run tools/outputs.py on the parent's tree and on this one, and tools/drift.py on the "
        "two directories for the magnitudes; a deliberate change writes the manifest again "
        "(PYTHONPATH=src python tests/test_outputs.py)")


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as out:
        MANIFEST.write_text(json.dumps(manifest(Path(out)), indent=2) + "\n")
