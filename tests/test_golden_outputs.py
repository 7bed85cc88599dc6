"""Byte identity of every command of `tools/same_outputs.py`.

Each case runs in-process through `cli.main`, in a fresh temporary
directory of its own so the relative paths keep the config sha256, and its
exit code, the SHA-256 of its stdout and of its --out file (each without
`wall time:` lines) and, for a `check` that asks for contractivity, the
`repr` of the library's bound are compared with `tests/golden/outputs.json`.

The digests hold for the numpy and BLAS builds recorded beside them.  The
comparison is by bytes on every stack; on another build a failure names
both stacks, and `python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC`
compares two trees on that build instead.  After an intended output change,
re-record with `python3 tools/same_outputs.py --record
tests/golden/outputs.json` and list every changed command in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402

GOLDEN = json.loads((ROOT / "tests" / "golden" / "outputs.json").read_text(encoding="utf-8"))
CASES = list(same_outputs.cases())


def test_every_command_is_recorded():
    assert sorted(name for name, _, _ in CASES) == sorted(GOLDEN["commands"])


@pytest.mark.parametrize("name, argv, text", CASES, ids=[name for name, _, _ in CASES])
def test_outputs_match_the_recorded_digests(name, argv, text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = same_outputs.digests(same_outputs.run_here(argv, text))
    recorded = {key: GOLDEN[key] for key in ("numpy", "blas")}
    assert got == GOLDEN["commands"][name], f"recorded on {recorded}, running on {same_outputs.stack()}"
