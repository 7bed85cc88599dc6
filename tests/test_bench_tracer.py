"""The benchmark's tracer (bench/tracer.py) wraps library functions by name,
so renaming or deleting one of them breaks traced runs.  A traced `check`
and a traced `sample` must still run and record spans."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "verb, config", [("check", "jorgensen-pedersen-check.json"), ("sample", "planar-sample.json")]
)
def test_traced_cli_run_finds_every_patched_name(tmp_path, verb, config):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), verb,
            "--config", str(ROOT / "configs" / config)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert spans.stat().st_size > 0
    assert json.loads(spans.read_text())["spans"]
