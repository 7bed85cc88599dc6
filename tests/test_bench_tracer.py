"""The benchmark's tracer (bench/tracer.py) wraps library functions by name,
so renaming or deleting one of them breaks traced runs.  A traced `check`,
`sample`, `spectrum`, `qscan` and `equipos` must still run and record spans."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, verb, config, *extra):
    """Run `convspectra verb --config configs/<config>` under the tracer in
    tmp_path; returns the process and the names of the recorded spans."""
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), verb,
            "--config", str(ROOT / "configs" / config), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert spans.stat().st_size > 0
    return proc, {span[0] for span in json.loads(spans.read_text())["spans"]}


@pytest.mark.parametrize(
    "verb, config", [("check", "jorgensen-pedersen-check.json"), ("sample", "planar-sample.json")]
)
def test_traced_cli_run_finds_every_patched_name(tmp_path, verb, config):
    _, names = traced(tmp_path, verb, config)
    assert names


def test_traced_spectrum_run_finds_every_patched_name(tmp_path):
    levels = tmp_path / "levels.txt"
    _, names = traced(tmp_path, "spectrum", "jorgensen-pedersen-spectrum.json", "--out", str(levels))
    assert levels.read_text().startswith("# spectrum dim=1")
    assert {"spectra.build_spectrum", "triples.hadamard_check"} <= names


def test_traced_qscan_run_records_the_q_evaluations(tmp_path):
    # the tracer counts len(lambda_set) of every q_eval_many call
    csv = tmp_path / "q.csv"
    _, names = traced(tmp_path, "qscan", "jorgensen-pedersen-qscan.json", "--out", str(csv))
    assert csv.read_text().startswith("xi1,q\n")
    assert "spectra.q_eval_many" in names


def test_traced_equipos_run_records_the_scan(tmp_path):
    # the tracer's scan count calls spectra._ball_grid
    proc, names = traced(tmp_path, "equipos", "example-2.6-equipos.json")
    assert "overall:" in proc.stdout
    assert "spectra.equi_positivity_scan" in names
