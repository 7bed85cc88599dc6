"""Peak RSS of a `check` series walk over example-2.6 to level 200.

The walk's levels are cached only up to the digit budget, so the process
should end up barely larger than one that only imports the CLI.  Each child's
ru_maxrss is read through os.wait4, as bench/run.py reads it.  A child starts
its ru_maxrss at its parent's high-water mark, and the test process may be
large, so both children are spawned from a small runner process.

Measured on a 2-CPU machine (Python 3.11, numpy 2.4): with a per-level cache
test (every level of up to 10k digits kept) the walk's child peaked 10.8 MB
above the import-only child; with the shared digit budget, 4.5 MB above it.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND_MB = 7.5

_RUNNER = r"""
import os, subprocess, sys

def peak_kb(argv):
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss

print(peak_kb([sys.executable, "-c", "import convspectra.cli"]),
      peak_kb([sys.executable, "-m", "convspectra", "check", "--config", sys.argv[1]]))
"""


def test_a_series_walk_to_200_stays_near_import_rss(tmp_path):
    cfg = tmp_path / "check.json"
    checks = ["equivalence", "rbc", "pcc", "contractivity"]
    doc = {"dimension": 2, "sequence": {"generator": "example-2.6"},
           "check": {"upto": 200, "checks": checks}}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported, walked = (int(v) / 1024 for v in proc.stdout.split())
    assert walked - imported < BOUND_MB, (imported, walked)
