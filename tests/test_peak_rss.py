"""Peak RSS of whole CLI commands, read through os.wait4 as bench/run.py
reads it.  A child starts its ru_maxrss at its parent's high-water mark, and
the test process may be large, so the children are spawned from a small
runner process.

A `check` series walk over example-2.6 to level 200 caches its levels only up
to the digit budget, so the process should end up barely larger than one
that only imports the CLI.  Measured on a 2-CPU machine (Python 3.11, numpy
2.4): with a per-level cache test (every level of up to 10k digits kept) the
walk's child peaked 10.8 MB above the import-only child; with the shared
digit budget, 4.5 MB above it.

A `qscan` sums |mu_hat|^2 over the candidates one run of grid points at a
time, so its peak should not grow with the number of candidates.  On the
same machine, the 16 384-point Jorgensen-Pedersen scans below over 16 and
1024 candidates peaked at 51.6 and 294.8 MB when each budgeted chunk of
points held its whole sum set, and at 43.7 and 44.8 MB in runs.

A `spectrum` with exactness bounds each level's Gram block by block (the
tower route), so it should peak about where the same command without
exactness does.  On the same machine, Jorgensen-Pedersen milestones 2..12
peaked about 5 MB above the run without exactness when every level's
difference sum set was walked in 4 MiB runs, and 0.2 MB above it by blocks.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND_MB = 7.5
QSCAN_SPREAD_MB = 8.0
EXACTNESS_SPREAD_MB = 2.0

_RUNNER = r"""
import json, os, subprocess, sys

def peak_kb(argv):
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss

print(*(peak_kb(argv) for argv in json.loads(sys.argv[1])))
"""


def child_peaks_mb(*argvs):
    """The peak RSS in MB of each command, run one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [int(v) / 1024 for v in proc.stdout.split()]


def cli(verb, cfg, *extra):
    return [sys.executable, "-m", "convspectra", verb, "--config", str(cfg), *extra]


def test_a_series_walk_to_200_stays_near_import_rss(tmp_path):
    cfg = tmp_path / "check.json"
    checks = ["equivalence", "rbc", "pcc", "contractivity"]
    doc = {"dimension": 2, "sequence": {"generator": "example-2.6"},
           "check": {"upto": 200, "checks": checks}}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    imported, walked = child_peaks_mb([sys.executable, "-c", "import convspectra.cli"], cli("check", cfg))
    assert walked - imported < BOUND_MB, (imported, walked)


def test_a_qscan_peak_does_not_grow_with_the_candidates(tmp_path):
    argvs = []
    for level in (4, 10):
        # the Jorgensen-Pedersen spectrum after `level` zero-chooser steps
        lams = [[sum(4**j for j in range(level) if i >> j & 1)] for i in range(2**level)]
        doc = {"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},
               "qscan": {"truncation": 10, "lambda": lams, "grid_pitch": "1/16384"}}
        cfg = tmp_path / f"qscan-{level}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append(cli("qscan", cfg, "--out", str(tmp_path / f"q-{level}.csv")))
    few, many = child_peaks_mb(*argvs)
    assert abs(many - few) < QSCAN_SPREAD_MB, (few, many)


def test_spectrum_exactness_peaks_near_the_run_without_it(tmp_path):
    argvs = []
    for exactness in (False, True):
        doc = {"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},
               "spectrum": {"milestones": [2, 4, 6, 8, 10, 12], "exactness": exactness}}
        cfg = tmp_path / f"spectrum-{exactness}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append(cli("spectrum", cfg, "--out", str(tmp_path / f"levels-{exactness}.txt")))
    without, with_exactness = child_peaks_mb(*argvs)
    assert with_exactness - without < EXACTNESS_SPREAD_MB, (without, with_exactness)
