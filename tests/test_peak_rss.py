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
points held its whole sum set, and at 43.7 and 44.8 MB in runs.  Nor should
it grow with the truncation: Q reads mu_hat_N from its N per-level factors.
Scans of 64 points over 8 candidates at truncations 8 and 19 peaked at 32.5
and 47.6 MB when the 2^19 atoms of the convolution were formed, and at 32.3
and 32.4 MB from the factors.

A `spectrum` with exactness bounds each milestone's Gram by its levels' dual
Hadamard triples, one small check per level, and forms neither the measure
nor the level's sum set, so it should peak about where the same command
without exactness does.  On the same machine, Jorgensen-Pedersen milestones
2..12 peaked about 5 MB above the run without exactness when every level's
difference sum set was walked in 4 MiB runs.  Milestones 2..20 peaked 24 MB
above it when the measure was built and the level's sum set formed to count
it, and the Gram bounded milestone block by milestone block.

No command should load OpenSSL's libcrypto or numpy.random.  The config
digest uses CPython's built-in SHA-256 (`_sha2`, or `_sha256` before Python
3.12), where hashlib would load `_hashlib` and so libcrypto: about 3.5 MB of
every child's peak.  `sample` draws with an in-house Philox kernel, where
numpy.random would import secrets, hmac and so `_hashlib`: on the same
machine, a `sample` of example-2.6 to level 40 with 20 000 draws peaked at
43.8 MB drawing with numpy.random and at 39.8 MB with the kernel.  Nor
should any command import `dataclasses`: the result records are NamedTuples
and plain classes, since generating the code of 19 dataclasses took 19-26 ms
of every process's start on the same machine.  Nor should any command load
`argparse`, `gettext`, `locale` or `_locale`: the CLI reads its seven flags
from one table, where argparse cost about 0.6 MB of every child's peak.  On
the same machine, with numpy imported, `import argparse` added 384 kB and
building the argparse parser took 2.8 ms, its message lookups importing
gettext and locale (256 kB, 1.7 ms).  The footprint is checked by module
name, since the MB and ms differ between machines.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BOUND_MB = 7.5
QSCAN_SPREAD_MB = 8.0
TRUNCATION_SPREAD_MB = 2.0
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


def test_a_qscan_peak_does_not_grow_with_the_truncation(tmp_path):
    argvs = []
    for truncation in (8, 19):
        doc = {"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},
               "qscan": {"truncation": truncation, "lambda": [[v] for v in (0, 1, 4, 5, 16, 17, 20, 21)],
                         "grid_pitch": "1/64"}}
        cfg = tmp_path / f"qscan-{truncation}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append(cli("qscan", cfg, "--out", str(tmp_path / f"q-{truncation}.csv")))
    shallow, deep = child_peaks_mb(*argvs)
    assert deep - shallow < TRUNCATION_SPREAD_MB, (shallow, deep)


def test_spectrum_exactness_peaks_near_the_run_without_it(tmp_path):
    for top, extra in ((12, {}), (20, {"max_atoms": 2**20})):
        argvs = []
        for exactness in (False, True):
            doc = {"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"}, **extra,
                   "spectrum": {"milestones": list(range(2, top + 1, 2)), "exactness": exactness}}
            cfg = tmp_path / f"spectrum-{top}-{exactness}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            argvs.append(cli("spectrum", cfg, "--out", str(tmp_path / f"levels-{top}-{exactness}.txt")))
        without, with_exactness = child_peaks_mb(*argvs)
        assert with_exactness - without < EXACTNESS_SPREAD_MB, (top, without, with_exactness)


_FOOTPRINT = r"""
import contextlib, io, json, sys
from convspectra import cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps([name for name in ("_hashlib", "hmac", "secrets", "numpy.random", "dataclasses",
                                    "argparse", "gettext", "locale", "_locale") if name in sys.modules]))
"""


def test_no_command_loads_libcrypto_numpy_random_dataclasses_or_argparse(tmp_path):
    configs = {"check": ["bernoulli-quarter-check", "jorgensen-pedersen-check"],
               "spectrum": ["jorgensen-pedersen-spectrum"], "qscan": ["jorgensen-pedersen-qscan"],
               "sample": ["planar-sample"], "equipos": ["example-2.6-equipos"]}
    argvs = [[verb, "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(tmp_path / name)]
             for verb, names in configs.items() for name in names]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        loaded = [name for name in loaded if name != "_hashlib"]  # hashlib hashes then
    assert loaded == [], loaded
