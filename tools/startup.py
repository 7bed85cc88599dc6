"""Split what one CLI process spends into the interpreter, numpy, the
package import and the command.

Usage (from the repository root):

    python3 tools/startup.py SRC [--reps N] [--command VERB CONFIG ...]

SRC is a directory holding the `convspectra` package, such as the `src/` of
a checkout.  Each repetition runs these children, one at a time, starting
one later in the list each time so that no child always runs first:

    python3 -c pass
    python3 -c "import numpy"
    python3 -c "import convspectra.cli"
    python3 -m convspectra VERB --config CONFIG --out OUT  (one per --command)

with the environment bench/run.py gives its children, PYTHONPATH=SRC, and
stdout discarded.  OUT is a file of each command's own in a temporary
directory, so that a command that needs an output path, such as
`spectrum`, has one.  OUT is removed after each child, outside its timed
span, so every child writes a new file, as the bench's children do:
overwriting a file can cost far more than creating one (55-65 ms against
0.02 ms on an ext4 volume mounted with `discard`).  Each child is timed from
spawn to exit, and its peak RSS is read through os.wait4.  One line per child gives the quartiles of
the wall ms and the median peak RSS in MB.  The exit code is 1 when a
child fails, 0 otherwise.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def run_child(argv: list, env: dict, out: str | None = None) -> tuple:
    """(wall ms, peak RSS MB, exit code) of one `python3 ARGV` child; then
    removes its output file `out`, if given."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if out is not None:
        Path(out).unlink(missing_ok=True)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--command", nargs=2, action="append", default=[], metavar=("VERB", "CONFIG"))
    args = parser.parse_args()
    env = dict(run.child_env(), PYTHONPATH=str(args.src.resolve()))
    children = {"-c pass": (["-c", "pass"], None), "import numpy": (["-c", "import numpy"], None),
                "import convspectra.cli": (["-c", "import convspectra.cli"], None)}
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        for i, (verb, config) in enumerate(args.command):
            out = os.path.join(tmp, f"{i}.out")
            children[f"{verb} {config}"] = (["-m", "convspectra", verb, "--config", config, "--out", out], out)
        names = list(children)
        wall, peak, failed = {n: [] for n in names}, {n: [] for n in names}, 0
        for rep in range(args.reps):
            for name in names[rep % len(names):] + names[: rep % len(names)]:
                argv, out = children[name]
                ms, mb, code = run_child(argv, env, out)
                wall[name].append(ms)
                peak[name].append(mb)
                failed += code != 0
    w = max(map(len, names))
    print(f"{'child':<{w}} {'wall ms: q1':>11} {'median':>7} {'q3':>7} {'peak MB':>8}  ({args.reps} runs)")
    for name in names:
        q1, q2, q3 = quartiles(wall[name])
        print(f"{name:<{w}} {q1:11.1f} {q2:7.1f} {q3:7.1f} {statistics.median(peak[name]):8.2f}")
    if failed:
        print(f"{failed} children failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
