"""Check that two source trees give the same outputs on the shipped configs
and on the benchmark's commands.

Usage (from the repository root):

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each *_SRC is a directory holding the `convspectra` package, such as the
`src/` of a checkout.  Every `configs/*.json` (run as the verb of the section
it holds), every `full` command of `bench/workloads.py` (the `sample`
commands at seeds 1 and 2) and every case of `INLINE` runs once under each
tree, in a fresh temporary directory of its own, as

    python3 -m convspectra VERB --config c.json --out out.txt

and every case of `ARGV` as `python3 -m convspectra ARGV`, its own command
line over one of the shipped configs written to c.json: the overrides spelled
as `--flag=value`, as prefixes and as repeated flags, and command lines the
CLI refuses, which must exit with the same code on both trees.  The relative
paths keep the config sha256 the same on both sides.  The exit codes, the
stdout reports (without their `wall time:` line) and the --out files (the
level files and CSVs, or the report) are compared byte for byte.
The report prints the contractivity bound as `%.6g`, so for a `check` that
asks for contractivity the `repr` of the library's bound
(`contractivity_report(...).max_norm_upper`) is compared as well.  One line
is printed per command, followed for a differing one by the first line
where its report or --out file differs; the exit code is 1 when any command
differs, 0 otherwise.

    python3 tools/same_outputs.py --record FILE [SRC]

runs every command once under SRC (default: the `src/` beside this tool)
and writes FILE: per command its exit code, the SHA-256 of its stdout and of
its --out file (each without `wall time:` lines) and the contractivity
`repr` where a `check` compares it, beside the numpy and BLAS versions the
digests were recorded with.  `tests/test_golden_outputs.py` runs the same
commands in-process and compares them with `tests/golden/outputs.json`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

VERBS = ("check", "spectrum", "qscan", "sample", "equipos")
SAMPLE_SEEDS = (1, 2)

# The configs and the bench commands all have diagonal R; the check on
# skew levels reaches the bisection of the certified norm ‖R⁻¹‖₂.  The
# example-2.6 checks run the kernels that read structured digit sets past
# the bench sizes, and the inline product levels run the explicit digit
# sets' product detection in `hadamard_check`.  `hadamard_check` decides
# every level exactly, as vanishing sums of roots of unity: per axis on
# products, and over runs of the exponent table otherwise, as on the skew
# spectrum's levels and the two 1024- and 2025-digit levels below.  A CLI
# spectrum gives a certified level a bound of 0, and a refuted one `-` from
# that level on.  The spectra with exactness run that test past the bench
# sizes and with nonzero k.  The repro levels (R = 2·10¹⁰ + 1, B = {0, 1},
# L = {0, 10¹⁰}) are 7.854e-11 from unitary in floats, within a float
# tolerance of 1e-9, and the exact test refutes them.
_SKEW_LEVEL = {"matrix": [[4, 1], [0, 4]], "digits": [[0, 0], [1, 0], [0, 1], [1, 1]]}
_SKEW_TRIPLE = {"matrix": [[4, 1], [0, 4]], "digits": [[0, 0], [0, 2], [2, 0], [2, 2]],
                "spectrum_digits": [[0, 0], [0, 1], [-3, -3], [-3, -2]]}


def _product_level(r, b, l):
    """An inline level with R = diag(r) and the digit sets B = b[0] × b[1]
    and L = l[0] × l[1], written out row by row."""
    return {
        "matrix": [[r[0], 0], [0, r[1]]],
        "digits": [[x, y] for x in b[0] for y in b[1]],
        "spectrum_digits": [[x, y] for x in l[0] for y in l[1]],
    }


# no axis products: B = L = {(x, y + 32(x mod 2))} under 64·I, refuted, and
# R = [[45, 45], [0, 45]], B = {0..44}², L = {(x, x + y)}, certified
_NONPRODUCT_ROWS = [[x, y + 32 * (x % 2)] for x in range(32) for y in range(32)]
_NONPRODUCT_LEVEL = {"matrix": [[64, 0], [0, 64]], "digits": _NONPRODUCT_ROWS, "spectrum_digits": _NONPRODUCT_ROWS}
_SKEW_2025_LEVEL = {"matrix": [[45, 45], [0, 45]], "digits": [[x, y] for x in range(45) for y in range(45)],
                    "spectrum_digits": [[x, x + y] for x in range(45) for y in range(45)]}
_WIDE_LEVEL = {"matrix": [[4]], "digits": [[0], [str(2 + 4 * 2**70)]], "spectrum_digits": [[0], [1]]}
_REPRO_LEVEL = {"matrix": [[2 * 10**10 + 1]], "digits": [[0], [1]], "spectrum_digits": [[0], [10**10]]}
# R = 2q with q = (2⁶¹ − 1)(2⁶⁴ − 59), B = {0, q}, L = {0, 1}: the exact test
# certifies it from the prime 2 alone, whatever the large primes of q
_Q = (2**61 - 1) * (2**64 - 59)
_WIDE_DET_LEVEL = {"matrix": [[str(2 * _Q)]], "digits": [[0], [str(_Q)]], "spectrum_digits": [[0], [1]]}


def _grid_level(matrix, far):
    """An inline level with B = {0..15}² plus one digit far past 2^31, which
    is congruent to no other digit mod R·Z²."""
    return {"matrix": matrix, "digits": [[x, y] for x in range(16) for y in range(16)] + [[str(far[0]), far[1]]]}


# 257 explicit digits a level, one of them past the int64 headroom: the
# digit rows of the `check` kernels and the sampler hold them in one array
_FAR_LEVELS = [
    _grid_level([[20, 0], [0, 20]], (17 + 20 * 2**40, 3)),  # the far digit sorts last
    _grid_level([[20, 1], [0, 20]], (5 - 20 * 2**40, 17)),  # and first
]

INLINE = (
    ("inline/skew-check", "check", {
        "dimension": 2,
        "sequence": {"inline": [_SKEW_LEVEL] * 3},
        "check": {"checks": ["contractivity", "rbc", "pcc"], "upto": 3},
    }),
    ("inline/product-check", "check", {
        "dimension": 2,
        "sequence": {"inline": [
            _product_level((4, 6), ([0, 2], [0, 2, 4]), ([0, 1], [0, 1, 2])),
            _product_level((8, 6), ([0, 2, 4, 6], [0, 2, 4]), ([0, 1, 2, 3], [0, 1, 2])),
            _product_level((8, 10), ([0, 2, 4, 6], [0, 2, 4, 6, 8]), ([0, 1, 2, 3], [0, -1, 1, 2, -2])),
        ]},
        "check": {"upto": 3, "hadamard_upto": 3, "checks": [
            "hadamard", "three-series", "equivalence", "rbc", "pcc", "contractivity"]},
    }),
    ("inline/check-far-digit", "check", {
        "dimension": 2,
        "sequence": {"inline": _FAR_LEVELS + _FAR_LEVELS[:1]},
        "check": {"upto": 3, "checks": ["equivalence", "rbc", "pcc", "contractivity", "three-series"]},
    }),
    # fewer draws than digits gather per draw, more gather from one table
    *((f"inline/sample-far-digit-draws={draws}", "sample", {
        "dimension": 2,
        "seed": 5,
        "sequence": {"inline": _FAR_LEVELS + _FAR_LEVELS[:1]},
        "sample": {"upto": 3, "draws": draws},
    }) for draws in (200, 1000)),
    ("example-2.6/check-series-1000", "check", {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "check": {"upto": 1000, "checks": ["equivalence", "rbc", "pcc", "contractivity"]},
    }),
    ("example-2.6/check-hadamard-100", "check", {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "check": {"upto": 200, "hadamard_upto": 100, "checks": ["hadamard", "three-series"]},
    }),
    ("jorgensen-pedersen/spectrum-16", "spectrum", {
        "dimension": 1,
        "sequence": {"generator": "jorgensen-pedersen"},
        "spectrum": {"milestones": [2, 4, 6, 8, 10, 12, 14, 16], "exactness": True},
    }),
    # a 16.7 MB level file, where its formatting is most of the child's time
    ("jorgensen-pedersen/spectrum-20", "spectrum", {
        "dimension": 1,
        "sequence": {"generator": "jorgensen-pedersen"},
        "max_atoms": 2**21,
        "spectrum": {"milestones": list(range(2, 21, 2)), "exactness": False},
    }),
    ("example-2.6/spectrum-windowed", "spectrum", {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "spectrum": {"milestones": [1, 3], "chooser": "windowed-search", "search_radius": 1,
                     "search_depth": 2, "exactness": True},
    }),
    ("inline/spectrum-fallback", "spectrum", {
        "dimension": 2,
        "sequence": {"inline": [
            _product_level((4, 6), ([0, 2], [0, 2, 4]), ([0, 1], [0, 1, 2])),
            _product_level((8, 6), ([0, 2, 4, 6], [0, 2, 4]), ([0, 1, 2, 3], [0, 1, 2])),
            _product_level((8, 10), ([0, 2, 4, 6], [0, 2, 4, 6, 8]), ([0, 1, 2, 3], [0, -1, 1, 2, -2])),
        ]},
        "spectrum": {"milestones": [1, 2, 3], "exactness": True},
    }),
    ("inline/spectrum-skew", "spectrum", {
        "dimension": 2,
        "sequence": {"inline": [_SKEW_TRIPLE] * 3},
        "spectrum": {"milestones": [1, 2, 3], "exactness": True},
    }),
    # B = {0, 2 + 4·2⁷⁰} puts an all-zero row beside a digit past int64 in
    # the phase kernel.  Trees before the zero-operand fix of
    # `exact_phase_matrix` crash here (exit 1), so against such a parent
    # this is the one case expected to differ.
    ("inline/spectrum-wide", "spectrum", {
        "dimension": 1,
        "sequence": {"inline": [_WIDE_LEVEL] * 3},
        "spectrum": {"milestones": [1, 2, 3], "exactness": True},
    }),
    ("inline/repro-check", "check", {
        "dimension": 1,
        "sequence": {"inline": [_REPRO_LEVEL] * 2},
        "check": {"upto": 2, "hadamard_upto": 2, "checks": ["hadamard"]},
    }),
    ("inline/wide-det-check", "check", {
        "dimension": 1,
        "sequence": {"inline": [_WIDE_DET_LEVEL] * 2},
        "check": {"upto": 2, "hadamard_upto": 2, "checks": ["hadamard"]},
    }),
    *((name, "check", {
        "dimension": 2,
        "sequence": {"inline": [level]},
        "check": {"upto": 1, "hadamard_upto": 1, "checks": ["hadamard"]},
    }) for name, level in (("inline/skew-2025-check", _SKEW_2025_LEVEL),
                           ("inline/nonproduct-1024-check", _NONPRODUCT_LEVEL))),
    ("inline/repro-spectrum", "spectrum", {
        "dimension": 1,
        "sequence": {"inline": [_REPRO_LEVEL] * 2},
        "spectrum": {"milestones": [1, 2], "exactness": True},
    }),
    # `equipos` reads the levels of a tail whose atoms are axis products from
    # per-axis tables, as on the reduced example-2.6 of the bench; these two
    # tails keep the dense lattice kernel: the unreduced example-2.6 levels
    # add digits outside the product, and the skew levels' atoms M_j⁻¹ B are
    # no axis products
    ("example-2.6/equipos-unreduced", "equipos", {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "equipos": {"tail_starts": [0, 1], "depth": 6, "x_pitch": "1/16", "y_radius": "1/12",
                    "k_window": 1, "reduced": False},
    }),
    ("inline/equipos-skew", "equipos", {
        "dimension": 2,
        "sequence": {"inline": [_SKEW_LEVEL] * 8},
        "equipos": {"tail_starts": [0, 1, 2], "depth": 5, "x_pitch": "1/16", "y_radius": "1/10",
                    "k_window": 1},
    }),
    # the sum-set kernel past one run: Q at 65 536 frequencies over the
    # level-8 spectrum walks 37 spans of 18 runs, each span's left tables
    # read by its runs, and the hadamard checks to level 300 split both the
    # left points and the Khatri-Rao join of every Gram deviation into runs
    ("jorgensen-pedersen/qscan-wide", "qscan", {
        "dimension": 1,
        "sequence": {"generator": "jorgensen-pedersen"},
        "qscan": {"truncation": 8, "lambda": workloads.jp_level_spectrum(8), "grid_pitch": "1/65536"},
    }),
    # Q from the per-level factors: at truncation 19, the deepest whose 2^19
    # atoms fit the atom cap of the convolution route, and on skew levels
    ("jorgensen-pedersen/qscan-19", "qscan", {
        "dimension": 1,
        "sequence": {"generator": "jorgensen-pedersen"},
        "qscan": {"truncation": 19, "lambda": workloads.jp_level_spectrum(3), "grid_pitch": "1/64"},
    }),
    ("inline/qscan-skew", "qscan", {
        "dimension": 2,
        "sequence": {"inline": [_SKEW_LEVEL] * 4},
        "qscan": {"truncation": 4, "lambda": [[0, 0], [1, 0], [0, 1], [1, 1], [2, -1], [-3, 2]],
                  "grid_pitch": "1/16"},
    }),
    ("example-2.6/check-hadamard-300", "check", {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "check": {"upto": 300, "hadamard_upto": 300, "checks": ["hadamard"]},
    }),
    # the sampler's seeds at both int64 edges and around 0, and draw counts
    # that leave the last Philox block of four words partly used
    *((f"example-2.6/sample-seed={seed}", "sample", {
        "dimension": 2,
        "seed": seed,
        "sequence": {"generator": "example-2.6"},
        "sample": {"upto": 12, "draws": 1000},
    }) for seed in (-(2**63), -1, 0, 2**63 - 1)),
    # example-2.6 levels hold about (k + 1)² digits, more than the 1000
    # draws from k = 31 on: the sampler gathers from one table of every digit
    # below that level and per draw above it
    ("example-2.6/sample-upto=40", "sample", {
        "dimension": 2,
        "seed": 11,
        "sequence": {"generator": "example-2.6"},
        "sample": {"upto": 40, "draws": 1000},
    }),
    *((f"jorgensen-pedersen/sample-draws={draws}", "sample", {
        "dimension": 1,
        "seed": 7,
        "sequence": {"generator": "jorgensen-pedersen"},
        "sample": {"upto": 6, "draws": draws},
    }) for draws in (4093, 4094, 4095)),
)


def _shipped(name: str) -> str:
    return (ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8")


_CONFIG, _OUT = ["--config", "c.json"], ["--out", "out.txt"]

# (name, argv, config text): flag spellings that must read the same on both
# trees, and command lines that both refuse (exit 2, nothing on stdout)
ARGV = (
    ("argv/seed=N", ["sample", *_CONFIG, *_OUT, "--seed=-9"], _shipped("planar-sample")),
    ("argv/seed-prefix", ["sample", "--conf", "c.json", "--o", "out.txt", "--se", "9"], _shipped("planar-sample")),
    ("argv/seed-repeated", ["sample", *_CONFIG, "--seed", "1", "--out", "x.txt", "--seed", "-5", *_OUT],
     _shipped("planar-sample")),
    ("argv/max-atoms", ["spectrum", *_CONFIG, *_OUT, "--max-atoms", "16"], _shipped("jorgensen-pedersen-spectrum")),
    ("argv/max-atoms-cap", ["spectrum", *_OUT, "--max-a=8", *_CONFIG], _shipped("jorgensen-pedersen-spectrum")),
    ("argv/grid-pitch", ["qscan", *_CONFIG, *_OUT, "--grid-pitch", "1/12"], _shipped("jorgensen-pedersen-qscan")),
    ("argv/grid-pitch-prefix", ["qscan", *_CONFIG, *_OUT, "--g=2/7"], _shipped("jorgensen-pedersen-qscan")),
    *((f"argv/refused: {' '.join(argv) or '(no verb)'}", argv, _shipped("bernoulli-quarter-check")) for argv in (
        [],
        ["scan", *_CONFIG],
        [*_CONFIG, "check"],
        ["check", *_CONFIG, "--bogus", "1"],
        ["check", *_CONFIG, "extra"],
        ["check", *_CONFIG, "--seed"],
        ["check", *_OUT],
        ["check", *_CONFIG, "--seed", "1.5"],
        ["check", *_CONFIG, "--max-atoms", "2e6"],
        ["check", *_CONFIG, "--tol", "tight"],
        ["spectrum", *_CONFIG, *_OUT, "--tol", "1e-18"],
    )),
    # `--t` was the prefix of the `--tol` flag and no flag starts with it now
    ("argv/tol-prefix", ["check", *_CONFIG, *_OUT, "--t=0.5"], _shipped("bernoulli-quarter-check")),
)

# The contractivity bound of a `check` config, as the library computes it
# under the tree on PYTHONPATH.
_CONTRACTIVITY = "import sys, same_outputs; print(same_outputs.contractivity_bound(sys.argv[1]))"


def contractivity_bound(config_path) -> str:
    """The `repr` of `contractivity_report(...).max_norm_upper` for a
    `check` config, from the convspectra that is imported."""
    from convspectra import cli, contractivity_report

    cfg = cli.load_config(config_path)
    seq = cfg.build_sequence()
    upto = cfg.section("check").get("upto", 20)
    return repr(contractivity_report(seq, upto if seq.length is None else min(upto, seq.length)).max_norm_upper)


def cases():
    """(name, argv, config text) of every command to compare."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        verb = next(v for v in VERBS if v in json.loads(text))
        yield f"configs/{path.name}", [verb, *_CONFIG, *_OUT], text
    seen = set()
    for workload in workloads.WORKLOADS:
        for seed in SAMPLE_SEEDS:
            for cmd in workloads.commands(workload, "full", seed):
                text = json.dumps(cmd.config, sort_keys=True)
                if (cmd.key, text) in seen:
                    continue
                seen.add((cmd.key, text))
                suffix = f" (seed {seed})" if cmd.verb == "sample" else ""
                yield f"{workload}/{cmd.key}{suffix}", [cmd.verb, *_CONFIG, *_OUT], text
    for name, verb, doc in INLINE:
        yield name, [verb, *_CONFIG, *_OUT], json.dumps(doc, sort_keys=True)
    yield from ARGV


def _asks_contractivity(argv: list, text: str) -> bool:
    return argv[:1] == ["check"] and "contractivity" in json.loads(text)["check"].get("checks", ["contractivity"])


def _drop_wall_time(data: bytes) -> bytes:
    return b"".join(l for l in data.splitlines(True) if not l.startswith(b"wall time:"))


def run(src: Path, argv: list, text: str) -> tuple:
    """(exit code, stdout without wall time, --out file without wall time,
    contractivity bound) of one command under the tree `src`; the bound is
    its `repr`, or the exit code of the library call, or None unless a
    `check` asks for it."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        Path(tmp, "c.json").write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
        proc = subprocess.run(
            [sys.executable, "-m", "convspectra", *argv],
            cwd=tmp, env=env, capture_output=True,
        )
        out = Path(tmp, "out.txt")
        artifact = _drop_wall_time(out.read_bytes()) if out.exists() else None
        bound = None
        if _asks_contractivity(argv, text):
            done = subprocess.run([sys.executable, "-c", _CONTRACTIVITY, "c.json"],
                                  cwd=tmp, env=env, capture_output=True)
            bound = done.stdout.decode().strip() if done.returncode == 0 else f"exit {done.returncode}"
    return proc.returncode, _drop_wall_time(proc.stdout), artifact, bound


def run_here(argv: list, text: str) -> tuple:
    """`run`'s result for one command through the imported `cli.main`, in
    the current directory, which should be empty."""
    from convspectra import cli

    Path("c.json").write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out = Path("out.txt")
    artifact = _drop_wall_time(out.read_bytes()) if out.exists() else None
    bound = contractivity_bound("c.json") if _asks_contractivity(argv, text) else None
    return code, _drop_wall_time(stdout.getvalue().encode("utf-8")), artifact, bound


def digests(result: tuple) -> dict:
    """The recorded entry of one `run` result."""
    code, report, artifact, bound = result
    entry = {"exit": code, "stdout": hashlib.sha256(report).hexdigest()}
    if artifact is not None:
        entry["out"] = hashlib.sha256(artifact).hexdigest()
    if bound is not None:
        entry["contractivity"] = bound
    return entry


def stack() -> dict:
    """The numpy and BLAS builds the digests hold for."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def record(path: Path, src: Path) -> int:
    commands = {name: digests(run(src, argv, text)) for name, argv, text in cases()}
    doc = {**stack(), "commands": commands}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(commands)} commands to {path}")
    return 0


def _first_diff(a: bytes | None, b: bytes | None) -> str:
    """The first line where two outputs differ, cut to 100 characters."""
    la, lb = (x.splitlines() if x is not None else [] for x in (a, b))
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    at = [(x[i][:100] if i < len(x) else b"(none)").decode(errors="replace") for x in (la, lb)]
    return f"line {i + 1}: {at[0]!r} / {at[1]!r}"


def main(argv) -> int:
    if argv[:1] == ["--record"] and len(argv) in (2, 3):
        return record(Path(argv[1]), Path(argv[2] if len(argv) == 3 else ROOT / "src").resolve())
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC\n"
              "       python3 tools/same_outputs.py --record FILE [SRC]", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differ = 0
    for name, argv, text in cases():
        a, b = run(parent, argv, text), run(change, argv, text)
        parts = [what for what, x, y in zip(("exit code", "report", "out file", "contractivity"), a, b) if x != y]
        differ += bool(parts)
        print(f"{'DIFF' if parts else 'same'}  {name}  exit {a[0]}/{b[0]}" + (f"  ({', '.join(parts)})" if parts else ""))
        for what, i in (("report", 1), ("out file", 2)):
            if what in parts:
                print(f"      {what} {_first_diff(a[i], b[i])}")
    print(f"{differ} of the commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
