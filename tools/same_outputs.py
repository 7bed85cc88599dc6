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

The relative paths keep the config sha256 the same on both sides.  The exit
codes, the stdout reports (without their `wall time:` line) and the --out
files (the level files and CSVs, or the report) are compared byte for byte.
The report prints the contractivity bound as `%.6g`, so for a `check` that
asks for contractivity the `repr` of the library's bound
(`contractivity_report(...).max_norm_upper`) is compared as well.  One line
is printed per command; the exit code is 1 when any command differs, 0
otherwise.
"""
from __future__ import annotations

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
# sets' product detection in `hadamard_check`.  A CLI spectrum certifies its
# exactness by the level bound, the running maximum of each level's dual
# deviation `hadamard_check(R_iᵀ, L_i, B_i)`.  The spectra with exactness run
# that bound past the bench sizes and with nonzero k, a `tol` below the
# rounding floor makes the inline product spectrum fail it, and the skew
# spectrum needs the transpose: untransposed, its levels give 1.0.
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


_WIDE_LEVEL = {"matrix": [[4]], "digits": [[0], [str(2 + 4 * 2**70)]], "spectrum_digits": [[0], [1]]}


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
        "tol": 1e-18,
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

# The contractivity bound of a `check` config, as the library computes it
# under the tree on PYTHONPATH.
_CONTRACTIVITY = r"""
import sys
from convspectra import cli, contractivity_report

cfg = cli.load_config(sys.argv[1])
seq = cfg.build_sequence()
upto = cfg.section("check").get("upto", 20)
print(repr(contractivity_report(seq, upto if seq.length is None else min(upto, seq.length)).max_norm_upper))
"""


def cases():
    """(name, verb, config text) of every command to compare."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        verb = next(v for v in VERBS if v in json.loads(text))
        yield f"configs/{path.name}", verb, text
    seen = set()
    for workload in workloads.WORKLOADS:
        for seed in SAMPLE_SEEDS:
            for cmd in workloads.commands(workload, "full", seed):
                text = json.dumps(cmd.config, sort_keys=True)
                if (cmd.key, text) in seen:
                    continue
                seen.add((cmd.key, text))
                suffix = f" (seed {seed})" if cmd.verb == "sample" else ""
                yield f"{workload}/{cmd.key}{suffix}", cmd.verb, text
    for name, verb, doc in INLINE:
        yield name, verb, json.dumps(doc, sort_keys=True)


def _asks_contractivity(verb: str, text: str) -> bool:
    return verb == "check" and "contractivity" in json.loads(text)["check"].get("checks", ["contractivity"])


def run(src: Path, verb: str, text: str) -> tuple:
    """(exit code, stdout without wall time, --out file, contractivity bound)
    of one command; the bound is (exit code, stdout) of the library call, or
    None unless a `check` asks for it."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        Path(tmp, "c.json").write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "convspectra", verb, "--config", "c.json", "--out", "out.txt"],
            cwd=tmp, env=env, capture_output=True,
        )
        out = Path(tmp, "out.txt")
        artifact = out.read_bytes() if out.exists() else None
        bound = None
        if _asks_contractivity(verb, text):
            done = subprocess.run([sys.executable, "-c", _CONTRACTIVITY, "c.json"],
                                  cwd=tmp, env=env, capture_output=True)
            bound = done.returncode, done.stdout
    report = b"".join(l for l in proc.stdout.splitlines(True) if not l.startswith(b"wall time:"))
    if artifact is not None:
        artifact = b"".join(l for l in artifact.splitlines(True) if not l.startswith(b"wall time:"))
    return proc.returncode, report, artifact, bound


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differ = 0
    for name, verb, text in cases():
        a, b = run(parent, verb, text), run(change, verb, text)
        parts = [what for what, x, y in zip(("exit code", "report", "out file", "contractivity"), a, b) if x != y]
        differ += bool(parts)
        print(f"{'DIFF' if parts else 'same'}  {name}  exit {a[0]}/{b[0]}" + (f"  ({', '.join(parts)})" if parts else ""))
    print(f"{differ} of the commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
