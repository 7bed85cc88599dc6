"""The three benchmark workloads, as lists of CLI commands with their configs.

Every input is a builtin family from the paper and is deterministic, except
the `sample` seed, which comes from the benchmark's --seed.  Sample outputs
depend on that seed, so references are recorded for SAMPLE_SLOTS seeds and
--seed picks one of them.

Each scale maps a workload to its commands.  `full` is what the benchmark
times; `tiny` runs the same code paths in about a second and exists for the
self-test.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("existence", "spectrum", "fourier")
SCALES = ("full", "tiny")
SAMPLE_SLOTS = 32
_SAMPLE_SEED_BASE = 20260816

EX26 = {"generator": "example-2.6"}
JP = {"generator": "jorgensen-pedersen"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `convspectra <verb> --config <key>.json [--out ...]`."""

    key: str  # unique within the workload; names the config and reference
    verb: str  # check | spectrum | qscan | sample | equipos
    config: dict
    artifact: str | None = None  # kind of --out file: levels | csv | sample-csv


def sample_seed(seed: int) -> int:
    return _SAMPLE_SEED_BASE + seed % SAMPLE_SLOTS


def jp_level_spectrum(level: int):
    """Jorgensen-Pedersen spectrum after `level` zero-chooser steps:
    sums of distinct 4^j, j < level, as 1-vectors."""
    return sorted([sum(4**j for j in range(level) if i >> j & 1)] for i in range(2**level))


_SIZES = {
    "full": {
        "series_upto": 200,
        "hadamard_upto": 24,
        "three_series_upto": 50,
        "sample_upto": 40,
        "draws": 20_000,
        "jp_milestones": [2, 4, 6, 8, 10, 12],
        "equipos": {"tail_starts": [0, 1, 2, 3], "depth": 12, "x_pitch": "1/32"},
        "qscan": {"truncation": 8, "level": 8, "pitch": "1/512"},
        "windowed": {"milestones": [1, 2, 3], "search_depth": 4},
    },
    "tiny": {
        "series_upto": 20,
        "hadamard_upto": 4,
        "three_series_upto": 10,
        "sample_upto": 8,
        "draws": 500,
        "jp_milestones": [2, 4, 6],
        "equipos": {"tail_starts": [0, 1], "depth": 4, "x_pitch": "1/8"},
        "qscan": {"truncation": 4, "level": 4, "pitch": "1/64"},
        "windowed": {"milestones": [1, 2], "search_depth": 2},
    },
}


def commands(workload: str, scale: str, seed: int) -> list:
    s = _SIZES[scale]
    if workload == "existence":
        return [
            Command(
                "check-series",
                "check",
                {
                    "dimension": 2,
                    "sequence": EX26,
                    "check": {
                        "upto": s["series_upto"],
                        "checks": ["equivalence", "rbc", "pcc", "contractivity"],
                    },
                },
            ),
            Command(
                "check-hadamard",
                "check",
                {
                    "dimension": 2,
                    "sequence": EX26,
                    "check": {
                        "upto": s["three_series_upto"],
                        "hadamard_upto": s["hadamard_upto"],
                        "checks": ["hadamard", "three-series"],
                    },
                },
            ),
            Command(
                "sample",
                "sample",
                {
                    "dimension": 2,
                    "sequence": EX26,
                    "seed": sample_seed(seed),
                    "sample": {"upto": s["sample_upto"], "draws": s["draws"]},
                },
                artifact="sample-csv",
            ),
        ]
    if workload == "spectrum":
        return [
            Command(
                "spectrum",
                "spectrum",
                {
                    "dimension": 1,
                    "sequence": JP,
                    "spectrum": {"milestones": s["jp_milestones"], "exactness": True},
                },
                artifact="levels",
            )
        ]
    if workload == "fourier":
        eq, qs, win = s["equipos"], s["qscan"], s["windowed"]
        return [
            Command(
                "equipos",
                "equipos",
                {
                    "dimension": 2,
                    "sequence": EX26,
                    "equipos": {**eq, "y_radius": "1/12", "k_window": 1},
                },
            ),
            Command(
                "qscan",
                "qscan",
                {
                    "dimension": 1,
                    "sequence": JP,
                    "qscan": {
                        "truncation": qs["truncation"],
                        "lambda": jp_level_spectrum(qs["level"]),
                        "grid_pitch": qs["pitch"],
                    },
                },
                artifact="csv",
            ),
            Command(
                "spectrum-windowed",
                "spectrum",
                {
                    "dimension": 2,
                    "sequence": EX26,
                    "spectrum": {
                        "milestones": win["milestones"],
                        "chooser": "windowed-search",
                        "search_depth": win["search_depth"],
                        "exactness": False,
                    },
                },
                artifact="levels",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}")
