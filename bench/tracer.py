"""Traced CLI process: wraps calls into each convspectra module, then runs
`convspectra.cli.main(argv)`.

Usage: python3 bench/tracer.py SPANS_JSON <cli arguments...>

Each wrapped call records a span (name, start, end, parent span index).  The
package imports functions by name (`from .x import f`), so each wrapper is
patched into every convspectra module namespace that holds the function.
Counts are computed here from call arguments and return values; they repeat
exactly for the same inputs and are labelled as computed in the results.
Spans and counts stay in memory and are written once, at exit.
"""
from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction

import convspectra.cli as cli
from convspectra import _phases, conditions, exactmat, measures, sequences, spectra, triples

_INT64_SAFE = 2**62  # the int64 fast path's bound in _phases.exact_phase_matrix
_HEURISTIC = ("converged-numerically", "inconclusive", "unverified-tail")

spans: list = []  # (name, start, end, parent index)
counts: Counter = Counter()
_stack: list = []
_open_conditions = [0]
_built = weakref.WeakKeyDictionary()  # sequence -> levels built so far
_untraced_level = sequences.TripleSequence._level


def _span(name, fn, count=None, scope=None):
    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = _stack[-1] if _stack else -1
        _stack.append(idx)
        if scope is not None:
            scope[0] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if scope is not None:
                scope[0] -= 1
            _stack.pop()
            spans[idx] = (name, t0, t1, parent)
        if count is not None:
            count(out, *args, **kwargs)
        return out

    return wrapper


def _patch(module, attr, name, count=None, scope=None):
    """Replace module.attr everywhere a convspectra module imported it."""
    orig = getattr(module, attr)
    wrapped = _span(name, orig, count, scope)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("convspectra"):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for verb, fn in cli._COMMANDS.items():
        if fn is orig:
            cli._COMMANDS[verb] = wrapped


# ---- counts, from arguments and return values ----


def _count_phase(out, nums_a, den_a, nums_b, den_b):
    na, nb = len(nums_a), len(nums_b)
    counts["phases.entries"] += na * nb
    if na == 0 or nb == 0:
        return
    max_a = max((abs(x) for row in nums_a for x in row), default=0)
    max_b = max((abs(x) for row in nums_b for x in row), default=0)
    modulus = den_a * den_b
    if len(nums_a[0]) * max_a * max_b >= _INT64_SAFE:
        counts["phases.bigint_entries"] += na * nb
    elif modulus >= _INT64_SAFE and modulus.bit_length() > 1020:
        counts["phases.subres_zeroed_calls"] += 1


def _count_hadamard(out, r, b, l, *rest, **kw):
    counts["triples.hadamard_entries"] += len(b) * len(l)


def _count_atoms(out, *args, **kw):
    counts["measures.atoms_built"] += len(out)


def _count_fourier(out, m, xis):
    counts["measures.fourier_terms"] += len(out) * len(m)


def _count_tail_calls(out, *args, **kw):
    counts["measures.tail_fourier_product_calls"] += 1


def _count_gram(out, m, lambda_set, *rest, **kw):
    counts["spectra.gram_bytes"] += out.size**2 * (16 + 8 + 8)


def _count_q_phases(out, m, lambda_set, xis):
    counts["spectra.q_phase_bytes"] += len(out) * len(lambda_set) * len(m) * (16 + 8 + 8)


def _count_scan(out, seq, tail_starts, depth, x_grid, y_radius, k_window=0, **kw):
    rad = Fraction(y_radius)
    yp = kw.get("y_pitch")
    ny = len(spectra._ball_grid(Fraction(yp) if yp is not None else rad / 8, rad, seq.dim))
    nx = len(out.per_x_witness) // len(out.tail_starts)
    nk = (2 * k_window + 1) ** seq.dim
    for start in out.tail_starts:
        for j in range(1, depth + 1):
            nb = len(_untraced_level(seq, start + j)[1])
            counts["spectra.scan_terms"] += nb * nx * ny * nk


def _count_report(rep, *args, **kw):
    if rep.artifact is not None:
        counts["cli.artifact_bytes"] += len(rep.artifact.encode("utf-8"))
    texts = list(rep.notes) + [c for t in rep.tables for row in t.rows for c in row]
    counts["cli.heuristic_verdicts"] += sum(
        1 for t in texts for v in _HEURISTIC if f"verdict {v}" in t or t == v
    )


def _install():
    for verb in cli._COMMANDS:
        _patch(cli, f"cmd_{verb}", "cli.command", _count_report)
    _patch(cli, "load_config", "cli.load_config")
    _patch(cli, "render_report", "cli.render_report")

    level = _untraced_level
    level_span = _span("sequences.digits", level)

    def traced_level(self, k):
        if k in self._levels or (self._last_big is not None and self._last_big[0] == k):
            return level(self, k)
        built = _built.setdefault(self, set())
        counts["sequences.level_builds"] += 1
        if k in built:
            counts["sequences.level_rebuilds"] += 1
        built.add(k)
        entry = level_span(self, k)
        counts["sequences.digits_built"] += len(entry[1])
        return entry

    sequences.TripleSequence._level = traced_level

    digits = sequences.TripleSequence.digits

    def traced_digits(self, k):
        out = digits(self, k)
        if _open_conditions[0]:
            counts["conditions.digits_scanned"] += len(out)
        return out

    sequences.TripleSequence.digits = traced_digits

    for name in ("equivalence_defect", "rbc_series", "pcc_series", "three_series",
                 "contractivity_report", "coupled_sample"):
        _patch(conditions, name, f"conditions.{name}", scope=_open_conditions)
    _patch(triples, "mod_reduce", "triples.mod_reduce")
    _patch(triples, "hadamard_check", "triples.hadamard_check", _count_hadamard)
    _patch(_phases, "exact_phase_matrix", "phases.exact_phase_matrix", _count_phase)
    _patch(_phases, "unit_exponentials", "phases.unit_exponentials")
    _patch(_phases, "common_denominator", "phases.common_denominator")
    _patch(measures, "mu_truncate", "measures.mu_truncate", _count_atoms)
    _patch(measures, "fourier_many", "measures.fourier_many", _count_fourier)
    _patch(measures, "tail_fourier_product", "measures.tail_fourier_product", _count_tail_calls)
    _patch(spectra, "spectrum_exactness", "spectra.spectrum_exactness", _count_gram)
    _patch(spectra, "q_eval_many", "spectra.q_eval_many", _count_q_phases)
    _patch(spectra, "equi_positivity_scan", "spectra.equi_positivity_scan", _count_scan)
    _patch(spectra, "build_spectrum", "spectra.build_spectrum")
    for name in ("invert", "product_range", "spectral_norm_upper"):
        _patch(exactmat, name, f"exactmat.{name}")


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    _install()
    run = _span("cli.main", cli.main)
    try:
        return run(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
