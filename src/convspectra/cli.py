"""Command-line front end: JSON configs in, reports and CSV artifacts out.

Subcommands
-----------
check     run the convergence / admissibility checks a config requests
spectrum  build candidate spectrum levels and verify exactness per level
qscan     evaluate the completeness functional Q on a rational grid (CSV)
sample    draw coupled random partial sums for a sequence pair (CSV)
equipos   scan tail transforms for a positive lower bound, then transfer it

Exit codes: 0 success, 1 a requested check failed (or another runtime
error), 2 config problem (levels past a finite sequence's length included),
3 a resource cap was hit (an atom or grid cap, or the byte budget of the
dense kernels).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

# CPython's built-in SHA-256, which hashlib itself falls back to: importing
# hashlib loads OpenSSL's libcrypto (about 3.5 MB of RSS) only for the digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from ._phases import _INT64_SAFE, PointRows, budget_rows, check_budget
from .conditions import (
    _PARTIALS_HEAD,
    VERDICT_CERTIFIED,
    VERDICT_CONVERGED,
    SERIES_CHECKS,
    check_series,
    coupled_sample,
    three_series,
)
from .errors import (
    ConvspectraError,
    DimensionTooLarge,
    GridTooLarge,
    IndexOutOfRange,
    MilestoneGap,
    ParseError,
    TruncationTooLarge,
    ValidationError,
    WorkingSetTooLarge,
)
from .exactmat import IntMatrix, invert
from .measures import DEFAULT_ATOM_CAP, mu_truncate
from .sequences import builtin_sequence, from_generator
from .spectra import (
    DEFAULT_FAIL_TOL,
    DEFAULT_GRID_CAP,
    _level_bounds,
    build_spectrum,
    equi_positivity_scan,
    first_lowest,
    perturbation_bound,
    q_eval_many,
    read_levels,
    write_levels,
)
from .triples import DEFAULT_UNITARITY_TOL, DigitSet, hadamard_check

__all__ = [
    "RunConfig",
    "Report",
    "Table",
    "parse_config",
    "load_config",
    "emit_config",
    "config_sha256",
    "render_report",
    "cmd_check",
    "cmd_spectrum",
    "cmd_qscan",
    "cmd_sample",
    "cmd_equipos",
    "main",
    "main_entry",
]

# ints at or past this magnitude are emitted as decimal strings so a JSON
# round trip through double-precision tooling cannot corrupt them
_BIG_INT = 1 << 53

_CHECK_NAMES = ("hadamard", "equivalence", "rbc", "pcc", "contractivity", "three-series")
_CHOOSERS = ("zero", "windowed-search")
_PASS_VERDICTS = (VERDICT_CERTIFIED, VERDICT_CONVERGED)

_TABLE_ROW_LIMIT = _PARTIALS_HEAD + 1  # long per-level tables show the head plus the final row
_CSV_BLOCK_ROWS = 4096  # sample CSV rows formatted per block


# ---------------------------------------------------------------------------
# config schema: every field kind is called as kind(value, path, bound, dim)
# and returns the normalized value, raising ParseError for shape or type and
# ValidationError for values; dim is the config's dimension once it is read


def _fail(path: str, msg: str):
    raise ParseError(f"field '{path}': {msg}")


def _as_int(value, path: str, minimum=None, dim=None):
    if isinstance(value, bool):
        _fail(path, "expected an integer, got a boolean")
    if isinstance(value, str):
        try:
            value = _str_int(value)
        except ValueError:
            _fail(path, f"not a decimal integer: {value!r}")
    if isinstance(value, float):
        _fail(path, "expected an integer (write big values as decimal strings)")
    if not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"field '{path}': must be >= {minimum}, got {value}")
    return value


def _as_rational(value, path: str, bound=None, dim=None):
    """Exact fields take positive ints or 'p/q' strings; floats are refused."""
    if isinstance(value, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(value, float):
        _fail(path, "exact fields take integers or 'p/q' strings, not floats")
    if isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"not a rational: {value!r}")
    else:
        _fail(path, "expected an integer or a 'p/q' string")
    if frac <= 0:
        raise ValidationError(f"field '{path}': must be positive, got {frac}")
    return str(frac)


def _as_float(value, path: str, bound=None, dim=None):
    """A positive, finite tolerance."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer past the double range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"field '{path}': must be finite, got {value}")
    if value <= 0:
        raise ValidationError(f"field '{path}': must be positive, got {value}")
    return value


def _as_bool(value, path: str, bound=None, dim=None):
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _as_str(value, path: str, bound=None, dim=None):
    if not isinstance(value, str):
        _fail(path, "expected a string")
    return value


def _at_least_one(items: list, path: str, noun: str) -> list:
    if not items:
        raise ValidationError(f"field '{path}': needs at least one {noun}")
    return items


def _as_int_list(value, path: str, bound, dim=None):
    """bound = (minimum of each entry, noun of the non-empty message)."""
    minimum, noun = bound
    if not isinstance(value, list):
        _fail(path, "expected a list of integers")
    items = [_as_int(v, f"{path}[{i}]", minimum) for i, v in enumerate(value)]
    return _at_least_one(items, path, noun)


def _as_choice(value, path: str, bound, dim=None):
    """bound = (noun, allowed names)."""
    noun, names = bound
    value = _as_str(value, path)
    if value not in names:
        raise ValidationError(
            f"field '{path}': unknown {noun} {value!r}; available: {', '.join(names)}"
        )
    return value


def _as_choices(value, path: str, bound, dim=None):
    """A non-empty list of choices, duplicates dropped in first-seen order."""
    if not isinstance(value, list):
        _fail(path, f"expected a list of {bound[0]} names")
    picked = dict.fromkeys(_as_choice(v, f"{path}[{i}]", bound) for i, v in enumerate(value))
    return _at_least_one(list(picked), path, bound[0])


def _as_vector_list(value, path: str, least=None, dim=None):
    """Integer vectors of `dim` components; a `least` bound counts digits."""
    if not isinstance(value, list):
        _fail(path, "expected a list of integer vectors")
    out = []
    for i, vec in enumerate(value):
        if not isinstance(vec, list):
            _fail(f"{path}[{i}]", "expected an integer vector")
        if len(vec) != dim:
            raise ValidationError(
                f"field '{path}[{i}]': expected {dim} components, got {len(vec)}"
            )
        out.append([_as_int(c, f"{path}[{i}][{j}]") for j, c in enumerate(vec)])
    if least is not None and len(out) < least:
        raise ValidationError(f"field '{path}': needs at least {least} digits, got {len(out)}")
    return out


def _as_matrix(value, path: str, bound=None, dim=None):
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(f"field '{path}': expected {dim} rows")
    return _as_vector_list(value, path, dim=dim)


def _as_params(value, path: str, section, dim=None):
    """A section that is left out of the normalized doc when empty."""
    return _walk(value, path, section, dim) or None


def _as_levels(value, path: str, section, dim=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of level objects")
    levels = [_walk(row, f"{path}[{i}]", section, dim) for i, row in enumerate(value)]
    return _at_least_one(levels, path, "level")


# sections that take exactly one field of a pair
_EXACTLY_ONE = {
    "sequence": ("generator", "inline"),
    "qscan": ("lambda", "spectrum_file"),
}


def _walk(obj, path: str, section: str, dim=None) -> dict:
    """Normalize one object against its section of the field table; this is
    also the field kind of a nested section."""
    fields = _FIELDS[section]
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in fields:
            _fail(f"{path}.{key}" if path else key, "unknown field")
    for name, (_, _, required) in fields.items():
        if required and name not in obj:
            if section == "level":
                _fail(path, "each level needs 'matrix' and 'digits'")
            raise ValidationError(
                f"field '{path}': '{name}' is required" if path else f"field '{name}' is required"
            )
    pair = _EXACTLY_ONE.get(section)
    if pair and (pair[0] in obj) == (pair[1] in obj):
        raise ValidationError(f"field '{path}': give exactly one of '{pair[0]}' or '{pair[1]}'")
    out = {}
    for name, (kind, bound, _) in fields.items():
        if name in obj:
            value = kind(obj[name], f"{path}.{name}" if path else name, bound, dim)
            if value is not None:
                out[name] = value
            dim = out.get("dimension", dim)
    return out


# Every config field, once: section -> {field: (kind, bound, required)}, in
# the order the fields are read.  The bound is the kind's third argument: an
# integer minimum, (minimum, noun) for integer lists, (noun, names) for
# choices, or the section a nested object follows; rationals and floats are
# always positive.  The normalized doc holds exactly the fields a config
# gives; defaults live in the cmd_* drivers, so the emission and
# config_sha256 never depend on them.
_FIELDS = {
    "": {
        "dimension": (_as_int, 1, True),
        "sequence": (_walk, "sequence", True),
        "check": (_walk, "check", False),
        "spectrum": (_walk, "spectrum", False),
        "qscan": (_walk, "qscan", False),
        "sample": (_walk, "sample", False),
        "equipos": (_walk, "equipos", False),
        "seed": (_as_int, None, False),
        "max_atoms": (_as_int, 1, False),
        "tol": (_as_float, None, False),
        "out": (_as_str, None, False),
        "grid_pitch": (_as_rational, None, False),
    },
    "sequence": {
        "generator": (_as_str, None, False),
        "params": (_as_params, "params", False),
        "inline": (_as_levels, "level", False),
    },
    "params": {"max_k": (_as_int, 1, False)},
    "level": {
        "matrix": (_as_matrix, None, True),
        "digits": (_as_vector_list, 2, True),
        "spectrum_digits": (_as_vector_list, None, False),
    },
    "check": {
        "upto": (_as_int, 1, False),
        "hadamard_upto": (_as_int, 1, False),
        "equivalence_upto": (_as_int, 1, False),
        "checks": (_as_choices, ("check", _CHECK_NAMES), False),
        "pcc_l": (_as_rational, None, False),
        "three_series_radius": (_as_rational, None, False),
    },
    "spectrum": {
        "milestones": (_as_int_list, (1, "level"), True),
        "chooser": (_as_choice, ("chooser", _CHOOSERS), False),
        "search_radius": (_as_int, 1, False),
        "search_depth": (_as_int, 1, False),
        "delta0": (_as_rational, None, False),
        "exactness": (_as_bool, None, False),
    },
    "qscan": {
        "truncation": (_as_int, 0, True),
        "lambda": (_as_vector_list, None, False),
        "spectrum_file": (_as_str, None, False),
        "grid_pitch": (_as_rational, None, False),
        "grid_cap": (_as_int, 1, False),
    },
    "sample": {
        "upto": (_as_int, 1, True),
        "draws": (_as_int, 1, True),
        "pair_with_reduced": (_as_bool, None, False),
        "scaled": (_as_bool, None, False),
    },
    "equipos": {
        "depth": (_as_int, 1, True),
        "y_radius": (_as_rational, None, True),
        "tail_starts": (_as_int_list, (0, "start"), False),
        "x_pitch": (_as_rational, None, False),
        "y_pitch": (_as_rational, None, False),
        "k_window": (_as_int, 0, False),
        "reduced": (_as_bool, None, False),
        "transfer_upto": (_as_int, 1, False),
        "fail_tol": (_as_float, None, False),
        "grid_cap": (_as_int, 1, False),
    },
}

class RunConfig(NamedTuple):
    """A parsed, normalized configuration document."""

    doc: dict

    @property
    def dimension(self) -> int:
        return self.doc["dimension"]

    def top(self, key, default=None):
        return self.doc.get(key, default)

    def section(self, name: str) -> dict:
        return self.doc.get(name, {})

    def with_top(self, **overrides) -> "RunConfig":
        """New config with non-None overrides applied at the top level; only
        the overridden fields are read again, in the field table's order."""
        given = {key: value for key, value in overrides.items() if value is not None}
        if not given:
            return self
        top = _FIELDS[""]
        for key in given:
            if key not in top:
                _fail(key, "unknown field")
        doc = dict(self.doc)
        for name, (kind, bound, _) in top.items():
            if name in given:
                doc[name] = kind(given[name], name, bound, self.dimension)
        return RunConfig(doc)

    def build_sequence(self):
        spec = self.doc["sequence"]
        if "generator" in spec:
            seq = builtin_sequence(spec["generator"], **spec.get("params", {}))
        else:
            levels = []
            for row in spec["inline"]:
                r = IntMatrix(tuple(tuple(v) for v in row["matrix"]))
                b = DigitSet.of(row["digits"])
                l = None
                if "spectrum_digits" in row:
                    l = DigitSet.of(row["spectrum_digits"])
                levels.append((r, b, l))

            def gen(k: int):
                return levels[k - 1]

            seq = from_generator(gen, self.dimension, length=len(levels), name="inline")
        if seq.dim != self.dimension:
            raise ValidationError(
                f"sequence has dimension {seq.dim}, config says {self.dimension}"
            )
        return seq


def _unique_keys(pairs) -> dict:
    """json object hook: a repeated key is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    return RunConfig(_walk(doc, "", ""))


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _stringify_big(node):
    if isinstance(node, bool):
        return node
    if isinstance(node, int):
        return _int_str(node) if abs(node) >= _BIG_INT else node
    if isinstance(node, list):
        return [_stringify_big(v) for v in node]
    if isinstance(node, dict):
        return {k: _stringify_big(v) for k, v in node.items()}
    return node


def emit_config(cfg: RunConfig) -> str:
    """Canonical emission: sorted keys, big ints as decimal strings."""
    return json.dumps(_stringify_big(cfg.doc), sort_keys=True, indent=2) + "\n"


def config_sha256(cfg: RunConfig) -> str:
    return sha256(emit_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# reports


class Table(NamedTuple):
    title: str
    headers: tuple
    rows: tuple


class Report(NamedTuple):
    command: str
    config_sha256: str
    tables: tuple
    verdicts: dict
    ok: bool
    wall_time_s: float
    notes: tuple = ()
    artifact: str | None = None
    artifact_name: str = ""


def _int_str(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit (4300
    digits by default): the digits go out in chunks of a thousand."""
    try:
        return str(n)
    except ValueError:
        head, tail = divmod(abs(n), 10**1000)
        return ("-" if n < 0 else "") + _int_str(head) + f"{tail:01000d}"


def _str_int(text: str) -> int:
    """int(text, 10), also past the interpreter's str-to-int digit limit:
    a plain run of ASCII digits, with an optional sign, is read in chunks of
    a thousand digits."""
    try:
        return int(text, 10)
    except ValueError:
        body = text.strip()
        sign, digits = (body[0], body[1:]) if body[:1] in ("+", "-") else ("", body)
        if len(digits) <= 1000 or not (digits.isascii() and digits.isdigit()):
            raise
        head, tail = _str_int(sign + digits[:-1000]), int(digits[-1000:])
        return head * 10**1000 + (-tail if sign == "-" else tail)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, Fraction):
        num = _int_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_int_str(value.denominator)}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _table(title, headers, rows) -> Table:
    return Table(title, tuple(headers), tuple(tuple(_fmt(c) for c in r) for r in rows))


def _clip_rows(rows, limit: int = _TABLE_ROW_LIMIT):
    """Head of a long table plus its final row; note says what was elided."""
    rows = list(rows)
    if len(rows) <= limit:
        return rows, None
    kept = rows[: limit - 1] + [rows[-1]]
    return kept, f"table clipped: showing {limit - 1} of {len(rows)} rows plus the last"


def render_report(rep: Report, wall_time: bool = True) -> str:
    lines = [f"convspectra {rep.command}", f"config sha256: {rep.config_sha256}"]
    for tab in rep.tables:
        lines.append("")
        lines.append(f"== {tab.title} ==")
        widths = [len(h) for h in tab.headers]
        for row in tab.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(tab.headers)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in tab.rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    if rep.notes:
        lines.append("")
        for note in rep.notes:
            lines.append(f"note: {note}")
    lines.append("")
    if rep.verdicts:
        lines.append(
            "verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(rep.verdicts.items()))
        )
    lines.append(f"overall: {'PASS' if rep.ok else 'FAIL'}")
    if wall_time:
        lines.append(f"wall time: {rep.wall_time_s:.3f} s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command drivers


def _series_table(title, diag, value_header="term"):
    # the series holds the partial sums of the rows a clipped table keeps
    held = diag.partial_sums
    sums = held[:-1] + (None,) * (len(diag.terms) - len(held)) + held[-1:]
    kept, clip_note = _clip_rows(zip(diag.indices, diag.terms, sums))
    notes = [f"{title}: verdict {diag.verdict} ({diag.bound_used})"]
    if clip_note:
        notes.append(f"{title}: {clip_note}")
    return _table(title, ("level", value_header, "partial"), kept), notes


def cmd_check(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("check")
    upto = sec.get("upto", 20)
    hadamard_upto = sec.get("hadamard_upto", min(upto, 8))
    equivalence_upto = sec.get("equivalence_upto", upto)
    if seq.length is not None:
        upto = min(upto, seq.length)
        hadamard_upto = min(hadamard_upto, seq.length)
        equivalence_upto = min(equivalence_upto, seq.length)
    requested = sec.get("checks", list(_CHECK_NAMES))
    pcc_l = Fraction(sec.get("pcc_l", "1/4"))
    radius = Fraction(sec.get("three_series_radius", "1"))
    tol = cfg.top("tol", DEFAULT_UNITARITY_TOL)

    tables, verdicts, notes = [], {}, []

    if "hadamard" in requested:
        rows, ok_h = [], True
        for k in range(1, hadamard_upto + 1):
            r, b = seq.matrix(k), seq.digits(k)
            l = seq.spectrum_digits(k)
            if l is None:
                rows.append((k, len(b), "-", "no spectrum digits"))
                ok_h = False
                continue
            res = hadamard_check(r, b, l, tol)
            rows.append((k, len(b), f"{res.max_deviation:.3e}", res.ok))
            ok_h = ok_h and res.ok
        tables.append(_table("hadamard", ("level", "#digits", "deviation", "ok"), rows))
        verdicts["hadamard"] = "pass" if ok_h else "fail"

    series = check_series(
        seq,
        [name for name in SERIES_CHECKS if name in requested],
        upto,
        equivalence_upto=equivalence_upto,
        pcc_l=pcc_l,
    )
    if "equivalence" in series:
        diag = series["equivalence"]
        tab, extra = _series_table("equivalence defect vs reduced", diag, "defect")
        tables.append(tab)
        notes.extend(extra)
        verdicts["equivalence"] = "pass" if diag.verdict in _PASS_VERDICTS else "fail"

    if "rbc" in series:
        diag = series["rbc"]
        tab, extra = _series_table("restricted boundedness series", diag)
        tables.append(tab)
        notes.extend(extra)
        notes.append(
            f"restricted boundedness series: final partial (exact) {_fmt(diag.partial_sums[-1])}"
        )
        verdicts["rbc"] = "pass" if diag.verdict in _PASS_VERDICTS else "fail"

    if "pcc" in series:
        diag = series["pcc"]
        tab, extra = _series_table(f"positive-cone series at l = {pcc_l}", diag, "far-fraction")
        tables.append(tab)
        notes.extend(extra)
        notes.append(
            f"positive-cone series: min margin {diag.min_margin:.6g}, "
            f"margin ok: {'yes' if diag.margin_ok else 'no'}"
        )
        verdicts["pcc"] = (
            "pass" if diag.margin_ok and diag.verdict in _PASS_VERDICTS else "fail"
        )

    if "contractivity" in series:
        rep_c = series["contractivity"]
        tables.append(
            _table(
                "uniform contractivity",
                ("norm upper bound", "worst level", "declared", "verdict"),
                [
                    (
                        f"{rep_c.max_norm_upper:.6g}",
                        rep_c.at_level,
                        rep_c.declared if rep_c.declared is not None else "-",
                        rep_c.verdict,
                    )
                ],
            )
        )
        notes.append(f"uniform contractivity: {rep_c.detail}")
        verdicts["contractivity"] = "pass" if rep_c.verdict == "verified" else "fail"

    if "three-series" in requested:
        parts = three_series(seq, radius, upto)
        rows = [
            (d.name, _fmt(d.partial_sums[-1]) if d.partial_sums else "0", d.verdict, d.bound_used)
            for d in parts
        ]
        tables.append(
            _table(
                f"three-series at radius {radius}",
                ("series", "final partial", "verdict", "basis"),
                rows,
            )
        )
        ok_t = all(d.verdict in _PASS_VERDICTS for d in parts)
        verdicts["three-series"] = "pass" if ok_t else "fail"

    ok = bool(verdicts) and all(v == "pass" for v in verdicts.values())
    return Report(
        command="check",
        config_sha256=config_sha256(cfg),
        tables=tuple(tables),
        verdicts=verdicts,
        ok=ok,
        wall_time_s=time.perf_counter() - t0,
        notes=tuple(notes),
    )


def cmd_spectrum(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("spectrum")
    if cfg.top("out") is None:
        raise ValidationError("spectrum requires an output path ('out' or --out)")
    milestones = sec["milestones"]
    chooser = sec.get("chooser", "zero")
    delta0 = Fraction(sec["delta0"]) if "delta0" in sec else None
    max_atoms = cfg.top("max_atoms", DEFAULT_ATOM_CAP)
    tol = cfg.top("tol", DEFAULT_UNITARITY_TOL)
    want_exactness = sec.get("exactness", True)

    sp = build_spectrum(
        seq,
        milestones,
        chooser,
        search_radius=sec.get("search_radius", 2),
        search_depth=sec.get("search_depth", 2),
        delta0=delta0,
        max_atoms=max_atoms,
    )

    rows, ok = [], True
    bounds = _level_bounds(seq, sp.milestones) if want_exactness else [None] * len(sp.levels)
    for j, (m, level, bound) in enumerate(zip(sp.milestones, sp.levels, bounds), start=1):
        if want_exactness:
            passed = bound <= tol
            rows.append((j, m, len(level), f"{bound:.3e}", passed))
            ok = ok and passed
        else:
            rows.append((j, m, len(level), "-", "skipped"))
    tables = [
        _table(
            "candidate spectrum levels",
            ("j", "milestone", "atoms", "exactness dev", "ok"),
            rows,
        )
    ]
    notes = [f"chooser: {sp.chooser}; nonzero offset choices: {len(sp.k_choices)}"]

    buf = io.StringIO()
    write_levels(sp, buf)
    return Report(
        command="spectrum",
        config_sha256=config_sha256(cfg),
        tables=tuple(tables),
        verdicts={"exactness": "pass" if ok else "fail"} if want_exactness else {},
        ok=ok,
        wall_time_s=time.perf_counter() - t0,
        notes=tuple(notes),
        artifact=buf.getvalue(),
        artifact_name="spectrum levels",
    )


def _qscan_point_bytes(den: int, dim: int) -> int:
    """Bytes per grid point that `qscan` holds at most: its integer row twice
    (the axis grids and their stack), q as a float and as a listed Python
    float, its cell string, and its CSV line three times (a bound on the
    StringIO buffer with its slack and the value it returns).  A cell takes
    at most dim·(2·len(str(den)) + 2) characters and a "%.17g" field 24."""
    cell = dim * (2 * len(str(den)) + 2)
    return 16 * dim + 8 + 32 + 64 + cell + 3 * (cell + 26)


def _unit_grid(pitch: Fraction, dim: int, cap: int):
    """pitch * Z^d ∩ [0, 1)^d in lexicographic order, as (points, axis): the
    points as integer rows over the pitch's denominator (int64 below 2^62)
    and one string per value of an axis.  The point count is checked against
    `cap`, and what `qscan` holds for that many points against the byte
    budget, before anything is built."""
    step, den = pitch.numerator, pitch.denominator
    count = -(-den // step)  # ⌈1/pitch⌉ points per axis
    total = count**dim
    if total > cap:
        raise GridTooLarge(f"grid of {total} points exceeds the cap of {cap}")
    check_budget(total * _qscan_point_bytes(den, dim), f"a qscan over {total} points in dimension {dim}")
    n = np.arange(count, dtype=np.int64 if den < _INT64_SAFE else object)
    rows = np.stack(np.meshgrid(*[n * step] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    g = np.gcd(n, den)  # the gcd of n * step and den, as gcd(step, den) = 1
    axis = [f"{a}/{b}" if b > 1 else f"{a}" for a, b in zip((n * step // g).tolist(), (den // g).tolist())]
    return PointRows(rows, den), axis


def cmd_qscan(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("qscan")
    dim = cfg.dimension
    pitch_raw = cfg.top("grid_pitch", sec.get("grid_pitch"))
    if pitch_raw is None:
        raise ValidationError("qscan requires a grid pitch ('qscan.grid_pitch' or --grid-pitch)")
    pitch = Fraction(pitch_raw)
    cap = sec.get("grid_cap", 1_000_000)
    max_atoms = cfg.top("max_atoms", DEFAULT_ATOM_CAP)

    if "lambda" in sec:
        lams = sec["lambda"]
        source = f"explicit list of {len(lams)} vectors"
    else:
        path = sec["spectrum_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sp = read_levels(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read spectrum file {path}: {exc.strerror or exc}") from None
        if sp.dim != dim:
            raise ValidationError(f"spectrum file has dimension {sp.dim}, config says {dim}")
        lams = sp.final()
        source = f"final level of {path} ({len(lams)} vectors)"

    xs, axis = _unit_grid(pitch, dim, cap)
    mu = mu_truncate(seq, sec["truncation"], max_atoms=max_atoms)

    values = q_eval_many(mu, lams, xs).tolist()

    # the coordinate cells of every point, in grid order
    cells = axis
    for _ in range(dim - 1):
        cells = [f"{a},{b}" for a in cells for b in axis]
    out = io.StringIO()
    out.write(",".join([f"xi{i + 1}" for i in range(dim)] + ["q"]) + "\n")
    out.writelines(f"{x},{q:.17g}\n" for x, q in zip(cells, values))

    rows = [("points", len(xs), "-")]  # the grid holds at least the origin
    for name, pick in (("min q", min), ("max q", max)):
        i = pick(range(len(values)), key=values.__getitem__)  # the first extreme
        rows.append((name, f"{values[i]:.17g}", f"({cells[i].replace(',', ', ')})"))
    tables = [_table("completeness functional scan", ("quantity", "value", "at"), rows)]
    notes = [f"truncation level {sec['truncation']}, pitch {pitch}, lambda from {source}"]
    return Report(
        command="qscan",
        config_sha256=config_sha256(cfg),
        tables=tuple(tables),
        verdicts={},
        ok=True,
        wall_time_s=time.perf_counter() - t0,
        notes=tuple(notes),
        artifact=out.getvalue(),
        artifact_name="q values",
    )


def _sample_bytes(draws: int, dim: int) -> tuple:
    """(bytes per draw, fixed bytes) that `sample` holds at most.

    Per draw: the float x and y sums, and the largest of three phases that
    follow each other.  Drawing holds one level's draws, indices and masks
    (ten int64 and two bool arrays) and the Philox kernel's scratch beside
    its output (a copy of each draw's word and two words of partial
    products: 24 bytes).  Gathering holds the draws, both index arrays and
    the mismatch mask (25 bytes) with at most four arrays of float rows: a
    side's table of the level's digits (built only when it has at most
    `draws` rows), the parts it is joined from, and both sides' gathered
    rows.  These are gone when `coupled_sample` returns.  Writing holds the
    CSV text twice (the buffer and its value).  Fixed: one CSV block, its
    fields as Python floats and ints in a list and a tuple, its format
    string (no longer than its text) and its text.  A "%.17g" field takes
    at most 24 characters."""
    text = len(str(draws - 1)) + 2 * dim * 25 + 1
    per_draw = 16 * dim + max(82 + 24, 25 + 32 * dim, 2 * text)
    per_row = 2 * dim * 32 + (2 * dim + 1) * 16 + 32 + 2 * text
    return per_draw, _CSV_BLOCK_ROWS * per_row


def cmd_sample(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("sample")
    seed = cfg.top("seed")
    if seed is None:
        raise ValidationError("sample requires a seed ('seed' or --seed)")
    upto, draws = sec["upto"], sec["draws"]
    dim = seq.dim
    per_draw, fixed = _sample_bytes(draws, dim)
    fits = budget_rows(per_draw, fixed, f"a sample in dimension {dim}")
    if draws > fits:
        raise WorkingSetTooLarge(
            f"a sample of {draws} draws in dimension {dim} needs {fixed + draws * per_draw} "
            f"bytes; at most {fits} draws fit the dense byte budget"
        )
    partner = seq.reduced() if sec.get("pair_with_reduced", True) else seq
    scaled = sec.get("scaled", True)

    def level_scale(k):
        return invert(seq.prefix_matrix(k))

    rep_c = coupled_sample(
        seq, partner, upto, draws, seed, scale_by=level_scale if scaled else None
    )

    rows = [
        (lv.k, lv.exact_p, f"{lv.empirical:.6g}", lv.mismatches)
        for lv in rep_c.levels
    ]
    kept, clip_note = _clip_rows(rows)
    tables = [
        _table(
            "per-level digit mismatch",
            ("level", "exact p", "empirical", "mismatches"),
            kept,
        )
    ]
    notes = [
        f"seed {seed}, draws {draws}, "
        f"partner: {'reduced' if sec.get('pair_with_reduced', True) else 'same'}, "
        f"sums: {'prefix-scaled' if scaled else 'raw digits'}",
        f"final exact mismatch partial: {_fmt(rep_c.exact_partials[-1])}",
    ]
    if clip_note:
        notes.append(clip_note)

    out = io.StringIO()
    header = (
        ["draw"]
        + [f"x{i + 1}" for i in range(dim)]
        + [f"y{i + 1}" for i in range(dim)]
    )
    out.write(",".join(header) + "\n")
    line = "%d" + ",%.17g" * (2 * dim) + "\n"
    width = 2 * dim + 1  # fields per row
    for lo in range(0, draws, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, draws)
        # one format of the whole block, its fields interleaved row by row
        fields = [0] * ((hi - lo) * width)
        fields[::width] = range(lo, hi)
        for j, col in enumerate([*rep_c.x_sums[lo:hi].T, *rep_c.y_sums[lo:hi].T], 1):
            fields[j::width] = col.tolist()
        out.write(line * (hi - lo) % tuple(fields))

    return Report(
        command="sample",
        config_sha256=config_sha256(cfg),
        tables=tuple(tables),
        verdicts={},
        ok=True,
        wall_time_s=time.perf_counter() - t0,
        notes=tuple(notes),
        artifact=out.getvalue(),
        artifact_name="coupled partial sums",
    )


def cmd_equipos(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("equipos")
    pitch_raw = cfg.top("grid_pitch", sec.get("x_pitch"))
    if pitch_raw is None:
        raise ValidationError("equipos requires an x pitch ('equipos.x_pitch' or --grid-pitch)")
    use_reduced = sec.get("reduced", True)
    scan_seq = seq.reduced() if use_reduced else seq
    if "transfer_upto" in sec and seq.defect_tail_bound is None:
        raise ValidationError("transfer requested but the sequence declares no defect tail bound")

    scan = equi_positivity_scan(
        scan_seq,
        sec.get("tail_starts", [0]),
        sec["depth"],
        Fraction(pitch_raw),
        Fraction(sec["y_radius"]),
        sec.get("k_window", 0),
        y_pitch=Fraction(sec["y_pitch"]) if "y_pitch" in sec else None,
        fail_tol=sec.get("fail_tol", DEFAULT_FAIL_TOL),
        grid_cap=sec.get("grid_cap", DEFAULT_GRID_CAP),
    )

    rows = [
        ("status", scan.status, "-"),
        ("epsilon0", f"{scan.epsilon0:.17g}", "-"),
        ("scanned minimum", f"{scan.scanned_epsilon0:.17g}", "-"),
        ("y-ball radius", f"{scan.delta0:.6g}", "-"),
        ("depth", scan.depth, "-"),
        ("k window", scan.k_window, "-"),
        (
            "truncation floor",
            f"{scan.truncation_floor:.6g}" if scan.truncation_floor is not None else "-",
            "-",
        ),
    ]
    tables = [_table("tail transform scan", ("quantity", "value", "at"), rows)]
    notes = [f"x grid: {scan.scanned_xs}", f"scanned: {'reduced' if use_reduced else 'original'} sequence"]
    if scan.truncation_note:
        notes.append(f"truncation floor: {scan.truncation_note}")
    if scan.failed_at is not None:
        notes.append(f"first failure at (start, x) = {_fmt(scan.failed_at)}")

    witnesses = [scan.witness(i) for i in first_lowest(scan.witness_values.ravel(), 5)]
    if witnesses:
        wrows = [
            (start, _fmt(x), k, f"{val:.6g}")
            for (start, x), (k, val) in witnesses
        ]
        tables.append(
            _table("worst scan witnesses", ("start", "x", "best k", "value"), wrows)
        )

    verdicts = {"witnessed": "pass" if scan.status == "witnessed" else "fail"}
    ok = scan.status == "witnessed"

    if "transfer_upto" in sec:
        upto = sec["transfer_upto"]
        tv = 2 * Fraction(seq.defect_tail_bound(upto))
        if ok:
            try:
                transferred = perturbation_bound(float(tv), scan.epsilon0)
                tables.append(
                    _table(
                        "perturbation transfer",
                        ("tail start", "tv bound", "epsilon0", "transferred bound"),
                        [(upto, tv, f"{scan.epsilon0:.6g}", f"{transferred:.6g}")],
                    )
                )
                verdicts["transfer"] = "pass"
            except ConvspectraError as exc:
                notes.append(f"perturbation transfer failed: {exc}")
                verdicts["transfer"] = "fail"
                ok = False
        else:
            notes.append("perturbation transfer skipped: scan did not witness a bound")
            verdicts["transfer"] = "fail"

    return Report(
        command="equipos",
        config_sha256=config_sha256(cfg),
        tables=tuple(tables),
        verdicts=verdicts,
        ok=ok,
        wall_time_s=time.perf_counter() - t0,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# entry points

_COMMANDS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "qscan": cmd_qscan,
    "sample": cmd_sample,
    "equipos": cmd_equipos,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")
    common.add_argument("--out", help="write the artifact (or report) to this path")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument(
        "--max-atoms", type=int, dest="max_atoms", help="override the atom cap"
    )
    common.add_argument(
        "--grid-pitch", dest="grid_pitch", help="override the scan pitch (p/q)"
    )
    common.add_argument("--tol", type=float, help="override the unitarity tolerance")

    parser = argparse.ArgumentParser(
        prog="convspectra",
        description="finite truncations of infinite digit convolutions: "
        "checks, candidate spectra, and scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "run the requested convergence and admissibility checks",
        "spectrum": "build candidate spectrum levels and verify exactness",
        "qscan": "evaluate the completeness functional on a grid (CSV)",
        "sample": "draw coupled random partial sums (CSV)",
        "equipos": "scan tail transforms for a positive lower bound",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        cfg = load_config(args.config)
        cfg = cfg.with_top(
            seed=args.seed,
            max_atoms=args.max_atoms,
            tol=args.tol,
            out=args.out,
            grid_pitch=args.grid_pitch,
        )
        rep = _COMMANDS[args.command](cfg)
    except (ParseError, ValidationError, IndexOutOfRange, MilestoneGap) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationTooLarge, GridTooLarge, DimensionTooLarge, WorkingSetTooLarge) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ConvspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = cfg.top("out")
    if rep.artifact is not None:
        if out:
            Path(out).write_text(rep.artifact, encoding="utf-8")
            sys.stdout.write(render_report(rep))
        else:
            sys.stdout.write(rep.artifact)
    else:
        if out:
            Path(out).write_text(render_report(rep), encoding="utf-8")
        sys.stdout.write(render_report(rep))
    return 0 if rep.ok else 1


def main_entry() -> None:
    # The imports' objects live as long as the process: frozen, they are
    # skipped by the collections during the command and at shutdown.
    gc.freeze()
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
