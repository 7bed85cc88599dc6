"""Command-line front end: JSON configs in, reports and CSV artifacts out.

Subcommands
-----------
check     run the convergence / admissibility checks a config requests
spectrum  build candidate spectrum levels and verify exactness per level
qscan     evaluate the completeness functional Q on a rational grid (CSV)
sample    draw coupled random partial sums for a sequence pair (CSV)
equipos   scan tail transforms for a positive lower bound, then transfer it

Exit codes: 0 success, 1 a requested check failed (or another runtime
error), 2 config problem, 3 a resource cap was hit (an atom or grid cap, or
the byte budget of the dense kernels).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path

from ._phases import PHASE_ENTRY_BYTES, budget_rows
from .conditions import (
    VERDICT_CERTIFIED,
    VERDICT_CONVERGED,
    contractivity_report,
    coupled_sample,
    equivalence_defect,
    pcc_series,
    rbc_series,
    three_series,
)
from .errors import (
    ConvspectraError,
    DimensionTooLarge,
    GridTooLarge,
    ParseError,
    TruncationTooLarge,
    ValidationError,
    WorkingSetTooLarge,
)
from .exactmat import IntMatrix
from .measures import DEFAULT_ATOM_CAP, mu_truncate
from .sequences import builtin_sequence, from_generator
from .spectra import (
    DEFAULT_EXACTNESS_TOL,
    DEFAULT_FAIL_TOL,
    DEFAULT_GRID_CAP,
    build_spectrum,
    equi_positivity_scan,
    perturbation_bound,
    q_eval_many,
    read_levels,
    spectrum_exactness,
    write_levels,
)
from .triples import DigitSet, hadamard_check

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

_TABLE_ROW_LIMIT = 24  # long per-level tables show the head plus the final row


# ---------------------------------------------------------------------------
# config field readers: ParseError for shape/type, ValidationError for values


def _fail(path: str, msg: str):
    raise ParseError(f"field '{path}': {msg}")


def _check_keys(obj, allowed, path: str):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")


def _as_int(value, path: str, minimum=None):
    if isinstance(value, bool):
        _fail(path, "expected an integer, got a boolean")
    if isinstance(value, str):
        try:
            value = int(value, 10)
        except ValueError:
            _fail(path, f"not a decimal integer: {value!r}")
    if isinstance(value, float):
        _fail(path, "expected an integer (write big values as decimal strings)")
    if not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"field '{path}': must be >= {minimum}, got {value}")
    return value


def _as_rational(value, path: str, positive=False):
    """Exact fields take ints or 'p/q' strings; floats are refused."""
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
    if positive and frac <= 0:
        raise ValidationError(f"field '{path}': must be positive, got {frac}")
    return str(frac)


def _as_float(value, path: str, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    value = float(value)
    if positive and value <= 0:
        raise ValidationError(f"field '{path}': must be positive, got {value}")
    return value


def _as_bool(value, path: str):
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _as_str(value, path: str):
    if not isinstance(value, str):
        _fail(path, "expected a string")
    return value


def _as_int_list(value, path: str, minimum=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of integers")
    return [_as_int(v, f"{path}[{i}]", minimum=minimum) for i, v in enumerate(value)]


def _as_vector_list(value, path: str, dim: int):
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
    return out


# ---------------------------------------------------------------------------
# section normalizers


def _norm_sequence(sec, dim: int):
    _check_keys(sec, ("generator", "params", "inline"), "sequence")
    has_gen = "generator" in sec
    has_inline = "inline" in sec
    if has_gen == has_inline:
        raise ValidationError(
            "field 'sequence': give exactly one of 'generator' or 'inline'"
        )
    out = {}
    if has_gen:
        out["generator"] = _as_str(sec["generator"], "sequence.generator")
        params = sec.get("params", {})
        _check_keys(params, ("max_k",), "sequence.params")
        norm = {}
        if "max_k" in params:
            norm["max_k"] = _as_int(params["max_k"], "sequence.params.max_k", minimum=1)
        if norm:
            out["params"] = norm
    else:
        rows = sec["inline"]
        if not isinstance(rows, list):
            _fail("sequence.inline", "expected a list of level objects")
        if not rows:
            raise ValidationError("field 'sequence.inline': needs at least one level")
        levels = []
        for i, row in enumerate(rows):
            path = f"sequence.inline[{i}]"
            _check_keys(row, ("matrix", "digits", "spectrum_digits"), path)
            if "matrix" not in row or "digits" not in row:
                _fail(path, "each level needs 'matrix' and 'digits'")
            mat = row["matrix"]
            if not isinstance(mat, list) or len(mat) != dim:
                raise ValidationError(f"field '{path}.matrix': expected {dim} rows")
            matrix = _as_vector_list(mat, f"{path}.matrix", dim)
            digits = _as_vector_list(row["digits"], f"{path}.digits", dim)
            if len(digits) < 2:
                raise ValidationError(
                    f"field '{path}.digits': needs at least 2 digits, got {len(digits)}"
                )
            level = {"matrix": matrix, "digits": digits}
            if "spectrum_digits" in row:
                level["spectrum_digits"] = _as_vector_list(
                    row["spectrum_digits"], f"{path}.spectrum_digits", dim
                )
            levels.append(level)
        out["inline"] = levels
    return out


def _norm_check(sec):
    _check_keys(
        sec,
        ("upto", "hadamard_upto", "checks", "pcc_l", "three_series_radius", "equivalence_upto"),
        "check",
    )
    out = {}
    if "upto" in sec:
        out["upto"] = _as_int(sec["upto"], "check.upto", minimum=1)
    if "hadamard_upto" in sec:
        out["hadamard_upto"] = _as_int(sec["hadamard_upto"], "check.hadamard_upto", minimum=1)
    if "equivalence_upto" in sec:
        out["equivalence_upto"] = _as_int(
            sec["equivalence_upto"], "check.equivalence_upto", minimum=1
        )
    if "checks" in sec:
        names = sec["checks"]
        if not isinstance(names, list):
            _fail("check.checks", "expected a list of check names")
        seen = []
        for i, name in enumerate(names):
            name = _as_str(name, f"check.checks[{i}]")
            if name not in _CHECK_NAMES:
                raise ValidationError(
                    f"field 'check.checks[{i}]': unknown check {name!r}; "
                    f"available: {', '.join(_CHECK_NAMES)}"
                )
            if name not in seen:
                seen.append(name)
        if not seen:
            raise ValidationError("field 'check.checks': needs at least one check")
        out["checks"] = seen
    if "pcc_l" in sec:
        out["pcc_l"] = _as_rational(sec["pcc_l"], "check.pcc_l", positive=True)
    if "three_series_radius" in sec:
        out["three_series_radius"] = _as_rational(
            sec["three_series_radius"], "check.three_series_radius", positive=True
        )
    return out


def _norm_spectrum(sec):
    _check_keys(
        sec,
        ("milestones", "chooser", "search_radius", "search_depth", "delta0", "exactness"),
        "spectrum",
    )
    if "milestones" not in sec:
        raise ValidationError("field 'spectrum': 'milestones' is required")
    out = {"milestones": _as_int_list(sec["milestones"], "spectrum.milestones", minimum=1)}
    if not out["milestones"]:
        raise ValidationError("field 'spectrum.milestones': needs at least one level")
    if "chooser" in sec:
        chooser = _as_str(sec["chooser"], "spectrum.chooser")
        if chooser not in _CHOOSERS:
            raise ValidationError(
                f"field 'spectrum.chooser': unknown chooser {chooser!r}; "
                f"available: {', '.join(_CHOOSERS)}"
            )
        out["chooser"] = chooser
    if "search_radius" in sec:
        out["search_radius"] = _as_int(sec["search_radius"], "spectrum.search_radius", minimum=1)
    if "search_depth" in sec:
        out["search_depth"] = _as_int(sec["search_depth"], "spectrum.search_depth", minimum=1)
    if "delta0" in sec:
        out["delta0"] = _as_rational(sec["delta0"], "spectrum.delta0", positive=True)
    if "exactness" in sec:
        out["exactness"] = _as_bool(sec["exactness"], "spectrum.exactness")
    return out


def _norm_qscan(sec, dim: int):
    _check_keys(
        sec,
        ("truncation", "lambda", "spectrum_file", "grid_pitch", "grid_cap"),
        "qscan",
    )
    if "truncation" not in sec:
        raise ValidationError("field 'qscan': 'truncation' is required")
    out = {"truncation": _as_int(sec["truncation"], "qscan.truncation", minimum=0)}
    has_lam = "lambda" in sec
    has_file = "spectrum_file" in sec
    if has_lam == has_file:
        raise ValidationError(
            "field 'qscan': give exactly one of 'lambda' or 'spectrum_file'"
        )
    if has_lam:
        out["lambda"] = _as_vector_list(sec["lambda"], "qscan.lambda", dim)
    else:
        out["spectrum_file"] = _as_str(sec["spectrum_file"], "qscan.spectrum_file")
    if "grid_pitch" in sec:
        out["grid_pitch"] = _as_rational(sec["grid_pitch"], "qscan.grid_pitch", positive=True)
    if "grid_cap" in sec:
        out["grid_cap"] = _as_int(sec["grid_cap"], "qscan.grid_cap", minimum=1)
    return out


def _norm_sample(sec):
    _check_keys(sec, ("upto", "draws", "pair_with_reduced", "scaled"), "sample")
    for req in ("upto", "draws"):
        if req not in sec:
            raise ValidationError(f"field 'sample': '{req}' is required")
    out = {
        "upto": _as_int(sec["upto"], "sample.upto", minimum=1),
        "draws": _as_int(sec["draws"], "sample.draws", minimum=1),
    }
    if "pair_with_reduced" in sec:
        out["pair_with_reduced"] = _as_bool(sec["pair_with_reduced"], "sample.pair_with_reduced")
    if "scaled" in sec:
        out["scaled"] = _as_bool(sec["scaled"], "sample.scaled")
    return out


def _norm_equipos(sec):
    _check_keys(
        sec,
        (
            "tail_starts",
            "depth",
            "x_pitch",
            "y_radius",
            "y_pitch",
            "k_window",
            "reduced",
            "transfer_upto",
            "fail_tol",
            "grid_cap",
        ),
        "equipos",
    )
    for req in ("depth", "y_radius"):
        if req not in sec:
            raise ValidationError(f"field 'equipos': '{req}' is required")
    out = {
        "depth": _as_int(sec["depth"], "equipos.depth", minimum=1),
        "y_radius": _as_rational(sec["y_radius"], "equipos.y_radius", positive=True),
    }
    if "tail_starts" in sec:
        starts = _as_int_list(sec["tail_starts"], "equipos.tail_starts", minimum=0)
        if not starts:
            raise ValidationError("field 'equipos.tail_starts': needs at least one start")
        out["tail_starts"] = starts
    if "x_pitch" in sec:
        out["x_pitch"] = _as_rational(sec["x_pitch"], "equipos.x_pitch", positive=True)
    if "y_pitch" in sec:
        out["y_pitch"] = _as_rational(sec["y_pitch"], "equipos.y_pitch", positive=True)
    if "k_window" in sec:
        out["k_window"] = _as_int(sec["k_window"], "equipos.k_window", minimum=0)
    if "reduced" in sec:
        out["reduced"] = _as_bool(sec["reduced"], "equipos.reduced")
    if "transfer_upto" in sec:
        out["transfer_upto"] = _as_int(sec["transfer_upto"], "equipos.transfer_upto", minimum=1)
    if "fail_tol" in sec:
        out["fail_tol"] = _as_float(sec["fail_tol"], "equipos.fail_tol", positive=True)
    if "grid_cap" in sec:
        out["grid_cap"] = _as_int(sec["grid_cap"], "equipos.grid_cap", minimum=1)
    return out


_TOP_KEYS = (
    "dimension",
    "sequence",
    "check",
    "spectrum",
    "qscan",
    "sample",
    "equipos",
    "seed",
    "max_atoms",
    "tol",
    "out",
    "grid_pitch",
)


def _normalize(doc) -> dict:
    _check_keys(doc, _TOP_KEYS, "")
    if "dimension" not in doc:
        raise ValidationError("field 'dimension' is required")
    if "sequence" not in doc:
        raise ValidationError("field 'sequence' is required")
    dim = _as_int(doc["dimension"], "dimension", minimum=1)
    out = {"dimension": dim, "sequence": _norm_sequence(doc["sequence"], dim)}
    if "check" in doc:
        out["check"] = _norm_check(doc["check"])
    if "spectrum" in doc:
        out["spectrum"] = _norm_spectrum(doc["spectrum"])
    if "qscan" in doc:
        out["qscan"] = _norm_qscan(doc["qscan"], dim)
    if "sample" in doc:
        out["sample"] = _norm_sample(doc["sample"])
    if "equipos" in doc:
        out["equipos"] = _norm_equipos(doc["equipos"])
    if "seed" in doc:
        out["seed"] = _as_int(doc["seed"], "seed")
    if "max_atoms" in doc:
        out["max_atoms"] = _as_int(doc["max_atoms"], "max_atoms", minimum=1)
    if "tol" in doc:
        out["tol"] = _as_float(doc["tol"], "tol", positive=True)
    if "out" in doc:
        out["out"] = _as_str(doc["out"], "out")
    if "grid_pitch" in doc:
        out["grid_pitch"] = _as_rational(doc["grid_pitch"], "grid_pitch", positive=True)
    return out


@dataclass(frozen=True)
class RunConfig:
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
        """New config with non-None overrides applied at the top level."""
        doc = dict(self.doc)
        for key, value in overrides.items():
            if value is not None:
                doc[key] = value
        return RunConfig(_normalize(doc))

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


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    return RunConfig(_normalize(doc))


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
        return str(node) if abs(node) >= _BIG_INT else node
    if isinstance(node, list):
        return [_stringify_big(v) for v in node]
    if isinstance(node, dict):
        return {k: _stringify_big(v) for k, v in node.items()}
    return node


def emit_config(cfg: RunConfig) -> str:
    """Canonical emission: sorted keys, big ints as decimal strings."""
    return json.dumps(_stringify_big(cfg.doc), sort_keys=True, indent=2) + "\n"


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Table:
    title: str
    headers: tuple
    rows: tuple


@dataclass(frozen=True)
class Report:
    command: str
    config_sha256: str
    tables: tuple
    verdicts: dict
    ok: bool
    wall_time_s: float
    notes: tuple = ()
    artifact: str | None = None
    artifact_name: str = ""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, Fraction):
        return str(value)
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
    rows = [
        (k, _fmt(t), _fmt(p))
        for k, t, p in zip(diag.indices, diag.terms, diag.partial_sums)
    ]
    kept, clip_note = _clip_rows(rows)
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
    tol = cfg.top("tol", DEFAULT_EXACTNESS_TOL)

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

    if "equivalence" in requested:
        diag = equivalence_defect(
            seq, seq.reduced(), equivalence_upto, tail_bound=seq.defect_tail_bound
        )
        tab, extra = _series_table("equivalence defect vs reduced", diag, "defect")
        tables.append(tab)
        notes.extend(extra)
        verdicts["equivalence"] = "pass" if diag.verdict in _PASS_VERDICTS else "fail"

    if "rbc" in requested:
        diag = rbc_series(seq, upto)
        tab, extra = _series_table("restricted boundedness series", diag)
        tables.append(tab)
        notes.extend(extra)
        notes.append(
            f"restricted boundedness series: final partial (exact) {diag.partial_sums[-1]}"
        )
        verdicts["rbc"] = "pass" if diag.verdict in _PASS_VERDICTS else "fail"

    if "pcc" in requested:
        diag = pcc_series(seq, pcc_l, upto=upto)
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

    if "contractivity" in requested:
        rep_c = contractivity_report(seq, upto)
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
    tol = cfg.top("tol", DEFAULT_EXACTNESS_TOL)
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
    for j, (m, level) in enumerate(zip(sp.milestones, sp.levels), start=1):
        if want_exactness:
            mu = mu_truncate(seq, m, max_atoms=max_atoms)
            res = spectrum_exactness(mu, level, tol)
            rows.append((j, m, len(level), f"{res.deviation:.3e}", res.ok))
            ok = ok and res.ok
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


def _unit_grid(pitch: Fraction, dim: int, cap: int):
    """Exact rational grid pitch * Z^d intersected with [0, 1)^d."""
    axis = []
    n = 0
    while n * pitch < 1:
        axis.append(n * pitch)
        n += 1
    total = len(axis) ** dim
    if total > cap:
        raise GridTooLarge(f"grid of {total} points exceeds the cap of {cap}")
    return [tuple(v) for v in cartesian(axis, repeat=dim)]


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
        lams = [tuple(v) for v in sec["lambda"]]
        source = f"explicit list of {len(lams)} vectors"
    else:
        path = sec["spectrum_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sp = read_levels(fh)
        except OSError as exc:
            raise ValidationError(
                f"cannot read spectrum file {path}: {exc.strerror or exc}"
            ) from None
        if sp.dim != dim:
            raise ValidationError(
                f"spectrum file has dimension {sp.dim}, config says {dim}"
            )
        lams = list(sp.final())
        source = f"final level of {path} ({len(lams)} vectors)"

    xs = _unit_grid(pitch, dim, cap)
    mu = mu_truncate(seq, sec["truncation"], max_atoms=max_atoms)

    values = []
    # budgeted as #lambda x #atoms phase entries per grid point, the dense
    # transform's size: conservative, since the product form needs only
    # #lambda x sum_j #B_j
    chunk = budget_rows(
        PHASE_ENTRY_BYTES * len(lams) * len(mu), 0, f"a Q scan over {len(mu)} atoms"
    )
    for i in range(0, len(xs), chunk):
        values.extend(q_eval_many(mu, lams, xs[i : i + chunk]).tolist())

    out = io.StringIO()
    out.write(",".join([f"xi{i + 1}" for i in range(dim)] + ["q"]) + "\n")
    for x, q in zip(xs, values):
        out.write(",".join([str(c) for c in x] + [f"{q:.17g}"]) + "\n")

    if values:
        lo = min(range(len(values)), key=values.__getitem__)
        hi = max(range(len(values)), key=values.__getitem__)
        rows = [
            ("points", len(xs), "-"),
            ("min q", f"{values[lo]:.17g}", _fmt(xs[lo])),
            ("max q", f"{values[hi]:.17g}", _fmt(xs[hi])),
        ]
    else:
        rows = [("points", 0, "-")]
    tables = [_table("completeness functional scan", ("quantity", "value", "at"), rows)]
    notes = [
        f"truncation level {sec['truncation']}, pitch {pitch}, lambda from {source}",
    ]
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


def cmd_sample(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    seq = cfg.build_sequence()
    sec = cfg.section("sample")
    seed = cfg.top("seed")
    if seed is None:
        raise ValidationError("sample requires a seed ('seed' or --seed)")
    upto, draws = sec["upto"], sec["draws"]
    partner = seq.reduced() if sec.get("pair_with_reduced", True) else seq
    scale_by = seq.prefix_inverse if sec.get("scaled", True) else None

    rep_c = coupled_sample(seq, partner, upto, draws, seed, scale_by=scale_by)

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
        f"sums: {'prefix-scaled' if scale_by is not None else 'raw digits'}",
        f"final exact mismatch partial: {rep_c.exact_partials[-1]}",
    ]
    if clip_note:
        notes.append(clip_note)

    dim = seq.dim
    out = io.StringIO()
    header = (
        ["draw"]
        + [f"x{i + 1}" for i in range(dim)]
        + [f"y{i + 1}" for i in range(dim)]
    )
    out.write(",".join(header) + "\n")
    for i in range(rep_c.draws):
        cells = [str(i)]
        cells.extend(f"{v:.17g}" for v in rep_c.x_sums[i])
        cells.extend(f"{v:.17g}" for v in rep_c.y_sums[i])
        out.write(",".join(cells) + "\n")

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

    witnesses = sorted(scan.per_x_witness.items(), key=lambda kv: kv[1][1])[:5]
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
        if seq.defect_tail_bound is None:
            raise ValidationError(
                "transfer requested but the sequence declares no defect tail bound"
            )
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
    except (ParseError, ValidationError) as exc:
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
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
