"""Reference outputs and the comparison behind the benchmark's `failed` count.

A reference is a snapshot of one command's stdout report plus a digest of its
--out artifact, taken from the code at the time `record.py` ran.  Exact data
is compared exactly:

- integers, `p/q` rationals, verdicts, notes and the config sha256;
- spectrum level files (integers only), by sha256;
- sample mismatch counts and exact partials.

Floats are compared within FLOAT_TOL relative to max(1, |ref|), widened to
1.5 units of the last digit the report printed, so a kernel that reorders
float sums still matches:

- `q` columns and the min/max of Q;
- epsilon0, the scanned minimum and the scan witness values;
- sample partial sums, by sampled rows and column sums.

Unitarity deviations (Gram or Hadamard matrices) are not compared; they must
stay at or below DEV_TOL.  Some cells are argmin/argmax positions that ties
make float-order dependent:

- the `at` cells of the Q scan are checked against the CSV instead;
- the `start` and `x` cells of the worst scan witnesses are compared only on
  rows whose value ties no other row (the last row may tie a hidden one);
- their `best k` cells are not compared, since the maximum over k can tie
  under the digit sets' symmetry.  The values themselves are compared.
"""
from __future__ import annotations

import hashlib
import math
import re

FLOAT_TOL = 1e-12
DEV_TOL = 1e-9
SAMPLE_STRIDE = 1000  # every SAMPLE_STRIDE-th sample CSV row is kept

_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+")
_DEV_HEADERS = ("deviation", "exactness dev")
_WITNESS_TABLE = "worst scan witnesses"
_QSCAN_TABLE = "completeness functional scan"


# ---------------------------------------------------------------------------
# snapshots


def snapshot(kind: str | None, report: str, artifact: str | None) -> dict:
    """Reference entry for one command from its stdout and artifact text."""
    ref = {"report": _strip_wall_time(report)}
    if kind == "levels":
        ref["artifact"] = {"sha256": _sha(artifact), "lines": artifact.count("\n")}
    elif kind == "csv":
        ref["artifact"] = {"lines": artifact.splitlines()}
    elif kind == "sample-csv":
        header, rows = _csv(artifact)
        ref["artifact"] = {
            "header": header,
            "rows": len(rows),
            "picked": [rows[i] for i in range(0, len(rows), SAMPLE_STRIDE)],
            "column_sums": _column_sums(rows),
        }
    return ref


def _strip_wall_time(report: str) -> str:
    return "".join(l for l in report.splitlines(True) if not l.startswith("wall time:"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv(text: str):
    lines = text.splitlines()
    return lines[0], [l.split(",") for l in lines[1:]]


def _column_sums(rows) -> list:
    if not rows:
        return []
    return [math.fsum(float(r[c]) for r in rows) for c in range(1, len(rows[0]))]


# ---------------------------------------------------------------------------
# comparison


def compare(kind: str | None, ref: dict, report: str, artifact: str | None) -> list:
    """Mismatch descriptions; an empty list means the output matches."""
    errs = _compare_reports(ref["report"], _strip_wall_time(report))
    if kind is None:
        return errs
    if artifact is None:
        return errs + ["artifact missing"]
    want = ref["artifact"]
    if kind == "levels":
        if _sha(artifact) != want["sha256"]:
            errs.append(f"level file sha256 differs ({artifact.count(chr(10))} lines, "
                        f"reference {want['lines']})")
    elif kind == "csv":
        errs += _compare_q_csv(want["lines"], artifact.splitlines())
        errs += _check_q_extremes(report, artifact)
    elif kind == "sample-csv":
        errs += _compare_sample_csv(want, artifact)
    return errs


def _tol(token: str) -> float:
    value = float(token)
    mant = token.lstrip("+-").split("e")[0].split("E")[0].replace(".", "").lstrip("0")
    tol = FLOAT_TOL * max(1.0, abs(value))
    if value != 0 and mant:
        ulp = 10.0 ** (math.floor(math.log10(abs(value))) - (len(mant) - 1))
        tol = max(tol, 1.5 * ulp)
    return tol


def _close(ref_tok: str, got_tok: str) -> bool:
    try:
        return abs(float(ref_tok) - float(got_tok)) <= _tol(ref_tok)
    except ValueError:
        return False


def _match_text(ref: str, got: str) -> bool:
    """Exact outside float tokens; float tokens within tolerance."""
    ref_parts, got_parts = _FLOAT.split(ref), _FLOAT.split(got)
    if ref_parts != got_parts:
        return False
    return all(_close(a, b) for a, b in zip(_FLOAT.findall(ref), _FLOAT.findall(got)))


def _parse_report(text: str) -> list:
    """Items: ("line", text) or ("table", title, headers, rows)."""
    lines = text.splitlines()
    items, i = [], 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("== ") and line.endswith(" ==") and i + 2 < len(lines):
            widths = [len(d) for d in lines[i + 2].split("  ")]
            starts = [sum(w + 2 for w in widths[:c]) for c in range(len(widths))]

            def cells(row):
                out = [row[s : s + w].strip() for s, w in zip(starts[:-1], widths)]
                return out + [row[starts[-1] :].strip()]

            headers = cells(lines[i + 1])
            rows, i = [], i + 3
            while i < len(lines) and lines[i]:
                rows.append(cells(lines[i]))
                i += 1
            items.append(("table", line[3:-3], headers, rows))
        else:
            items.append(("line", line))
            i += 1
    return items


def _compare_reports(ref: str, got: str) -> list:
    a, b = _parse_report(ref), _parse_report(got)
    if [x[:2] if x[0] == "table" else x[0] for x in a] != [
        x[:2] if x[0] == "table" else x[0] for x in b
    ]:
        return ["report layout differs (tables or line count)"]
    errs = []
    for x, y in zip(a, b):
        if x[0] == "line":
            exact = x[1].startswith("config sha256:")
            if (x[1] != y[1]) if exact else not _match_text(x[1], y[1]):
                errs.append(f"line differs: {y[1]!r} (reference {x[1]!r})")
        else:
            errs += _compare_table(x, y)
    return errs


def _compare_table(ref, got) -> list:
    _, title, headers, rows = ref
    if got[2] != headers or len(got[3]) != len(rows):
        return [f"table {title!r}: headers or row count differ"]
    tied = set()
    if title == _WITNESS_TABLE:
        vcol = headers.index("value")
        vals = [float(r[vcol]) for r in rows]
        for i, v in enumerate(vals):
            if i == len(vals) - 1 or any(
                j != i and abs(v - w) <= _tol(rows[j][vcol]) for j, w in enumerate(vals)
            ):
                tied.add(i)
    errs = []
    for i, (r, g) in enumerate(zip(rows, got[3])):
        for h, want, cell in zip(headers, r, g):
            if h in _DEV_HEADERS and _FLOAT.fullmatch(want):
                ok = _FLOAT.fullmatch(cell) is not None and float(cell) <= DEV_TOL
            elif title == _QSCAN_TABLE and h == "at":
                ok = True  # checked against the CSV in _check_q_extremes
            elif title == _WITNESS_TABLE and h != "value":
                ok = h == "best k" or i in tied or cell == want
            else:
                ok = _match_text(want, cell)
            if not ok:
                errs.append(f"table {title!r} row {i + 1} column {h!r}: {cell!r} "
                            f"(reference {want!r})")
    return errs


def _compare_q_csv(ref_lines, got_lines) -> list:
    if len(ref_lines) != len(got_lines) or ref_lines[:1] != got_lines[:1]:
        return ["q CSV header or row count differs"]
    for want, line in zip(ref_lines[1:], got_lines[1:]):
        w, g = want.rsplit(",", 1), line.rsplit(",", 1)
        if len(g) != 2 or w[0] != g[0] or not _close_value(w[1], g[1]):
            return [f"q CSV row differs: {line!r} (reference {want!r})"]
    return []


def _close_value(ref_tok: str, got_tok: str) -> bool:
    """For full-precision CSV cells, where %.17g may print an integer such
    as "1"; _close would widen that to a whole unit."""
    try:
        ref, got = float(ref_tok), float(got_tok)
    except ValueError:
        return False
    return abs(ref - got) <= FLOAT_TOL * max(1.0, abs(ref))


def _check_q_extremes(report: str, artifact: str) -> list:
    """min q / max q rows must name a grid point whose CSV value they print."""
    _, rows = _csv(artifact)
    q_at = {",".join(r[:-1]): r[-1] for r in rows}
    values = [float(r[-1]) for r in rows]
    errs = []
    for item in _parse_report(report):
        if item[0] != "table" or item[1] != _QSCAN_TABLE:
            continue
        for quantity, value, at in item[3]:
            if quantity not in ("min q", "max q"):
                continue
            point = at.strip("()").replace(" ", "")
            extreme = min(values) if quantity == "min q" else max(values)
            if q_at.get(point) != value or float(value) != extreme:
                errs.append(f"{quantity} {value} at {at} does not match the CSV")
    return errs


def _compare_sample_csv(want: dict, artifact: str) -> list:
    header, rows = _csv(artifact)
    if header != want["header"] or len(rows) != want["rows"]:
        return ["sample CSV header or row count differs"]
    picked = [rows[i] for i in range(0, len(rows), SAMPLE_STRIDE)]
    for ref_row, row in zip(want["picked"], picked):
        if ref_row[0] != row[0] or not all(
            _close_value(a, b) for a, b in zip(ref_row[1:], row[1:])
        ):
            return [f"sample CSV row {row[0]} differs from the reference"]
    for c, (ref_sum, got_sum) in enumerate(zip(want["column_sums"], _column_sums(rows))):
        scale = max(1.0, math.fsum(abs(float(r[c + 1])) for r in rows))
        if abs(ref_sum - got_sum) > FLOAT_TOL * scale:
            return [f"sample CSV column {header.split(',')[c + 1]} sum differs"]
    return []
