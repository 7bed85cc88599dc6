"""End-to-end tests for the command-line surface: config parsing, exit
codes, artifact routing, and byte-level determinism of CSV output."""

import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import os
import runpy
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from convspectra import _phases, cli, measures, spectra
from convspectra.errors import ParseError, ValidationError, WorkingSetTooLarge
from convspectra.exactmat import IntMatrix
from convspectra.measures import DiscreteMeasure, mu_truncate
from convspectra.sequences import builtin_sequence
from convspectra.spectra import read_levels
from convspectra.triples import DigitSet, hadamard_check
from oracles import _build_parser, level_tuples, mp_q, qscan_csv, sample_csv


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def jp_doc(**extra):
    doc = {"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"}}
    doc.update(extra)
    return doc


# -- config parsing ---------------------------------------------------------


def test_round_trip_is_idempotent():
    text = json.dumps(
        {
            "sequence": {"generator": "example-2.6", "params": {"max_k": 40}},
            "dimension": 2,
            "max_atoms": 2**60,
            "qscan": {"truncation": 3, "lambda": [[0, 0]], "grid_pitch": "2/8"},
        }
    )
    first = cli.emit_config(cli.parse_config(text))
    second = cli.emit_config(cli.parse_config(first))
    assert first == second
    # big ints survive as decimal strings, rationals are canonical
    assert '"1152921504606846976"' in first
    assert '"1/4"' in first


def test_sha256_ignores_source_key_order():
    a = '{"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"}}'
    b = '{"sequence": {"generator": "jorgensen-pedersen"}, "dimension": 1}'
    assert cli.config_sha256(cli.parse_config(a)) == cli.config_sha256(cli.parse_config(b))


def test_unknown_field_names_the_path():
    with pytest.raises(ParseError, match="check.upt"):
        cli.parse_config(json.dumps(jp_doc(check={"upt": 3})))


def test_float_rejected_in_exact_field():
    with pytest.raises(ParseError, match="grid_pitch"):
        cli.parse_config(
            json.dumps(jp_doc(qscan={"truncation": 1, "lambda": [], "grid_pitch": 0.25}))
        )


def test_inline_needs_two_digits():
    doc = {
        "dimension": 1,
        "sequence": {"inline": [{"matrix": [[2]], "digits": [[0]]}]},
    }
    with pytest.raises(ValidationError, match="at least 2"):
        cli.parse_config(json.dumps(doc))


def test_lambda_and_spectrum_file_are_exclusive():
    with pytest.raises(ValidationError, match="exactly one"):
        cli.parse_config(
            json.dumps(
                jp_doc(
                    qscan={
                        "truncation": 1,
                        "lambda": [[0]],
                        "spectrum_file": "x.txt",
                        "grid_pitch": "1/4",
                    }
                )
            )
        )


def test_big_int_strings_parse_back_to_ints():
    cfg = cli.parse_config(json.dumps(jp_doc(max_atoms="1152921504606846976")))
    assert cfg.top("max_atoms") == 2**60


# -- exit codes -------------------------------------------------------------


def test_exit_2_on_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    rc, _, err = run_cli(["check", "--config", str(path)])
    assert rc == 2
    assert "config error" in err and "line 1" in err


def test_exit_2_on_missing_config_file(tmp_path):
    rc, _, err = run_cli(["check", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "config error" in err


def test_exit_2_on_unknown_generator(tmp_path):
    cfg = write_config(
        tmp_path, {"dimension": 1, "sequence": {"generator": "nope"}, "check": {"upto": 2}}
    )
    rc, _, err = run_cli(["check", "--config", cfg])
    assert rc == 2
    assert "unknown builtin sequence" in err


def test_exit_2_on_unknown_check_name(tmp_path):
    cfg = write_config(tmp_path, jp_doc(check={"checks": ["rbcc"]}))
    rc, _, err = run_cli(["check", "--config", cfg])
    assert rc == 2


def test_exit_2_on_sample_without_seed(tmp_path):
    cfg = write_config(tmp_path, jp_doc(sample={"upto": 3, "draws": 10}))
    rc, _, err = run_cli(["sample", "--config", cfg])
    assert rc == 2
    assert "seed" in err


def test_exit_2_on_spectrum_without_out(tmp_path):
    cfg = write_config(tmp_path, jp_doc(spectrum={"milestones": [1, 2]}))
    rc, _, err = run_cli(["spectrum", "--config", cfg])
    assert rc == 2
    assert "output path" in err


def test_exit_3_on_grid_cap(tmp_path):
    cfg = write_config(
        tmp_path,
        jp_doc(qscan={"truncation": 1, "lambda": [[0]], "grid_pitch": "1/101", "grid_cap": 10}),
    )
    rc, _, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert "resource cap" in err


def _dft_level_doc():
    # one level with 4096 digits, B = L = {0..4095} under R = 4096
    digits = [[i] for i in range(4096)]
    level = {"matrix": [[4096]], "digits": digits, "spectrum_digits": digits}
    return {
        "dimension": 1,
        "sequence": {"inline": [level]},
        "check": {"checks": ["hadamard"], "upto": 1},
    }


def test_a_4096_digit_line_is_certified_exactly_per_axis(tmp_path):
    # the exact test reads the pairwise gcds of the axis in runs and tests
    # one vanishing sum per order they give: no Gram is formed
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, _dft_level_doc())])
    assert rc == 0, err
    assert "1      4096     0.000e+00  yes" in out and "note:" not in out


def test_exit_3_when_a_non_product_level_is_too_large_for_either_test(tmp_path):
    # 4096 digits that are no axis product: the exact test charges their
    # 4096^2 differences and one run of its tables, and is refused before it
    # forms any of them
    digits = [[x, y + 64 * (x % 2)] for x in range(64) for y in range(64)]
    level = {"matrix": [[128, 0], [0, 128]], "digits": digits, "spectrum_digits": digits}
    doc = {"dimension": 2, "sequence": {"inline": [level]}, "check": {"checks": ["hadamard"], "upto": 1}}
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, doc)])
    assert rc == 3
    assert err.startswith("resource cap: the exact test of 4096 spectrum digits")
    assert "Traceback" not in err and out == ""
    r, b = IntMatrix.diagonal([128, 128]), DigitSet.of(map(tuple, digits))
    tracemalloc.start()
    try:
        with pytest.raises(WorkingSetTooLarge) as refused:
            hadamard_check(r, b, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charged = int(str(refused.value).split(" needs ")[1].split()[0])
    assert charged >= 32 * 4096**2 * 2 and peak < charged


def test_spectrum_exactness_reads_no_fraction_atom_or_weight(tmp_path, monkeypatch):
    # the spectrum path carries integer rows and multiplicities from end to end
    reads = []
    for name in ("atoms", "weights"):
        real = getattr(DiscreteMeasure, name).func
        monkeypatch.setattr(
            DiscreteMeasure, name, property(lambda m, real=real, name=name: reads.append(name) or real(m))
        )
    doc = jp_doc(spectrum={"milestones": [2, 4, 6, 8, 10, 12], "exactness": True})
    cfg = write_config(tmp_path, doc)
    rc, out, _ = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "levels.txt")])
    assert rc == 0 and "verdicts: exactness=pass" in out and "4096" in out
    assert reads == []
    assert mu_truncate(builtin_sequence("jorgensen-pedersen"), 2).weights[0] == Fraction(1, 4)
    assert reads == ["weights"]  # the wrapper sees a read


def test_windowed_spectrum_and_qscan_form_no_fraction_per_vector(tmp_path, monkeypatch):
    # candidates, levels, lambda and the grid stay integer rows; only the
    # config's rationals (a few) become Fractions
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(1) or real(cls, *a, **k))
    ex26 = {"dimension": 2, "sequence": {"generator": "example-2.6"}}
    spec = {"milestones": [1, 3], "chooser": "windowed-search", "search_radius": 1,
            "search_depth": 2, "exactness": False}
    levels = tmp_path / "levels.txt"
    rc, out, _ = run_cli(["spectrum", "--config", write_config(tmp_path, {**ex26, "spectrum": spec}, "s.json"),
                          "--out", str(levels)])
    assert rc == 0 and "nonzero offset choices: 0" not in out and len(made) < 10
    made.clear()
    doc = {**ex26, "qscan": {"truncation": 3, "spectrum_file": str(levels), "grid_pitch": "1/64"}}
    rc, out, _ = run_cli(["qscan", "--config", write_config(tmp_path, doc, "q.json"), "--out", str(tmp_path / "q.csv")])
    assert rc == 0 and "576 vectors" in out and len(made) < 10  # 576 x 4096 sums


# One x point of a Q scan over 4096 candidates and four rank-8 factor groups
# (truncation 12 of Jorgensen-Pedersen: twelve 2-atom levels) needs its rows
# of the complex product, of one level and of a float modulus,
# (2 * 16 + 8) * 4096 bytes, and its row of the x table, 32 * 8.  Held once:
# the candidate table's build, gathered copy and group sums,
# (32 + 2 * 16) * 8 * 4096 bytes, and the four groups' sums kept across runs,
# 16 * 4096 * 32.
_QSCAN_LAMS = [[i] for i in range(4096)]
_QSCAN_ONE_ROW = (2 * 16 + 8) * 4096 + 32 * 8 + (32 + 2 * 16) * 8 * 4096 + 16 * 4096 * 32


def _qscan_doc(pitch="1/2"):
    return jp_doc(qscan={"truncation": 12, "lambda": _QSCAN_LAMS, "grid_pitch": pitch})


def test_exit_3_when_one_qscan_point_exceeds_the_byte_budget(tmp_path, monkeypatch):
    # the two points' 16-byte result is counted with the one-point run
    cfg = write_config(tmp_path, _qscan_doc())
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", _QSCAN_ONE_ROW + 16)
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0 and out.startswith("xi1,q\n")
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", _QSCAN_ONE_ROW + 15)
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert out == ""


def test_exit_3_when_a_qscan_result_and_run_fit_only_apart(tmp_path, monkeypatch):
    # a budget of one run admits the run alone and the 16-byte result
    # alone, but not both
    cfg = write_config(tmp_path, _qscan_doc())
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", _QSCAN_ONE_ROW)
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "next to a 16-byte result" in err
    assert "Traceback" not in err and out == ""


def test_exit_3_when_a_qscan_grid_exceeds_the_byte_budget(tmp_path, monkeypatch):
    # 4096 points fit a budget of 4096 sized points and 4097 do not; the
    # grid is refused before it, the factors or Q are built
    per_point = cli._qscan_point_bytes(4096, 1)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 4096 * per_point)
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0]], "grid_pitch": "1/4096"}))
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 0, err
    monkeypatch.setattr(cli, "tail_factors", None)
    monkeypatch.setattr(cli, "q_eval_many", None)
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0]], "grid_pitch": "1/4097"}))
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert "Traceback" not in err and out == ""


def test_exit_3_when_the_qscan_factor_rows_exceed_the_byte_budget(tmp_path, monkeypatch):
    # truncation 40 of Jorgensen-Pedersen: 80 atoms, each an int64 row and a
    # float weight; the two-point grid fits below them and is built first.
    # At the factors' own bytes the check passes, and Q's kernel refuses its run
    factor_bytes = 80 * (8 + 8)
    assert 2 * cli._qscan_point_bytes(2, 1) < factor_bytes
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 40, "lambda": [[0]], "grid_pitch": "1/2"}))
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", factor_bytes)
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3 and err.startswith("resource cap: a sum set of 2 x 1 points")
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", factor_bytes - 1)
    monkeypatch.setattr(cli, "tail_factors", None)
    monkeypatch.setattr(cli, "q_eval_many", None)
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "factor rows of 40 levels (80 atoms)" in err
    assert "Traceback" not in err and out == ""


def test_qscan_past_the_atom_convolution_matches_an_mpmath_oracle(tmp_path):
    # mu_hat_40 has 2^40 atoms but 80 per-level factor atoms: Q is read
    # from the factors, so truncation 40 runs and agrees with Q in mpmath
    lams = [[sum(4**j for j in range(3) if i >> j & 1)] for i in range(8)]
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 40, "lambda": lams, "grid_pitch": "1/64"}))
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 64
    jp = builtin_sequence("jorgensen-pedersen")
    for i in (0, 5, 17, 32, 63):
        oracle = mp_q(jp, 40, [tuple(lam) for lam in lams], (Fraction(i, 64),))
        assert abs(float(rows[i][1]) - float(oracle)) <= 1e-12, (i, rows[i], oracle)


@pytest.mark.parametrize("dim, pitch", [(1, "1/16384"), (1, "7/65536"), (2, "1/128"), (2, "3/512")])
def test_qscan_point_bytes_bound_the_traced_peak(monkeypatch, dim, pitch):
    import tracemalloc

    import numpy as np

    gen = "jorgensen-pedersen" if dim == 1 else "example-2.6"
    doc = {"dimension": dim, "sequence": {"generator": gen},
           "qscan": {"truncation": 2, "lambda": [[0] * dim], "grid_pitch": pitch}}
    cfg = cli.parse_config(json.dumps(doc))
    # Q's own kernel is budgeted by sum_set_runs; a stand-in of the same
    # result leaves what qscan itself holds per point
    monkeypatch.setattr(cli, "q_eval_many", lambda m, lams, xs: np.linspace(1 / 3, 2 / 3, len(xs)))
    cli.cmd_qscan(cfg)  # imports and first-use caches
    tracemalloc.start()
    try:
        rep = cli.cmd_qscan(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = Fraction(pitch)
    points = (-(-p.denominator // p.numerator)) ** dim
    assert 2 * len(rep.artifact) < peak <= points * cli._qscan_point_bytes(p.denominator, dim)


def test_qscan_in_one_point_runs_matches_the_default_run(tmp_path, monkeypatch):
    runs = []
    real = spectra.sum_set_runs

    def recording(*args, **kwargs):
        for s, values in real(*args, **kwargs):
            runs.append(len(values))
            yield s, values

    monkeypatch.setattr(spectra, "sum_set_runs", recording)
    cfg = write_config(tmp_path, _qscan_doc("1/4"))
    rc, whole, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0 and runs == [4]
    monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", 1)
    rc, walked, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0 and runs == [4, 1, 1, 1, 1]
    rows = lambda text: [l.split(",") for l in text.splitlines() if l.count(",") == 1]
    want, got = rows(whole), rows(walked)
    assert len(want) == 5 and [r[0] for r in got] == [r[0] for r in want]
    for (_, a), (_, b) in zip(want[1:], got[1:]):
        assert abs(float(a) - float(b)) <= 1e-15 * max(1.0, abs(float(a)))


def test_exit_1_on_honestly_failing_check(tmp_path):
    # boundary remapping moves a digit at every level of this sequence, so
    # the defect series against the reduced form genuinely diverges
    cfg = write_config(tmp_path, jp_doc(check={"upto": 12, "checks": ["equivalence"]}))
    rc, out, _ = run_cli(["check", "--config", cfg])
    assert rc == 1
    assert "overall: FAIL" in out
    assert "equivalence=fail" in out


_TWO_LEVELS = {"inline": [{"matrix": [[4]], "digits": [[0], [2]]}] * 2}


@pytest.mark.parametrize(
    "verb, section",
    [
        ("qscan", {"qscan": {"truncation": 5, "lambda": [[0], [1]], "grid_pitch": "1/4"}}),
        ("spectrum", {"spectrum": {"milestones": [1, 5]}, "out": "levels.txt"}),
        ("equipos", {"equipos": {"tail_starts": [0], "depth": 5, "x_pitch": "1/8", "y_radius": "1/16",
                                 "k_window": 0}}),
        ("sample", {"sample": {"upto": 5, "draws": 10}, "seed": 1}),
    ],
    ids=["qscan", "spectrum", "equipos", "sample"],
)
def test_exit_2_when_a_level_exceeds_an_inline_sequence(tmp_path, monkeypatch, verb, section):
    monkeypatch.chdir(tmp_path)
    doc = {"dimension": 1, "sequence": _TWO_LEVELS, **section}
    rc, out, err = run_cli([verb, "--config", write_config(tmp_path, doc)])
    assert rc == 2 and out == ""
    assert err.startswith("config error: ") and "exceeds sequence length 2" in err


# -- entry point ------------------------------------------------------------


def test_main_entry_freezes_the_collector_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 3)
    monkeypatch.setattr(sys, "argv", ["convspectra", "check", "--config", "c.json"])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 3
    assert calls == ["freeze", ["check", "--config", "c.json"]]


def test_python_m_convspectra_runs_main_entry(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main_entry", lambda: calls.append("entry"))
    runpy.run_module("convspectra", run_name="__main__")
    assert calls == ["entry"]


def test_main_itself_does_not_freeze(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    config = Path(__file__).resolve().parent.parent / "configs" / "bernoulli-quarter-check.json"
    rc, _, err = run_cli(["check", "--config", str(config)])
    assert rc == 0, err
    assert calls == []


# -- check ------------------------------------------------------------------


def test_check_passes_for_in_box_generator(tmp_path):
    cfg = write_config(
        tmp_path, {"dimension": 1, "sequence": {"generator": "bernoulli-quarter"}, "check": {"upto": 25}}
    )
    rc, out, _ = run_cli(["check", "--config", cfg])
    assert rc == 0
    assert "overall: PASS" in out
    for name in ("hadamard", "equivalence", "rbc", "pcc", "contractivity", "three-series"):
        assert f"{name}=pass" in out


def test_check_report_deterministic_modulo_wall_time(tmp_path):
    cfg = write_config(tmp_path, jp_doc(check={"upto": 8, "checks": ["hadamard"]}))
    _, out1, _ = run_cli(["check", "--config", cfg])
    _, out2, _ = run_cli(["check", "--config", cfg])
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("wall time")]
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("field", ["hadamard_upto", "equivalence_upto"])
def test_check_level_bounds_clamped_to_finite_sequence(tmp_path, field):
    doc = {
        "dimension": 1,
        "sequence": {"generator": "bernoulli-quarter", "params": {"max_k": 3}},
        "check": {"upto": 6, field: 6, "checks": ["hadamard", "equivalence"]},
    }
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, doc)])
    assert rc == 0, err
    assert "overall: PASS" in out
    assert "hadamard=pass" in out and "equivalence=pass" in out
    assert "exceeds sequence length" not in out + err


# -- spectrum ---------------------------------------------------------------


def _exactness_cells(out):
    return [line.split()[3:] for line in out.splitlines() if line[:1].isdigit() and line[1:2] == " "]


def test_spectrum_writes_level_file(tmp_path):
    cfg = write_config(tmp_path, jp_doc(spectrum={"milestones": [1, 2, 3]}))
    dest = tmp_path / "levels.txt"
    rc, out, _ = run_cli(["spectrum", "--config", cfg, "--out", str(dest)])
    assert rc == 0
    assert "exactness=pass" in out
    with open(dest, "r", encoding="utf-8") as fh:
        sp = read_levels(fh)
    assert sp.dim == 1
    assert level_tuples(sp.final()) == ((0,), (1,), (4,), (5,), (16,), (17,), (20,), (21,))


def test_spectrum_exactness_over_digits_past_int64(tmp_path):
    # one summand per level puts an all-zero row beside 2 + 4·2^70 in the phase kernel
    level = {"matrix": [[4]], "digits": [[0], [str(2 + 4 * 2**70)]], "spectrum_digits": [[0], [1]]}
    doc = {"dimension": 1, "sequence": {"inline": [level] * 3},
           "spectrum": {"milestones": [1, 2, 3], "exactness": True}}
    cfg = write_config(tmp_path, doc)
    rc, out, err = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "levels.txt")])
    assert rc == 0, err
    assert _exactness_cells(out) == [["0.000e+00", "yes"]] * 3


_REPRO_LEVEL = {"matrix": [[2 * 10**10 + 1]], "digits": [[0], [1]], "spectrum_digits": [[0], [10**10]]}


def test_check_refutes_a_triple_that_floats_pass(tmp_path):
    # R = 2·10¹⁰ + 1, B = {0, 1}, L = {0, 10¹⁰}: the Gram entry 1 + ζ^(10¹⁰)
    # is 7.854e-11 from 0 in floats, but not 0
    doc = {"dimension": 1, "sequence": {"inline": [_REPRO_LEVEL] * 2},
           "check": {"checks": ["hadamard"], "upto": 2, "hadamard_upto": 2}}
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, doc)])
    assert rc == 1, err
    assert "verdicts: hadamard=fail" in out
    assert [line.split()[2:] for line in out.splitlines() if line[:2] in ("1 ", "2 ")] == [["-", "no"]] * 2


def test_spectrum_refutes_a_level_that_floats_pass(tmp_path):
    doc = {"dimension": 1, "sequence": {"inline": [_REPRO_LEVEL] * 2},
           "spectrum": {"milestones": [1, 2], "exactness": True}}
    rc, out, err = run_cli(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "l.txt")])
    assert rc == 1, err
    assert "verdicts: exactness=fail" in out
    assert _exactness_cells(out) == [["-", "no"]] * 2
    assert "note: exactness: level 1 is not a Hadamard triple (exact test)" in out


def _hadamard_cells(doc, tmp_path):
    doc = dict(doc, check={"checks": ["hadamard"], "upto": 1, "hadamard_upto": 1})
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, doc)])
    return rc, out, [line.split()[1:] for line in out.splitlines() if line.startswith("1 ")], err


def test_check_decides_large_levels_that_are_no_axis_products(tmp_path):
    # 1024 digits each: B = L = {(x, y + 32(x mod 2))} under 64·I is refuted
    # exactly (4.056e-01 from unitary in floats); the skew DFT level
    # (R W, B, Wᵀ L) is certified exactly
    rows = [[x, y + 32 * (x % 2)] for x in range(32) for y in range(32)]
    doc = {"dimension": 2, "sequence": {"inline": [
        {"matrix": [[64, 0], [0, 64]], "digits": rows, "spectrum_digits": rows}]}}
    rc, out, cells, err = _hadamard_cells(doc, tmp_path)
    assert rc == 1, err
    assert cells == [["1024", "-", "no"]] and "note:" not in out
    doc = {"dimension": 2, "sequence": {"inline": [{
        "matrix": [[32, 32], [0, 32]],
        "digits": [[x, y] for x in range(32) for y in range(32)],
        "spectrum_digits": [[x, x + y] for x in range(32) for y in range(32)]}]}}
    rc, out, cells, err = _hadamard_cells(doc, tmp_path)
    assert rc == 0, err
    assert cells == [["1024", "0.000e+00", "yes"]] and "note:" not in out


def test_spectrum_refutes_a_1024_digit_non_product_level_exactly(tmp_path):
    # B = L = {(x, y + 32(x mod 2))} under 64·I: one table test over the
    # runs of its 1024-column exponent table, no float Gram, and the bound
    # is not known from the refuted level on
    rows = [[x, y + 32 * (x % 2)] for x in range(32) for y in range(32)]
    doc = {"dimension": 2, "sequence": {"inline": [
        {"matrix": [[64, 0], [0, 64]], "digits": rows, "spectrum_digits": rows}]},
        "spectrum": {"milestones": [1], "exactness": True}}
    rc, out, err = run_cli(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "l.txt")])
    assert rc == 1 and "verdicts: exactness=fail" in out, err
    assert _exactness_cells(out) == [["-", "no"]]
    assert [line for line in out.splitlines() if line.startswith("note: exactness")] == [
        "note: exactness: level 1 is not a Hadamard triple (exact test)"]


def test_check_certifies_a_2025_digit_skew_level_exactly(tmp_path):
    # R = [[45, 45], [0, 45]], B = {0..44}², L = {(x, x + y)}: the reduced
    # rows are a product and L is none, so the table test runs over the
    # 89² joined axis differences against 2025 spectrum digits
    doc = {"dimension": 2, "sequence": {"inline": [{
        "matrix": [[45, 45], [0, 45]],
        "digits": [[x, y] for x in range(45) for y in range(45)],
        "spectrum_digits": [[x, x + y] for x in range(45) for y in range(45)]}]}}
    rc, out, cells, err = _hadamard_cells(doc, tmp_path)
    assert rc == 0, err
    assert cells == [["2025", "0.000e+00", "yes"]] and "note:" not in out


def test_check_refutes_a_level_whose_float_walk_does_not_fit(tmp_path):
    # a float walk would need 1.08 GB; the exact test refutes the level per
    # axis, and no deviation is computed
    doc = {"dimension": 1, "sequence": {"inline": [{
        "matrix": [[4096]], "digits": [[x] for x in range(4096)],
        "spectrum_digits": [[x] for x in range(4095)] + [[5000]]}]}}
    rc, out, cells, err = _hadamard_cells(doc, tmp_path)
    assert rc == 1, err
    assert cells == [["4096", "-", "no"]] and "verdicts: hadamard=fail" in out


def test_spectrum_exactness_forms_no_measure(tmp_path, monkeypatch):
    # the levels' exact verdicts bound the Gram: no mu_truncate call
    monkeypatch.setattr(measures, "mu_truncate", None)
    cfg = write_config(tmp_path, jp_doc(spectrum={"milestones": [2, 4, 6], "exactness": True}))
    rc, out, err = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "levels.txt")])
    assert rc == 0, err
    assert "verdicts: exactness=pass" in out
    assert _exactness_cells(out) == [["0.000e+00", "yes"]] * 3


def test_spectrum_exactness_on_skew_levels_reads_the_transposed_triple(tmp_path):
    # (R, L, B) is no Hadamard triple here, though (Rᵀ, L, B) is; the
    # certified level (R, B, L) gives the bound 0
    level = {"matrix": [[4, 1], [0, 4]], "digits": [[0, 0], [0, 2], [2, 0], [2, 2]],
             "spectrum_digits": [[0, 0], [0, 1], [-3, -3], [-3, -2]]}
    doc = {"dimension": 2, "sequence": {"inline": [level] * 3},
           "spectrum": {"milestones": [1, 2, 3], "exactness": True}}
    rc, out, err = run_cli(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "l.txt")])
    assert rc == 0, err
    cells = _exactness_cells(out)
    assert len(cells) == 3 and all(float(dev) < 1e-15 and ok == "yes" for dev, ok in cells)


def test_spectrum_level_sizes_for_planar_generator(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "dimension": 2,
            "sequence": {"generator": "example-2.6"},
            "spectrum": {"milestones": [1, 2]},
        },
    )
    dest = tmp_path / "levels.txt"
    rc, _, _ = run_cli(["spectrum", "--config", cfg, "--out", str(dest)])
    assert rc == 0
    with open(dest, "r", encoding="utf-8") as fh:
        sp = read_levels(fh)
    assert [len(level) for level in sp.levels] == [4, 36]


# -- qscan ------------------------------------------------------------------


def parse_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_qscan_spectrum_level_gives_unit_q(tmp_path):
    cfg = write_config(
        tmp_path,
        jp_doc(qscan={"truncation": 2, "lambda": [[0], [1], [4], [5]], "grid_pitch": "1/101"}),
    )
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["xi1", "q"]
    assert len(rows) == 101
    assert all(abs(float(r[1]) - 1.0) < 1e-9 for r in rows)


def test_qscan_empty_lambda_gives_zero(tmp_path):
    cfg = write_config(
        tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [], "grid_pitch": "1/7"})
    )
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [0.0] * 7


def test_qscan_partial_lambda_stays_subunit(tmp_path):
    cfg = write_config(
        tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0], [1]], "grid_pitch": "1/32"})
    )
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    values = [float(r[1]) for r in rows]
    assert max(values) <= 1.0 + 1e-9
    assert min(values) < 0.9


def test_qscan_reads_spectrum_file(tmp_path):
    spec_cfg = write_config(tmp_path, jp_doc(spectrum={"milestones": [1, 2]}), "s.json")
    dest = tmp_path / "levels.txt"
    run_cli(["spectrum", "--config", spec_cfg, "--out", str(dest)])
    scan_cfg = write_config(
        tmp_path,
        jp_doc(qscan={"truncation": 2, "spectrum_file": str(dest), "grid_pitch": "1/13"}),
        "q.json",
    )
    rc, out, _ = run_cli(["qscan", "--config", scan_cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 13
    assert all(abs(float(r[1]) - 1.0) < 1e-9 for r in rows)


def test_qscan_from_a_level_file_matches_the_same_lambda_inline(tmp_path):
    ex26 = {"dimension": 2, "sequence": {"generator": "example-2.6"}}
    spec = {"milestones": [1, 3], "chooser": "windowed-search", "search_radius": 1,
            "search_depth": 2, "exactness": False}
    levels = tmp_path / "levels.txt"
    rc, _, _ = run_cli(["spectrum", "--config", write_config(tmp_path, {**ex26, "spectrum": spec}, "s.json"),
                        "--out", str(levels)])
    assert rc == 0
    with open(levels, "r", encoding="utf-8") as fh:
        final = read_levels(fh).final().tolist()
    assert min(min(v) for v in final) < 0  # the search moved some vectors
    csv = {}
    for key, source in (("file", {"spectrum_file": str(levels)}), ("inline", {"lambda": final})):
        doc = {**ex26, "qscan": {"truncation": 3, "grid_pitch": "1/8", **source}}
        dest = tmp_path / f"{key}.csv"
        rc, _, _ = run_cli(["qscan", "--config", write_config(tmp_path, doc, f"{key}.json"), "--out", str(dest)])
        assert rc == 0
        csv[key] = dest.read_bytes()
    assert csv["file"] == csv["inline"]


@pytest.mark.parametrize(
    "dim, pitch", [(1, "1"), (1, "5/3"), (1, "7/64"), (2, "3/2"), (2, "1/6"), (2, "3/16")]
)
def test_qscan_csv_matches_the_fraction_formatter(tmp_path, dim, pitch):
    doc = {
        "dimension": dim,
        "sequence": {"generator": "jorgensen-pedersen" if dim == 1 else "example-2.6"},
        "qscan": {"truncation": 2, "grid_pitch": pitch,
                  "lambda": [[0], [1], [4]] if dim == 1 else [[0, 0], [1, 0], [0, 3], [-2, 1]]},
    }
    dest = tmp_path / "q.csv"
    rc, out, _ = run_cli(["qscan", "--config", write_config(tmp_path, doc), "--out", str(dest)])
    assert rc == 0
    text = dest.read_text(encoding="utf-8")
    values = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
    want, lo, hi = qscan_csv(pitch, dim, values)
    assert text == want
    cells = {line[:5]: line[line.index("("):] for line in out.splitlines()
             if line.startswith(("min q", "max q"))}
    assert cells == {"min q": lo, "max q": hi}


@pytest.mark.parametrize(
    "text, line",
    [
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone 1, 2 vectors\n0\n1.5\n", 4),
        ("# spectrum dim=x chooser=zero\n# level 1: milestone 1, 1 vectors\n0\n", 1),
        ("# spectrum dim=0 chooser=zero\n# level 1: milestone 1, 1 vectors\n0\n", 1),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone one, 1 vectors\n0\n", 2),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone\n0\n", 2),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone 1, 3 vectors\n0\n1\n\n0\n", 6),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone 1, 2 vectors\n0\n1 2\n", 4),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone 2, 4 vectors\n0\n1\n", 2),
        ("# spectrum dim=1 chooser=zero\n# level 1: milestone 1, 1 vectors\n0\n# level 2: milestone 2\n", 4),
    ],
    ids=["non-integer", "bad-dim", "zero-dim", "bad-milestone", "no-milestone", "repeat", "wrong-dim",
         "short-level", "empty-level"],
)
def test_qscan_refuses_a_malformed_level_file(tmp_path, text, line):
    path = tmp_path / "levels.txt"
    path.write_text(text, encoding="utf-8")
    doc = jp_doc(qscan={"truncation": 2, "spectrum_file": str(path), "grid_pitch": "1/4"})
    rc, out, err = run_cli(["qscan", "--config", write_config(tmp_path, doc)])
    assert rc == 2 and out == ""
    assert err.startswith(f"config error: spectrum file line {line}: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_qscan_exact_grid_column(tmp_path):
    cfg = write_config(
        tmp_path, jp_doc(qscan={"truncation": 1, "lambda": [[0]], "grid_pitch": "1/3"})
    )
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["0", "1/3", "2/3"]


def test_qscan_byte_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        jp_doc(qscan={"truncation": 3, "lambda": [[0], [1], [4]], "grid_pitch": "1/53"}),
    )
    _, out1, _ = run_cli(["qscan", "--config", cfg])
    _, out2, _ = run_cli(["qscan", "--config", cfg])
    assert out1 == out2


def test_qscan_grid_pitch_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path, jp_doc(qscan={"truncation": 1, "lambda": [[0]], "grid_pitch": "1/101"})
    )
    rc, out, _ = run_cli(["qscan", "--config", cfg, "--grid-pitch", "1/11"])
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 11


def test_qscan_out_routes_csv_to_file_and_report_to_stdout(tmp_path):
    cfg = write_config(
        tmp_path, jp_doc(qscan={"truncation": 1, "lambda": [[0]], "grid_pitch": "1/5"})
    )
    dest = tmp_path / "q.csv"
    rc, out, _ = run_cli(["qscan", "--config", cfg, "--out", str(dest)])
    assert rc == 0
    assert out.startswith("convspectra qscan")
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    assert header == ["xi1", "q"] and len(rows) == 5


@pytest.mark.parametrize("old", ["", "stale\n", "z" * 100_000], ids=["empty", "shorter", "longer"])
def test_out_rewrites_an_existing_file_to_exactly_the_new_bytes(tmp_path, old):
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0], [1]], "grid_pitch": "1/16"}))
    fresh = tmp_path / "fresh.csv"
    assert run_cli(["qscan", "--config", cfg, "--out", str(fresh)])[0] == 0
    want = fresh.read_bytes()
    assert len("stale\n") < len(want) < 100_000
    dest = tmp_path / "q.csv"
    dest.write_text(old, encoding="utf-8")
    assert run_cli(["qscan", "--config", cfg, "--out", str(dest)])[0] == 0
    assert dest.read_bytes() == want
    # a report goes to the file as it goes to stdout
    check = write_config(tmp_path, jp_doc(check={"upto": 4, "checks": ["rbc"]}), "check.json")
    dest.write_text(old, encoding="utf-8")
    _, out, _ = run_cli(["check", "--config", check, "--out", str(dest)])
    assert out.startswith("convspectra check") and dest.read_bytes() == out.encode("utf-8")
    # a device or a pipe is written and not truncated
    assert run_cli(["qscan", "--config", cfg, "--out", os.devnull])[0] == 0


@pytest.mark.parametrize("verb", ["check", "spectrum"])
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_an_unwritable_out_is_refused_before_the_command_runs(tmp_path, monkeypatch, verb, where):
    cfg = write_config(tmp_path, jp_doc(check={"upto": 4, "checks": ["rbc"]}, spectrum={"milestones": [1, 2]}))
    dest = tmp_path if where == "a directory" else tmp_path / "missing" / "out.txt"
    ran = []
    monkeypatch.setitem(cli._COMMANDS, verb, lambda cfg, run=cli._COMMANDS[verb]: ran.append(verb) or run(cfg))
    rc, out, err = run_cli([verb, "--config", cfg, "--out", str(dest)])
    assert (rc, out, ran) == (2, "", [])
    assert err.startswith(f"config error: cannot write --out {dest}: ") and err.count("\n") == 1


def test_an_empty_out_flag_is_refused_before_the_command_runs(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, jp_doc(spectrum={"milestones": [1, 2]}))
    ran = []
    monkeypatch.setitem(cli._COMMANDS, "spectrum", lambda cfg: ran.append(cfg))
    rc, out, err = run_cli(["spectrum", "--config", cfg, "--out="])
    assert (rc, out, ran) == (2, "", [])
    assert err == "config error: field 'out': needs a path, got an empty string\n"


@pytest.mark.parametrize("verb", ["check", "spectrum"])
def test_a_failed_write_of_out_is_an_error_line(tmp_path, monkeypatch, verb):
    def full(path, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_out", full)
    cfg = write_config(tmp_path, jp_doc(check={"upto": 4, "checks": ["rbc"]}, spectrum={"milestones": [1, 2]}))
    dest = tmp_path / "out.txt"
    rc, out, err = run_cli([verb, "--config", cfg, "--out", str(dest)])
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write --out {dest}: No space left on device\n"


def test_out_writes_into_a_pipe():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    config = Path(__file__).resolve().parent.parent / "configs" / "bernoulli-quarter-check.json"
    read, write = os.pipe()
    with os.fdopen(read, "rb") as fh:
        try:
            rc, out, _ = run_cli(["check", "--config", str(config), "--out", f"/proc/self/fd/{write}"])
        finally:
            os.close(write)
        assert (rc, fh.read()) == (0, out.encode("utf-8"))


# -- command line -----------------------------------------------------------

_DESTS = ("config", "out", "seed", "max_atoms", "grid_pitch")

# every spelling the argparse parser of tests/oracles.py accepts
_VALID_ARGV = [
    ["check", "--config", "c.json"],
    ["spectrum", "--out", "o.txt", "--config", "c.json"],
    ["qscan", "--config=c.json", "--out=o.csv", "--grid-pitch=1/8"],
    ["sample", "--conf", "c.json", "--se=7", "--g", "1/8"],
    ["equipos", "--config", "a.json", "--seed", "1", "--config", "b.json", "--seed", "2"],
    ["sample", "--config", "c.json", "--seed", "-5"],
    ["sample", "--seed=-5", "--config", "c.json"],
    ["spectrum", "--config", "c.json", "--max-atoms", "64", "--out", "-"],
    ["spectrum", "--config", "c.json", "--max=-64", "--o=-x", "--gr", "-3"],
    ["check", "--config", "c.json", "--max-atoms", "1_000", "--seed", " +3 "],
    ["check", "--config", "c.json", "--out", "- x"],
]

_REFUSED_ARGV = [
    [],
    ["bogus", "--config", "c.json"],
    ["Check", "--config", "c.json"],
    ["--config", "c.json", "check"],
    ["--seed", "5", "check", "--config", "c.json"],
    ["check", "--config", "c.json", "--bogus", "1"],
    ["check", "--config", "c.json", "-s", "1"],
    ["check", "--config", "c.json", "extra"],
    ["check", "--config", "c.json", "--", "extra"],
    ["check", "--config"],
    ["check", "--config", "c.json", "--seed"],
    ["check", "--config", "c.json", "--out", "--seed", "1"],
    ["check", "--config", "c.json", "--grid-pitch", "-1/8"],
    ["check"],
    ["check", "--seed", "5"],
    ["check", "--config", "c.json", "--seed", "1.5"],
    ["check", "--config", "c.json", "--se=x"],
    ["check", "--config", "c.json", "--max-atoms", "2**20"],
    ["check", "--config", "c.json", "--tol", "fast"],
    ["check", "--config", "c.json", "--tol", "1e-9"],
    ["spectrum", "--config", "c.json", "--t", "-.5"],
    ["check", "--config", "c.json", "--help=x"],
    ["check", "--=c.json"],
]


def _argv_id(argv):
    return " ".join(argv) or "(empty)"


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=_argv_id)
def test_argv_reads_as_argparse_reads_it(argv):
    want = _build_parser().parse_args(argv)
    verb, values = cli._parse_argv(argv)
    assert verb == want.command
    assert values == {dest: getattr(want, dest) for dest in _DESTS}


@pytest.mark.parametrize("argv", _REFUSED_ARGV, ids=_argv_id)
def test_argv_refused_by_argparse_exits_2_with_a_usage_line(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        _build_parser().parse_args(argv)
    assert exc.value.code == 2
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: convspectra") and len(lines) == 2 and ": error: " in lines[1]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["--bogus", "-h"]], ids=_argv_id)
def test_help_exits_0_and_names_every_verb(argv):
    rc, out, err = run_cli(argv)
    assert (rc, err) == (0, "")
    assert out.startswith("usage: convspectra [-h] {check,spectrum,qscan,sample,equipos}")
    for verb, text in cli._VERB_HELP.items():
        assert f"  {verb}" in out and text in out


@pytest.mark.parametrize("verb", list(cli._COMMANDS))
@pytest.mark.parametrize("tail", [["-h"], ["--config", "c.json", "--help"], ["--h", "--bogus"]], ids=_argv_id)
def test_verb_help_exits_0_and_names_every_flag(verb, tail):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()):
        _build_parser().parse_args([verb, *tail])
    assert exc.value.code == 0
    rc, out, err = run_cli([verb, *tail])
    assert (rc, err) == (0, "")
    assert out.startswith(f"usage: convspectra {verb} [-h] --config CONFIG [--out OUT]")
    assert cli._VERB_HELP[verb] in out
    for flag, (dest, _, text) in cli._OPTIONS.items():
        assert f"  {flag} {dest.upper()}" in out and text in out


# -- sample -----------------------------------------------------------------


def planar_sample_doc(**extra):
    doc = {
        "dimension": 2,
        "seed": 11,
        "sequence": {
            "inline": [
                {"matrix": [[2, 0], [1, 2]], "digits": [[0, 0], [1, 0], [0, 1], [1, 1]]},
                {"matrix": [[3, 1], [0, 3]], "digits": [[0, 0], [2, 1], [-1, 2]]},
            ]
        },
        "sample": {"upto": 2, "draws": 40},
    }
    doc.update(extra)
    return doc


def test_sample_csv_shape_and_determinism(tmp_path):
    cfg = write_config(tmp_path, planar_sample_doc())
    rc, out1, _ = run_cli(["sample", "--config", cfg])
    _, out2, _ = run_cli(["sample", "--config", cfg])
    assert rc == 0
    assert out1 == out2
    header, rows = parse_csv(out1)
    assert header == ["draw", "x1", "x2", "y1", "y2"]
    assert len(rows) == 40


def test_sample_seed_flag_changes_draws(tmp_path):
    cfg = write_config(tmp_path, planar_sample_doc())
    _, out1, _ = run_cli(["sample", "--config", cfg])
    _, out2, _ = run_cli(["sample", "--config", cfg, "--seed", "12"])
    assert out1 != out2


@pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64 - 1, 2**64, -(2**63) - 1])
def test_sample_refuses_a_seed_outside_int64(tmp_path, seed):
    # numpy's Philox key used to cast these through float64: 2^63 and 2^63 + 1
    # drew alike, and the ends past 2^64 or below -2^63 crashed
    cfg = write_config(tmp_path, planar_sample_doc())
    rc, out, err = run_cli(["sample", "--config", cfg, "--seed", str(seed)])
    assert rc == 2 and out == ""
    assert err.startswith("config error:") and "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
def test_sample_takes_the_int64_edge_seeds(tmp_path, seed):
    cfg = write_config(tmp_path, planar_sample_doc())
    rc, out, _ = run_cli(["sample", "--config", cfg, "--seed", str(seed)])
    assert rc == 0
    assert len(parse_csv(out)[1]) == 40


def test_sample_identical_pair_never_mismatches(tmp_path):
    cfg = write_config(
        tmp_path, planar_sample_doc(sample={"upto": 2, "draws": 60, "pair_with_reduced": False})
    )
    dest = tmp_path / "draws.csv"
    rc, out, _ = run_cli(["sample", "--config", cfg, "--out", str(dest)])
    assert rc == 0
    assert "final exact mismatch partial: 0" in out
    _, rows = parse_csv(dest.read_text(encoding="utf-8"))
    assert all(r[1:3] == r[3:5] for r in rows)


def test_exit_3_when_a_sample_exceeds_the_byte_budget(tmp_path, monkeypatch):
    # 10^11 draws: the float sums alone would take 3.2 TB; the working set is
    # sized from the counts, so the sampler never runs
    monkeypatch.setattr(cli, "coupled_sample", None)
    doc = planar_sample_doc(sample={"upto": 2, "draws": 100_000_000_000})
    dest = tmp_path / "draws.csv"
    rc, out, err = run_cli(["sample", "--config", write_config(tmp_path, doc), "--out", str(dest)])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert "Traceback" not in err and out == "" and not dest.exists()


def test_sample_fits_the_budget_up_to_its_sized_draws(tmp_path, monkeypatch):
    per_draw, fixed = cli._sample_bytes(100, 2)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", fixed + 100 * per_draw)
    for draws, want in ((100, 0), (101, 3)):
        doc = planar_sample_doc(sample={"upto": 2, "draws": draws})
        rc, _, err = run_cli(["sample", "--config", write_config(tmp_path, doc)])
        assert rc == want, err


@pytest.mark.parametrize("generator, dim", [("jorgensen-pedersen", 1), ("example-2.6", 2)])
def test_sample_working_set_bounds_the_traced_peak(generator, dim):
    import tracemalloc

    doc = {"dimension": dim, "sequence": {"generator": generator}, "seed": 3,
           "sample": {"upto": 6, "draws": 20_000}}
    cfg = cli.parse_config(json.dumps(doc))
    cli.cmd_sample(cfg)  # imports and first-use caches
    tracemalloc.start()
    try:
        rep = cli.cmd_sample(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_draw, fixed = cli._sample_bytes(20_000, dim)
    bound = fixed + 20_000 * per_draw
    assert len(rep.artifact) < peak <= bound
    # the sampler's arrays and the CSV text never coexist, so the bound does
    # not add them: it stays within twice the traced peak
    assert bound <= 2 * peak, (bound, peak)


_B = cli._CSV_BLOCK_ROWS


@pytest.mark.parametrize("draws", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("generator, dim", [("jorgensen-pedersen", 1), ("example-2.6", 2)])
def test_sample_csv_blocks_match_a_one_shot_format(monkeypatch, draws, generator, dim):
    sampled = []
    real = cli.coupled_sample

    def recording(*args, **kwargs):
        sampled.append(real(*args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(cli, "coupled_sample", recording)
    doc = {"dimension": dim, "sequence": {"generator": generator}, "seed": 5,
           "sample": {"upto": 3, "draws": draws}}
    rep = cli.cmd_sample(cli.parse_config(json.dumps(doc)))
    (c,) = sampled
    assert rep.artifact == sample_csv(c.x_sums, c.y_sums)
    assert rep.artifact.count("\n") == draws + 1


# 64² points fill one block exactly, 65² pass it by 129 and 91² span three blocks
@pytest.mark.parametrize("pitch", ["3/2", "1/64", "1/65", "1/91"])
@pytest.mark.parametrize("values", ["computed", "edge floats"])
def test_qscan_csv_blocks_match_a_one_shot_format(monkeypatch, pitch, values):
    import numpy as np

    computed = []
    real = cli.q_eval_many
    edges = [0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 1e300, 2.0**-1074 * 3, 123456789.0, 1e16, float("inf")]

    def recording(*args):
        q = real(*args)
        if values == "edge floats":
            q = np.resize(np.array(edges), len(q))
        computed.append(q.tolist())
        return q

    monkeypatch.setattr(cli, "q_eval_many", recording)
    doc = {"dimension": 2, "sequence": {"generator": "example-2.6"},
           "qscan": {"truncation": 2, "grid_pitch": pitch, "lambda": [[0, 0], [1, 0], [0, 3], [-2, 1]]}}
    rep = cli.cmd_qscan(cli.parse_config(json.dumps(doc)))
    (q,) = computed
    assert rep.artifact == qscan_csv(pitch, 2, q)[0]
    assert rep.artifact.count("\n") == len(q) + 1


# -- equipos ----------------------------------------------------------------


def test_equipos_witnessed_with_transfer(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "dimension": 2,
            "sequence": {"generator": "example-2.6"},
            "equipos": {
                "depth": 4,
                "x_pitch": "1/4",
                "y_radius": "1/12",
                "transfer_upto": 50,
            },
        },
    )
    rc, out, _ = run_cli(["equipos", "--config", cfg])
    assert rc == 0
    assert "witnessed=pass" in out and "transfer=pass" in out
    # transferred bound = epsilon0 - tv with tv = 2/50
    assert "1/25" in out


def test_equipos_failing_scan_exits_nonzero(tmp_path):
    # digits {0, 2} under scale 2 put a transform zero at x = -1/2
    cfg = write_config(
        tmp_path,
        {
            "dimension": 1,
            "sequence": {"inline": [{"matrix": [[2]], "digits": [[0], [2]]}]},
            "equipos": {
                "depth": 1,
                "x_pitch": "1/2",
                "y_radius": "1/16",
                "reduced": False,
            },
        },
    )
    rc, out, _ = run_cli(["equipos", "--config", cfg])
    assert rc == 1
    assert "witnessed=fail" in out
    assert "first failure" in out


def test_equipos_transfer_without_tail_bound_fails_before_the_scan(tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the config was checked")

    monkeypatch.setattr(cli, "equi_positivity_scan", no_scan)
    cfg = write_config(
        tmp_path,
        jp_doc(equipos={"depth": 4, "x_pitch": "1/4", "y_radius": "1/12", "transfer_upto": 10}),
    )
    rc, _, err = run_cli(["equipos", "--config", cfg])
    assert rc == 2
    assert err.startswith("config error:") and "no defect tail bound" in err


def test_shipped_configs_parse(tmp_path):
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
    assert len(paths) == 6
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        assert cfg.dimension in (1, 2)


# -- pinned config schema: hashes and single-fault errors ----------------------
#
# Recorded from the hand-written readers; any rewrite of the config reader must
# reproduce these hashes and these exact (exception class, message) pairs.

SHIPPED_CONFIG_SHA256 = {
    "bernoulli-quarter-check.json": "9fe7f1090bb6b374b816bf377aa72d2deee58dd19d9d77043932d358104c5c08",
    "example-2.6-equipos.json": "5ffc3e409d9ad548e21aaacb460baca684c530b32e843bca84694aa787d27989",
    "jorgensen-pedersen-check.json": "f783bb8c175b075f434ff5774dcb97468c5f68a6a65ed8a4227bd1deda39e17e",
    "jorgensen-pedersen-qscan.json": "97dababea9e383f16806551346bde201f1fbf92bf08ac19c678708dbcb36cb77",
    "jorgensen-pedersen-spectrum.json": "beaee30dae15e129be7d176bc40245c71dadddfae5d1f61e4286104b232f6b84",
    "planar-sample.json": "a8933a94583edf3dbefeb02ffcbdec1d230d0e009274305dbe2c76e01fd86188",
}


def _hashlib_sha256(cfg):
    return hashlib.sha256(cli.emit_config(cfg).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_SHA256))
def test_shipped_config_sha256_is_pinned(name):
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    assert cli.config_sha256(cfg) == SHIPPED_CONFIG_SHA256[name] == _hashlib_sha256(cfg)


def _bench_full_configs():
    """The config of every `full` command of bench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    workloads = runpy.run_path(str(path), run_name="workloads")
    return [pytest.param(cmd.config, id=f"{w}/{cmd.key}") for w in workloads["WORKLOADS"]
            for cmd in workloads["commands"](w, "full", 1)]


@pytest.mark.parametrize("doc", _bench_full_configs())
def test_bench_config_digest_matches_hashlib(doc):
    cfg = cli.parse_config(json.dumps(doc))
    assert cli.config_sha256(cfg) == _hashlib_sha256(cfg)


def test_digest_of_an_integer_past_the_str_digit_limit_matches_hashlib():
    # 5001 digits, past int()'s and str()'s 4300-digit limit: the config
    # reads and emits them in chunks, under the interpreter's own limit
    text = "2" + "0" * 5000
    level = {"matrix": [[2]], "digits": [[0], [text]]}
    cfg = cli.parse_config(json.dumps(dict(FULL_DOC, sequence={"inline": [level]})))
    assert cfg.doc["sequence"]["inline"][0]["digits"][1] == [2 * 10**5000]
    assert f'"{text}"' in cli.emit_config(cfg)
    assert cli.config_sha256(cfg) == _hashlib_sha256(cfg)


@pytest.mark.parametrize("sign", ["", "+", "-"])
@pytest.mark.parametrize("digits", [4301, 5000, 12345])
def test_config_integers_read_past_the_str_digit_limit(sign, digits):
    body = ("7" + "0123456789" * digits)[:digits]
    want = 0
    for i in range(0, digits, 700):  # left-aligned chunks, each under any limit
        want = want * 10 ** len(body[i : i + 700]) + int(body[i : i + 700])
    text = sign + body
    value = cli._as_int(text, "x")
    assert value == (-want if sign == "-" else want)
    assert cli._int_str(value) == text.lstrip("+")


@pytest.mark.parametrize("text", ["1_" + "0" * 5000, "0x" + "1" * 5000, "1" * 2500 + " " + "1" * 2500])
def test_malformed_long_config_integers_are_refused(text):
    with pytest.raises(ParseError, match="not a decimal integer"):
        cli._as_int(text, "x")


# a valid document that sets every field of every section
FULL_DOC = {
    "dimension": 1,
    "sequence": {"generator": "jorgensen-pedersen", "params": {"max_k": 8}},
    "check": {
        "upto": 3,
        "hadamard_upto": 2,
        "equivalence_upto": 2,
        "checks": ["rbc", "pcc", "rbc"],
        "pcc_l": "1/4",
        "three_series_radius": 1,
    },
    "spectrum": {
        "milestones": [1, 2],
        "chooser": "zero",
        "search_radius": 2,
        "search_depth": 2,
        "delta0": "1/32",
        "exactness": True,
    },
    "qscan": {"truncation": 2, "lambda": [[0], [1]], "grid_pitch": "1/8", "grid_cap": 100},
    "sample": {"upto": 3, "draws": 10, "pair_with_reduced": True, "scaled": False},
    "equipos": {
        "tail_starts": [0],
        "depth": 4,
        "x_pitch": "1/8",
        "y_radius": "1/12",
        "y_pitch": "1/24",
        "k_window": 0,
        "reduced": True,
        "transfer_upto": 10,
        "fail_tol": 1e-9,
        "grid_cap": 1000,
    },
    "seed": 7,
    "max_atoms": 1000,
    "out": "levels.txt",
    "grid_pitch": "1/4",
}
LEVEL = {"matrix": [[4]], "digits": [[0], [2]], "spectrum_digits": [[0], [1]]}
INLINE_DOC = dict(FULL_DOC, sequence={"inline": [LEVEL]})
DELETE = object()


def _with_fault(path, value):
    """FULL_DOC (INLINE_DOC for paths inside an inline level) with one field
    set to `value`, or removed when `value` is DELETE."""
    base = INLINE_DOC if path[1:2] == ("inline",) and len(path) > 2 else FULL_DOC
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _sha(doc):
    return cli.config_sha256(cli.parse_config(json.dumps(doc)))


def test_valid_document_emission_is_pinned():
    assert _sha(FULL_DOC) == "aa1c2de1ccfafcf4c7281de1b52d6afe8ba00031b89c6cebfe4bd771cc48a2e2"
    # an empty params object is dropped from the emission
    no_params = dict(FULL_DOC, sequence={"generator": "jorgensen-pedersen"})
    empty_params = dict(FULL_DOC, sequence={"generator": "jorgensen-pedersen", "params": {}})
    assert _sha(no_params) == _sha(empty_params)
    assert _sha(no_params) == "89b46101f9dbbda521e73cc1e78326020179a36ef8f7b3c9e0fc566141eee945"
    # a big digit given as a decimal string, and a level without spectrum digits
    big = {"matrix": [[2]], "digits": [[0], ["9007199254740993"]]}
    inline = dict(FULL_DOC, sequence={"inline": [LEVEL, big]})
    assert _sha(inline) == "6cc1f4e1a296ddc80e31d5276f8943dec1c561a1d4c9c9f26320f5e7bf5efd4d"


SINGLE_FAULTS = [
    ("dimension missing", ("dimension",), DELETE,
     ValidationError, "field 'dimension' is required"),
    ("sequence missing", ("sequence",), DELETE,
     ValidationError, "field 'sequence' is required"),
    ("top unknown key", ("bogus",), 1,
     ParseError, "field 'bogus': unknown field"),
    ("dimension boolean", ("dimension",), True,
     ParseError, "field 'dimension': expected an integer, got a boolean"),
    ("dimension float", ("dimension",), 1.0,
     ParseError, "field 'dimension': expected an integer (write big values as decimal strings)"),
    ("dimension not decimal", ("dimension",), "one",
     ParseError, "field 'dimension': not a decimal integer: 'one'"),
    ("dimension below minimum", ("dimension",), 0,
     ValidationError, "field 'dimension': must be >= 1, got 0"),
    ("dimension list", ("dimension",), [1],
     ParseError, "field 'dimension': expected an integer"),
    ("seed boolean", ("seed",), False,
     ParseError, "field 'seed': expected an integer, got a boolean"),
    ("max_atoms big string below minimum", ("max_atoms",), "-1152921504606846976",
     ValidationError, "field 'max_atoms': must be >= 1, got -1152921504606846976"),
    ("tol string", ("tol",), "1e-9",
     ParseError, "field 'tol': unknown field"),
    ("tol boolean", ("tol",), True,
     ParseError, "field 'tol': unknown field"),
    ("tol zero", ("tol",), 0,
     ParseError, "field 'tol': unknown field"),
    ("out not string", ("out",), 5,
     ParseError, "field 'out': expected a string"),
    ("out empty", ("out",), "",
     ValidationError, "field 'out': needs a path, got an empty string"),
    ("grid_pitch float", ("grid_pitch",), 0.25,
     ParseError, "field 'grid_pitch': exact fields take integers or 'p/q' strings, not floats"),
    ("grid_pitch boolean", ("grid_pitch",), True,
     ParseError, "field 'grid_pitch': expected a rational, got a boolean"),
    ("grid_pitch zero denominator", ("grid_pitch",), "1/0",
     ParseError, "field 'grid_pitch': not a rational: '1/0'"),
    ("grid_pitch negative", ("grid_pitch",), "-1/4",
     ValidationError, "field 'grid_pitch': must be positive, got -1/4"),
    ("grid_pitch list", ("grid_pitch",), [1, 4],
     ParseError, "field 'grid_pitch': expected an integer or a 'p/q' string"),
    ("sequence not object", ("sequence",), ["jorgensen-pedersen"],
     ParseError, "field 'sequence': expected an object"),
    ("sequence neither", ("sequence",), {},
     ValidationError, "field 'sequence': give exactly one of 'generator' or 'inline'"),
    ("sequence both", ("sequence", "inline"), [],
     ValidationError, "field 'sequence': give exactly one of 'generator' or 'inline'"),
    ("sequence unknown key", ("sequence", "bogus"), 1,
     ParseError, "field 'sequence.bogus': unknown field"),
    ("generator not string", ("sequence", "generator"), 4,
     ParseError, "field 'sequence.generator': expected a string"),
    ("params not object", ("sequence", "params"), [8],
     ParseError, "field 'sequence.params': expected an object"),
    ("params unknown key", ("sequence", "params", "min_k"), 1,
     ParseError, "field 'sequence.params.min_k': unknown field"),
    ("params max_k below minimum", ("sequence", "params", "max_k"), 0,
     ValidationError, "field 'sequence.params.max_k': must be >= 1, got 0"),
    ("inline not list", ("sequence",), {"inline": {"matrix": [[4]]}},
     ParseError, "field 'sequence.inline': expected a list of level objects"),
    ("inline empty", ("sequence",), {"inline": []},
     ValidationError, "field 'sequence.inline': needs at least one level"),
    ("inline level not object", ("sequence", "inline", 0), 5,
     ParseError, "field 'sequence.inline[0]': expected an object"),
    ("inline level unknown key", ("sequence", "inline", 0, "scale"), 4,
     ParseError, "field 'sequence.inline[0].scale': unknown field"),
    ("inline level missing digits", ("sequence", "inline", 0, "digits"), DELETE,
     ParseError, "field 'sequence.inline[0]': each level needs 'matrix' and 'digits'"),
    ("inline level missing matrix", ("sequence", "inline", 0, "matrix"), DELETE,
     ParseError, "field 'sequence.inline[0]': each level needs 'matrix' and 'digits'"),
    ("inline matrix rows", ("sequence", "inline", 0, "matrix"), [[4], [1]],
     ValidationError, "field 'sequence.inline[0].matrix': expected 1 rows"),
    ("inline matrix not list", ("sequence", "inline", 0, "matrix"), 4,
     ValidationError, "field 'sequence.inline[0].matrix': expected 1 rows"),
    ("inline matrix entry float", ("sequence", "inline", 0, "matrix"), [[4.0]],
     ParseError, "field 'sequence.inline[0].matrix[0][0]': expected an integer (write big values as decimal strings)"),
    ("inline one digit", ("sequence", "inline", 0, "digits"), [[0]],
     ValidationError, "field 'sequence.inline[0].digits': needs at least 2 digits, got 1"),
    ("inline digits not list", ("sequence", "inline", 0, "digits"), 3,
     ParseError, "field 'sequence.inline[0].digits': expected a list of integer vectors"),
    ("inline digit not vector", ("sequence", "inline", 0, "digits"), [0, 2],
     ParseError, "field 'sequence.inline[0].digits[0]': expected an integer vector"),
    ("inline digit components", ("sequence", "inline", 0, "digits"), [[0], [2, 1]],
     ValidationError, "field 'sequence.inline[0].digits[1]': expected 1 components, got 2"),
    ("inline spectrum digit boolean", ("sequence", "inline", 0, "spectrum_digits"), [[0], [True]],
     ParseError, "field 'sequence.inline[0].spectrum_digits[1][0]': expected an integer, got a boolean"),
    ("check not object", ("check",), 3,
     ParseError, "field 'check': expected an object"),
    ("check unknown key", ("check", "upt"), 3,
     ParseError, "field 'check.upt': unknown field"),
    ("check upto below minimum", ("check", "upto"), 0,
     ValidationError, "field 'check.upto': must be >= 1, got 0"),
    ("check hadamard_upto boolean", ("check", "hadamard_upto"), True,
     ParseError, "field 'check.hadamard_upto': expected an integer, got a boolean"),
    ("check equivalence_upto float", ("check", "equivalence_upto"), 2.5,
     ParseError, "field 'check.equivalence_upto': expected an integer (write big values as decimal strings)"),
    ("checks not list", ("check", "checks"), "rbc",
     ParseError, "field 'check.checks': expected a list of check names"),
    ("checks empty", ("check", "checks"), [],
     ValidationError, "field 'check.checks': needs at least one check"),
    ("checks unknown check", ("check", "checks"), ["rbc", "rbcc"],
     ValidationError, "field 'check.checks[1]': unknown check 'rbcc'; available: hadamard, equivalence, rbc, pcc, contractivity, three-series"),
    ("checks entry not string", ("check", "checks"), [1],
     ParseError, "field 'check.checks[0]': expected a string"),
    ("pcc_l float", ("check", "pcc_l"), 0.25,
     ParseError, "field 'check.pcc_l': exact fields take integers or 'p/q' strings, not floats"),
    ("three_series_radius zero", ("check", "three_series_radius"), "0",
     ValidationError, "field 'check.three_series_radius': must be positive, got 0"),
    ("spectrum milestones missing", ("spectrum", "milestones"), DELETE,
     ValidationError, "field 'spectrum': 'milestones' is required"),
    ("spectrum milestones empty", ("spectrum", "milestones"), [],
     ValidationError, "field 'spectrum.milestones': needs at least one level"),
    ("spectrum milestones not list", ("spectrum", "milestones"), 3,
     ParseError, "field 'spectrum.milestones': expected a list of integers"),
    ("spectrum milestone below minimum", ("spectrum", "milestones"), [1, 0],
     ValidationError, "field 'spectrum.milestones[1]': must be >= 1, got 0"),
    ("spectrum unknown chooser", ("spectrum", "chooser"), "best",
     ValidationError, "field 'spectrum.chooser': unknown chooser 'best'; available: zero, windowed-search"),
    ("spectrum chooser not string", ("spectrum", "chooser"), None,
     ParseError, "field 'spectrum.chooser': expected a string"),
    ("spectrum search_radius below minimum", ("spectrum", "search_radius"), 0,
     ValidationError, "field 'spectrum.search_radius': must be >= 1, got 0"),
    ("spectrum search_depth float", ("spectrum", "search_depth"), 1.5,
     ParseError, "field 'spectrum.search_depth': expected an integer (write big values as decimal strings)"),
    ("spectrum delta0 not rational", ("spectrum", "delta0"), "a/b",
     ParseError, "field 'spectrum.delta0': not a rational: 'a/b'"),
    ("spectrum exactness integer", ("spectrum", "exactness"), 1,
     ParseError, "field 'spectrum.exactness': expected true or false"),
    ("qscan truncation missing", ("qscan", "truncation"), DELETE,
     ValidationError, "field 'qscan': 'truncation' is required"),
    ("qscan truncation below minimum", ("qscan", "truncation"), -1,
     ValidationError, "field 'qscan.truncation': must be >= 0, got -1"),
    ("qscan neither lambda nor file", ("qscan", "lambda"), DELETE,
     ValidationError, "field 'qscan': give exactly one of 'lambda' or 'spectrum_file'"),
    ("qscan both lambda and file", ("qscan", "spectrum_file"), "levels.txt",
     ValidationError, "field 'qscan': give exactly one of 'lambda' or 'spectrum_file'"),
    ("qscan lambda components", ("qscan", "lambda"), [[0, 1]],
     ValidationError, "field 'qscan.lambda[0]': expected 1 components, got 2"),
    ("qscan lambda not list", ("qscan", "lambda"), "0",
     ParseError, "field 'qscan.lambda': expected a list of integer vectors"),
    ("qscan grid_pitch float", ("qscan", "grid_pitch"), 0.5,
     ParseError, "field 'qscan.grid_pitch': exact fields take integers or 'p/q' strings, not floats"),
    ("qscan grid_cap below minimum", ("qscan", "grid_cap"), 0,
     ValidationError, "field 'qscan.grid_cap': must be >= 1, got 0"),
    ("qscan unknown key", ("qscan", "pitch"), "1/8",
     ParseError, "field 'qscan.pitch': unknown field"),
    ("sample upto missing", ("sample", "upto"), DELETE,
     ValidationError, "field 'sample': 'upto' is required"),
    ("sample draws missing", ("sample", "draws"), DELETE,
     ValidationError, "field 'sample': 'draws' is required"),
    ("sample draws below minimum", ("sample", "draws"), 0,
     ValidationError, "field 'sample.draws': must be >= 1, got 0"),
    ("sample pair_with_reduced string", ("sample", "pair_with_reduced"), "yes",
     ParseError, "field 'sample.pair_with_reduced': expected true or false"),
    ("sample scaled null", ("sample", "scaled"), None,
     ParseError, "field 'sample.scaled': expected true or false"),
    ("equipos depth missing", ("equipos", "depth"), DELETE,
     ValidationError, "field 'equipos': 'depth' is required"),
    ("equipos y_radius missing", ("equipos", "y_radius"), DELETE,
     ValidationError, "field 'equipos': 'y_radius' is required"),
    ("equipos tail_starts empty", ("equipos", "tail_starts"), [],
     ValidationError, "field 'equipos.tail_starts': needs at least one start"),
    ("equipos tail_starts below minimum", ("equipos", "tail_starts"), [0, -1],
     ValidationError, "field 'equipos.tail_starts[1]': must be >= 0, got -1"),
    ("equipos x_pitch float", ("equipos", "x_pitch"), 0.125,
     ParseError, "field 'equipos.x_pitch': exact fields take integers or 'p/q' strings, not floats"),
    ("equipos y_pitch zero", ("equipos", "y_pitch"), "0/3",
     ValidationError, "field 'equipos.y_pitch': must be positive, got 0"),
    ("equipos y_radius negative", ("equipos", "y_radius"), -1,
     ValidationError, "field 'equipos.y_radius': must be positive, got -1"),
    ("equipos k_window below minimum", ("equipos", "k_window"), -1,
     ValidationError, "field 'equipos.k_window': must be >= 0, got -1"),
    ("equipos reduced integer", ("equipos", "reduced"), 0,
     ParseError, "field 'equipos.reduced': expected true or false"),
    ("equipos transfer_upto big string", ("equipos", "transfer_upto"), "0",
     ValidationError, "field 'equipos.transfer_upto': must be >= 1, got 0"),
    ("equipos fail_tol string", ("equipos", "fail_tol"), "1e-9",
     ParseError, "field 'equipos.fail_tol': expected a number"),
    ("equipos fail_tol negative", ("equipos", "fail_tol"), -1e-09,
     ValidationError, "field 'equipos.fail_tol': must be positive, got -1e-09"),
    ("equipos fail_tol boolean", ("equipos", "fail_tol"), True,
     ParseError, "field 'equipos.fail_tol': expected a number"),
    ("equipos fail_tol zero", ("equipos", "fail_tol"), 0,
     ValidationError, "field 'equipos.fail_tol': must be positive, got 0.0"),
    ("equipos grid_cap boolean", ("equipos", "grid_cap"), False,
     ParseError, "field 'equipos.grid_cap': expected an integer, got a boolean"),
    ("equipos unknown key", ("equipos", "x_radius"), "1/12",
     ParseError, "field 'equipos.x_radius': unknown field"),
]


@pytest.mark.parametrize(
    "path, value, exc, message",
    [case[1:] for case in SINGLE_FAULTS],
    ids=[case[0] for case in SINGLE_FAULTS],
)
def test_single_fault_error_is_pinned(path, value, exc, message):
    with pytest.raises((ParseError, ValidationError)) as info:
        cli.parse_config(json.dumps(_with_fault(path, value)))
    assert (type(info.value), str(info.value)) == (exc, message)


# -- non-finite floats and duplicate keys -------------------------------------


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["equipos.fail_tol"])
def test_non_finite_float_fields_are_rejected(field, literal):
    doc = jp_doc(equipos={"depth": 2, "y_radius": "1/12"})
    section, _, name = field.rpartition(".")
    (doc[section] if section else doc)[name] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(ValidationError, match=f"field '{field}': must be finite"):
        cli.parse_config(text)


def test_integer_past_the_double_range_is_not_a_finite_float():
    doc = jp_doc(equipos={"depth": 2, "y_radius": "1/12", "fail_tol": 10**400})
    with pytest.raises(ValidationError, match="field 'equipos.fail_tol': must be finite"):
        cli.parse_config(json.dumps(doc))


@pytest.mark.parametrize("value", ["inf", "nan", "-1e999"])
def test_tol_flag_rejects_non_finite_values(tmp_path, value):
    # there is no --tol flag: every value of it is refused
    cfg = write_config(tmp_path, jp_doc(check={"upto": 2, "checks": ["hadamard"]}))
    rc, out, err = run_cli(["check", "--config", cfg, f"--tol={value}"])
    assert rc == 2
    assert err.endswith(f"convspectra check: error: unrecognized arguments: --tol={value}\n")
    assert out == ""


def test_the_tol_flag_and_field_are_refused(tmp_path):
    cfg = write_config(tmp_path, jp_doc(check={"upto": 2, "checks": ["hadamard"]}))
    rc, out, err = run_cli(["check", "--config", cfg, "--tol", "1e-9"])
    assert (rc, out) == (2, "") and err.endswith("error: unrecognized arguments: --tol 1e-9\n")
    cfg = write_config(tmp_path, jp_doc(tol=1e-9, check={"upto": 2, "checks": ["hadamard"]}))
    assert run_cli(["check", "--config", cfg]) == (2, "", "config error: field 'tol': unknown field\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dimension": 1, "dimension": 2, "sequence": {"generator": "jorgensen-pedersen"}}',
         "dimension"),
        ('{"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},'
         ' "check": {"upto": 2}, "check": {"upto": 3}}', "check"),
        ('{"dimension": 1, "sequence": {"inline": [{"matrix": [[2]], "digits": [[0], [1]],'
         ' "digits": [[0], [3]]}]}}', "digits"),
    ],
    ids=["top", "section", "inline level"],
)
def test_duplicate_keys_are_rejected_at_any_depth(text, key):
    with pytest.raises(ParseError, match=f"duplicate key '{key}'"):
        cli.parse_config(text)


def test_duplicate_key_exits_2(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},'
        ' "check": {"upto": 2}, "check": {"checks": ["rbc"]}}',
        encoding="utf-8",
    )
    rc, _, err = run_cli(["check", "--config", str(path)])
    assert rc == 2
    assert "config error: duplicate key 'check'" in err


# -- early caps and override reading ----------------------------------------


def test_unit_grid_refuses_a_fine_pitch_before_building_the_axis():
    import tracemalloc

    from convspectra.errors import GridTooLarge

    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match=r"^grid of 500000 points exceeds the cap of 10$"):
            cli._unit_grid(Fraction(1, 500_000), 1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the old axis took tens of megabytes
    with pytest.raises(GridTooLarge, match=r"^grid of 1000000000000 points exceeds"):
        cli._unit_grid(Fraction(1, 1_000_000), 2, 10**6)


@pytest.mark.parametrize("pitch", ["1", "3/2", "1/3", "2/5", "1/8", "7/64"])
def test_unit_grid_points_unchanged(pitch):
    p = Fraction(pitch)
    axis = []
    while len(axis) * p < 1:
        axis.append(len(axis) * p)
    grid, names = cli._unit_grid(p, 2, 10**6)
    points = [tuple(Fraction(x, grid.den) for x in row) for row in grid.rows.tolist()]
    assert points == [(a, b) for a in axis for b in axis]
    assert names == [str(a) for a in axis]


def test_with_top_reads_only_the_overrides(monkeypatch):
    cfg = cli.parse_config(json.dumps(jp_doc(seed=3, check={"upto": 4})))
    assert cfg.with_top(seed=None, out=None) is cfg

    def no_walk(*args, **kwargs):
        raise AssertionError("with_top walked the whole document")

    monkeypatch.setattr(cli, "_walk", no_walk)
    new = cfg.with_top(seed=9, max_atoms=16, grid_pitch="2/4", out=None)
    assert new.doc == {**cfg.doc, "seed": 9, "max_atoms": 16, "grid_pitch": "1/2"}
    assert cfg.doc["seed"] == 3
    with pytest.raises(ValidationError, match=r"^field 'max_atoms': must be >= 1, got 0$"):
        cfg.with_top(max_atoms=0)
    with pytest.raises(ParseError, match=r"^field 'bogus': unknown field$"):
        cfg.with_top(bogus=1)


def _counting_check(monkeypatch, check):
    """cmd_check on an example-2.6 generator that records each level it builds."""
    from convspectra import sequences

    built = []

    def gen(k):
        built.append(k)
        return sequences._ex26_gen(k)

    seq = sequences.from_generator(gen, 2, declared_contractivity=Fraction(1, 16))
    monkeypatch.setattr(cli.RunConfig, "build_sequence", lambda self: seq)
    doc = {"dimension": 2, "sequence": {"generator": "example-2.6"}, "check": check}
    return cli.cmd_check(cli.parse_config(json.dumps(doc))), built


def test_check_builds_every_level_once(monkeypatch):
    from convspectra import sequences

    # hadamard's levels 1..24 (5500 digits) stay inside the digit budget, so
    # the three-series walk to 50 that follows builds only levels 25..50
    checks = ["hadamard", "three-series"]
    rep, built = _counting_check(monkeypatch, {"upto": 50, "hadamard_upto": 24, "checks": checks})
    assert list(rep.verdicts) == checks
    assert sorted(built) == list(range(1, 51))
    # every level is past the digit cache, so a second pass would rebuild it
    monkeypatch.setattr(sequences, "_DIGIT_CACHE_LIMIT", 4)
    series = ["equivalence", "rbc", "pcc", "contractivity"]
    rep, built = _counting_check(monkeypatch, {"upto": 12, "checks": series})
    assert list(rep.verdicts) == series
    assert sorted(built) == list(range(1, 13))


def _digits_past_the_limit(n: int) -> str:
    """str(n) with the interpreter's int-to-str digit limit lifted."""
    import sys

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_cells_past_the_int_digit_limit_are_printed_whole():
    from convspectra import conditions

    # Σ_{k<=5000} 1/(k+1)^2 has a 4340-digit denominator, past str()'s 4300
    terms = [Fraction(1, (k + 1) ** 2) for k in range(1, 5001)]
    diag = conditions._finish_scalar_series("rbc", list(range(1, 5001)), terms, None)
    last = diag.partial_sums[-1]
    assert len(_digits_past_the_limit(last.denominator)) > 4300
    with pytest.raises(ValueError):
        str(last)
    want = f"{_digits_past_the_limit(last.numerator)}/{_digits_past_the_limit(last.denominator)}"
    assert cli._fmt(last) == want
    assert cli._fmt(-last) == "-" + want and cli._fmt(Fraction(10**5000)) == "1" + "0" * 5000
    tab, notes = cli._series_table("rbc", diag)
    assert len(tab.rows) == cli._TABLE_ROW_LIMIT and tab.rows[-1] == ("5000", "1/25010001", want)
    assert "table clipped" in notes[-1]


def test_check_series_past_the_int_digit_limit_exits_0(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 2, "sequence": {"generator": "example-2.6"},
                                  "check": {"upto": 5000, "checks": ["rbc"]}})
    rc, out, err = run_cli(["check", "--config", cfg])
    assert rc == 0 and err == ""
    note = next(l for l in out.splitlines() if "final partial (exact)" in l)
    assert len(note.split()[-1]) > 8600
