"""End-to-end tests for the command-line surface: config parsing, exit
codes, artifact routing, and byte-level determinism of CSV output."""

import contextlib
import copy
import io
import json
import os
from fractions import Fraction

import pytest

from convspectra import _phases, cli, spectra
from convspectra.errors import ParseError, ValidationError
from convspectra.measures import DiscreteMeasure, mu_truncate
from convspectra.sequences import builtin_sequence
from convspectra.spectra import read_levels
from oracles import level_tuples, qscan_csv, sample_csv


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


def test_exit_3_when_a_flat_hadamard_gram_exceeds_the_byte_budget(tmp_path):
    # one level with 4096 digits: its Gram table alone needs 16 * 4096^2 bytes
    digits = [[i] for i in range(4096)]
    level = {"matrix": [[4096]], "digits": digits, "spectrum_digits": digits}
    doc = {
        "dimension": 1,
        "sequence": {"inline": [level]},
        "check": {"checks": ["hadamard"], "upto": 1},
    }
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, doc)])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert out == ""


def _ex26_hadamard_doc(level):
    return {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "check": {"checks": ["hadamard"], "upto": level, "hadamard_upto": level},
    }


def test_exit_3_when_an_example_2_6_hadamard_level_exceeds_the_byte_budget(tmp_path, monkeypatch):
    # at 256 KiB, level 35's difference lattice (the 36 differences u >= 0 of
    # one axis against the 71 of the other, factors of 36 atoms per axis of
    # L) fits and level 36's (37 x 73, 37 atoms) does not
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 1 << 18)
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, _ex26_hadamard_doc(35))])
    assert rc == 0 and "verdicts: hadamard=pass" in out
    rc, out, err = run_cli(["check", "--config", write_config(tmp_path, _ex26_hadamard_doc(36))])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert "Traceback" not in err and out == ""


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
    cfg = write_config(tmp_path, _qscan_doc())
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", _QSCAN_ONE_ROW)
    rc, out, _ = run_cli(["qscan", "--config", cfg])
    assert rc == 0 and out.startswith("xi1,q\n")
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", _QSCAN_ONE_ROW - 1)
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert out == ""


def test_exit_3_when_a_qscan_grid_exceeds_the_byte_budget(tmp_path, monkeypatch):
    # 4096 points fit a budget of 4096 sized points and 4097 do not; the
    # grid is refused before it, the measure or Q is built
    per_point = cli._qscan_point_bytes(4096, 1)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 4096 * per_point)
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0]], "grid_pitch": "1/4096"}))
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 0, err
    monkeypatch.setattr(cli, "mu_truncate", None)
    monkeypatch.setattr(cli, "q_eval_many", None)
    cfg = write_config(tmp_path, jp_doc(qscan={"truncation": 2, "lambda": [[0]], "grid_pitch": "1/4097"}))
    rc, out, err = run_cli(["qscan", "--config", cfg])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert "Traceback" not in err and out == ""


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
    assert len(rep.artifact) < peak <= fixed + 20_000 * per_draw


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


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_SHA256))
def test_shipped_config_sha256_is_pinned(name):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    assert cli.config_sha256(cli.load_config(path)) == SHIPPED_CONFIG_SHA256[name]


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
    "tol": 1e-9,
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
    assert _sha(FULL_DOC) == "6e8e0e83703010b4dd6223749dd76114879e0252cf387f02d1d1b28bc29f984e"
    # an empty params object is dropped from the emission
    no_params = dict(FULL_DOC, sequence={"generator": "jorgensen-pedersen"})
    empty_params = dict(FULL_DOC, sequence={"generator": "jorgensen-pedersen", "params": {}})
    assert _sha(no_params) == _sha(empty_params)
    assert _sha(no_params) == "dbe866ba9659c38de52f1408ef9660cab8c4d759a1a76727929a8db0c6a530db"
    # a big digit given as a decimal string, and a level without spectrum digits
    big = {"matrix": [[2]], "digits": [[0], ["9007199254740993"]]}
    inline = dict(FULL_DOC, sequence={"inline": [LEVEL, big]})
    assert _sha(inline) == "33a62404011c2b41f0f7bb36a3d2c6ab9af0baa052ef54bd231b74690ac34255"


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
     ParseError, "field 'tol': expected a number"),
    ("tol boolean", ("tol",), True,
     ParseError, "field 'tol': expected a number"),
    ("tol zero", ("tol",), 0,
     ValidationError, "field 'tol': must be positive, got 0.0"),
    ("out not string", ("out",), 5,
     ParseError, "field 'out': expected a string"),
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
@pytest.mark.parametrize("field", ["tol", "equipos.fail_tol"])
def test_non_finite_float_fields_are_rejected(field, literal):
    doc = jp_doc(equipos={"depth": 2, "y_radius": "1/12"})
    section, _, name = field.rpartition(".")
    (doc[section] if section else doc)[name] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(ValidationError, match=f"field '{field}': must be finite"):
        cli.parse_config(text)


def test_integer_past_the_double_range_is_not_a_finite_float():
    with pytest.raises(ValidationError, match="field 'tol': must be finite"):
        cli.parse_config(json.dumps(jp_doc(tol=10**400)))


@pytest.mark.parametrize("value", ["inf", "nan", "-1e999"])
def test_tol_flag_rejects_non_finite_values(tmp_path, value):
    cfg = write_config(tmp_path, jp_doc(check={"upto": 2, "checks": ["hadamard"]}))
    rc, out, err = run_cli(["check", "--config", cfg, f"--tol={value}"])
    assert rc == 2
    assert "config error: field 'tol': must be finite" in err
    assert out == ""


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
    new = cfg.with_top(seed=9, tol=0.5, grid_pitch="2/4", out=None)
    assert new.doc == {**cfg.doc, "seed": 9, "tol": 0.5, "grid_pitch": "1/2"}
    assert cfg.doc["seed"] == 3
    with pytest.raises(ValidationError, match=r"^field 'tol': must be finite, got nan$"):
        cfg.with_top(tol=float("nan"))
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
