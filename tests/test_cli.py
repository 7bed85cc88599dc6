"""End-to-end tests for the command-line surface: config parsing, exit
codes, artifact routing, and byte-level determinism of CSV output."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from convspectra import cli
from convspectra.errors import ParseError, ValidationError
from convspectra.spectra import read_levels


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


def test_exit_3_when_one_qscan_point_exceeds_the_byte_budget(tmp_path):
    lams = [[i] for i in range(4096)]
    doc = jp_doc(qscan={"truncation": 12, "lambda": lams, "grid_pitch": "1/2"})
    rc, out, err = run_cli(["qscan", "--config", write_config(tmp_path, doc)])
    assert rc == 3
    assert err.startswith("resource cap:") and "budget" in err
    assert out == ""


def test_exit_1_on_honestly_failing_check(tmp_path):
    # boundary remapping moves a digit at every level of this sequence, so
    # the defect series against the reduced form genuinely diverges
    cfg = write_config(tmp_path, jp_doc(check={"upto": 12, "checks": ["equivalence"]}))
    rc, out, _ = run_cli(["check", "--config", cfg])
    assert rc == 1
    assert "overall: FAIL" in out
    assert "equivalence=fail" in out


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
    assert sp.final() == ((0,), (1,), (4,), (5,), (16,), (17,), (20,), (21,))


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


def test_shipped_configs_parse(tmp_path):
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
    assert len(paths) == 6
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        assert cfg.dimension in (1, 2)
