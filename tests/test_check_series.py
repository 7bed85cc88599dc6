"""The one-walk series check against the per-check loops it replaced.

Each oracle below is one of the old per-check loops over k, kept here as
the reference: the walk's terms, partial sums, verdicts, margins and
contractivity report must equal theirs, and every level must be built once.
"""
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import convspectra.cli as cli
import convspectra.conditions as conditions
import convspectra.exactmat as exactmat
from convspectra.conditions import (
    SERIES_CHECKS,
    PccSeriesDiagnostics,
    check_series,
    contractivity_report,
    defect_term,
    equivalence_defect,
    pcc_series,
    rbc_series,
)
from convspectra.errors import CongruentDigits
from convspectra.exactmat import IntMatrix, invert, spectral_norm_upper
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.triples import DigitSet, box_mask, cone_mask, mod_reduce, numerators
from oracles import fraction_inverse, over_common_denominator

F = Fraction


# ---- the old per-check loops, as oracles ----


def oracle_equivalence(seq, upto):
    return equivalence_defect(seq, seq.reduced(), upto, tail_bound=seq.defect_tail_bound)


def oracle_rbc(seq, upto):
    indices = list(range(1, upto + 1))
    terms = []
    for k in indices:
        b = seq.digits(k)
        den, y = numerators(seq.matrix(k), b)
        inside = int(box_mask(y, den).sum())
        terms.append(F(len(b) - inside, len(b)))
    return conditions._finish_scalar_series("rbc", indices, terms, None)


def oracle_pcc(seq, l, indices):
    lf = F(l)
    one_minus_sq = (1 - lf) ** 2
    terms, min_margin, margin_ok = [], math.inf, True
    for k in indices:
        r = seq.matrix(k)
        b = seq.digits(k)
        den, y = numerators(r, b)
        near = int(cone_mask(y, den, (1 - lf) / 2).sum())
        terms.append(F(len(b) - near, len(b)))
        sup_sq = conditions._pcc_sup_sq(r)
        if sup_sq >= one_minus_sq:
            margin_ok = False
        min_margin = min(min_margin, 1.0 - float(lf) - math.sqrt(float(sup_sq)))
    base = conditions._finish_scalar_series(f"pcc[l={lf}]", list(indices), terms, None)
    return PccSeriesDiagnostics(**base._asdict(), min_margin=min_margin, margin_ok=margin_ok)


def oracle_contractivity(seq, upto, tol=1e-12):
    """The old scan, on Fraction Gauss-Jordan inverses over their least
    common denominator."""
    worst, at = -math.inf, 0
    for k in range(1, upto + 1):
        n, d = over_common_denominator(fraction_inverse(seq.matrix(k)))
        u = spectral_norm_upper(n, d, tol=tol)
        if u > worst:
            worst, at = u, k
    return worst, at


# ---- sequences ----


def _representative(r, v):
    inv = fraction_inverse(r)
    n = [math.floor(c + F(1, 2)) for c in inv.matvec(v)]
    return tuple(x - y for x, y in zip(v, r.matvec(n)))


def _distinct_classes(rng, r, count, spread, wide=False):
    """Up to `count` digits in distinct classes mod R·Z^d, many outside the
    box, some shifted by R·n with |n| past 2^31 when `wide`."""
    d = r.dim
    seen, rows = set(), []
    for _ in range(4 * count):
        v = tuple(rng.randint(-spread, spread) for _ in range(d))
        rep = _representative(r, v)
        if rep in seen:
            continue
        seen.add(rep)
        if wide and rng.random() < 0.2:
            v = tuple(x + y for x, y in zip(v, r.matvec([rng.randint(2**31, 2**40) for _ in range(d)])))
        rows.append(v)
        if len(rows) == count:
            break
    return DigitSet.of(rows)


def _skew_2d(k):
    r = IntMatrix(((3 + k, 1), (2, -2 - k)))
    return r, _distinct_classes(random.Random(100 + k), r, 3 + 2 * k, 3, wide=True), None


def _skew_3d(k):
    r = IntMatrix(((2 + k, 1, 0), (0, 3, -1), (1, 0, 2 + k % 3)))
    return r, _distinct_classes(random.Random(200 + k), r, 4 + 3 * k, 3, wide=True), None


SEQUENCES = {
    "example-2.6": lambda: builtin_sequence("example-2.6"),
    "jorgensen-pedersen": lambda: builtin_sequence("jorgensen-pedersen"),
    "bernoulli-quarter": lambda: builtin_sequence("bernoulli-quarter"),
    "skew-2d": lambda: from_generator(_skew_2d, 2),
    "skew-3d": lambda: from_generator(_skew_3d, 3, declared_contractivity=F(9, 10)),
    "finite": lambda: builtin_sequence("example-2.6", max_k=7),
}


def _assert_matches_oracles(seq, got, upto, eq_upto, l=F(1, 4)):
    assert set(got) == set(SERIES_CHECKS)
    assert got["equivalence"] == oracle_equivalence(seq, eq_upto)
    assert got["rbc"] == oracle_rbc(seq, upto)
    assert got["pcc"] == oracle_pcc(seq, l, range(1, upto + 1))
    rep = got["contractivity"]
    assert (rep.max_norm_upper, rep.at_level) == oracle_contractivity(seq, upto)
    assert rep.declared == seq.declared_contractivity


@pytest.mark.parametrize("name", list(SEQUENCES))
@pytest.mark.parametrize("upto, eq_upto", [(7, 7), (7, 3), (4, 7)])
def test_walk_equals_the_per_check_loops(name, upto, eq_upto):
    seq = SEQUENCES[name]()
    got = check_series(seq, SERIES_CHECKS, upto, equivalence_upto=eq_upto)
    _assert_matches_oracles(SEQUENCES[name](), got, upto, eq_upto)
    assert len(got["equivalence"].terms) == eq_upto
    assert len(got["rbc"].terms) == len(got["pcc"].terms) == upto


def test_skew_sequences_move_digits_and_reach_wide_rows():
    for name in ("skew-2d", "skew-3d"):
        seq = SEQUENCES[name]()
        assert any(seq.digits(k).rows.dtype == object for k in range(1, 8))
        terms = check_series(seq, ["rbc"], 7)["rbc"].terms
        assert sum(0 < t < 1 for t in terms) >= 5


def test_walk_equals_the_loops_at_the_cli_defaults():
    seq = builtin_sequence("example-2.6")
    got = check_series(seq, SERIES_CHECKS, 40, pcc_l="1/3")
    _assert_matches_oracles(builtin_sequence("example-2.6"), got, 40, 40, F(1, 3))
    assert got["equivalence"].verdict == "certified"


def test_thin_series_equal_the_oracles():
    seq = SEQUENCES["skew-2d"]()
    assert rbc_series(seq, 6) == oracle_rbc(seq, 6)
    assert pcc_series(seq, F(1, 3), subseq=[2, 3, 6]) == oracle_pcc(seq, F(1, 3), [2, 3, 6])
    rep = contractivity_report(seq, 6)
    assert (rep.max_norm_upper, rep.at_level) == oracle_contractivity(seq, 6)
    assert rep.verdict == "unverified-tail"


def test_levels_past_equivalence_upto_are_never_reduced(monkeypatch):
    calls = []
    real = conditions.check_reduction

    def counting(r, b, *rest):
        calls.append(len(b))
        return real(r, b, *rest)

    monkeypatch.setattr(conditions, "check_reduction", counting)

    def gen(k):
        r = IntMatrix.diagonal([5])
        # from level 4 on, 0 and 5 are congruent mod 5
        return r, DigitSet.of([(0,), (1,), (5,)] if k >= 4 else [(0,), (1,), (7,)]), None

    seq = from_generator(gen, 1)
    got = check_series(seq, SERIES_CHECKS, 8, equivalence_upto=3)
    assert len(calls) == 3 and len(got["rbc"].terms) == 8
    with pytest.raises(CongruentDigits):
        check_series(from_generator(gen, 1), ["equivalence"], 3, equivalence_upto=4)


def _congruent_at(level):
    def gen(k):
        r = IntMatrix(((3, 1), (1, -2)))  # det -7
        rows = [(0, 0), (1, 0), (0, 1), (9, 2)]
        if k == level:
            rows.append((3, 1))  # congruent to (0, 0)
        return r, DigitSet.of(rows), None

    return gen


@pytest.mark.parametrize("level", [1, 3])
def test_congruent_digits_raise_the_same_message_at_the_same_level(level):
    with pytest.raises(CongruentDigits) as old:
        oracle_equivalence(from_generator(_congruent_at(level), 2), 5)
    with pytest.raises(CongruentDigits) as new:
        check_series(from_generator(_congruent_at(level), 2), SERIES_CHECKS, 5)
    assert str(new.value) == str(old.value)
    for upto in range(1, level):
        # the levels before stay clean under both
        got = check_series(from_generator(_congruent_at(level), 2), ["equivalence"], upto)
        assert got["equivalence"] == oracle_equivalence(from_generator(_congruent_at(level), 2), upto)


def _random_instance(seed):
    rng = random.Random(seed)
    d = 1 + seed % 3
    while True:
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        r = IntMatrix(tuple(map(tuple, rows)))
        if r.det() != 0 and (d == 1 or not r.is_diagonal()):
            break
    digits = set()
    for _ in range(rng.randint(2, 30)):
        v = [rng.randint(-40, 40) for _ in range(d)]
        if rng.random() < 0.15:
            v[rng.randrange(d)] += rng.choice((-1, 1)) * rng.randint(2**31, 2**70)
        digits.add(tuple(v))
    if len(digits) < 2:
        digits |= {(0,) * d, (1,) * d}
    return r, DigitSet.of(sorted(digits))


@pytest.mark.parametrize("seed", range(60))
def test_reduced_defect_is_the_outside_fraction(seed):
    r, b = _random_instance(seed)
    seq = from_generator(lambda k: (r, b, None), r.dim, length=1)
    try:
        red = mod_reduce(b, r)
    except CongruentDigits as exc:
        with pytest.raises(CongruentDigits) as err:
            check_series(seq, ["equivalence"], 1)
        assert str(err.value) == str(exc)
        return
    got = check_series(seq, ["equivalence", "rbc"], 1)
    assert got["equivalence"].terms == (defect_term(b, red),)
    assert got["equivalence"].terms == got["rbc"].terms


def test_random_instances_cover_both_outcomes_and_wide_digits():
    congruent = clean = wide = 0
    for seed in range(60):
        r, b = _random_instance(seed)
        wide += b.rows.dtype == object
        try:
            mod_reduce(b, r)
            clean += 1
        except CongruentDigits:
            congruent += 1
    assert congruent and clean and wide


# ---- prefix inverse ----


@pytest.mark.parametrize(
    "name", ["example-2.6", "jorgensen-pedersen", "bernoulli-quarter", "skew-2d", "skew-3d"]
)
def test_prefix_inverse_equals_the_fraction_inverse(name):
    seq = SEQUENCES[name]()
    for k in range(0, 7):
        det, adj = invert(seq.prefix_matrix(k))
        want = fraction_inverse(seq.prefix_matrix(k))
        assert tuple(tuple(F(x, det) for x in row) for row in adj.rows) == want.rows


def test_sample_calls_no_fraction_inverse(monkeypatch):
    results = []
    real = exactmat.invert

    def recording(m):
        out = real(m)
        results.append(out)
        return out

    for name, mod in list(sys.modules.items()):
        if name.startswith("convspectra") and getattr(mod, "invert", None) is real:
            monkeypatch.setattr(mod, "invert", recording)
    cfg = cli.parse_config(
        json.dumps(
            {
                "dimension": 2,
                "sequence": {"generator": "example-2.6"},
                "seed": 5,
                "sample": {"upto": 6, "draws": 50, "scaled": True},
            }
        )
    )
    rep = cli.cmd_sample(cfg)
    assert rep.artifact.count("\n") == 51
    assert results
    for det, adj in results:
        assert type(det) is int and det != 0
        assert isinstance(adj, IntMatrix)
        assert all(type(x) is int for row in adj.rows for x in row)


def test_a_walk_to_200_holds_at_most_the_digit_budget():
    from convspectra import sequences

    seq = builtin_sequence("example-2.6")
    check_series(seq, SERIES_CHECKS, 200)
    for k in range(1, 41):
        seq.spectrum_digits(k)
    limit = sequences._DIGIT_CACHE_LIMIT
    # levels are held in walk order while they fit: #B_k = (k+1)^2, and
    # levels 1..29 hold 9454 digits
    assert sorted(seq._levels) == list(range(1, 30))
    assert sum(len(b) for _, b, _ in seq._levels.values()) == 9454 <= limit
    assert seq._last_big[0] == 40
