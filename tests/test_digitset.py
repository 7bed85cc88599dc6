"""Columnar digit sets and the exact numerator kernel, pinned against the
tuple and Fraction formulations they replace (kept here as oracles)."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convspectra.conditions import (
    _aligned_tables,
    _count_outside_box,
    defect_term,
    pcc_split,
    rbc_split,
)
from convspectra.errors import CongruentDigits, DimensionMismatch, EmptySet
from convspectra.exactmat import IntMatrix
from convspectra.sequences import builtin_sequence
from convspectra.triples import DigitSet, mod_reduce, numerators
from oracles import coupling_eval, fraction_inverse

H = 1 << 31  # the int64 headroom of DigitSet.grid
HALF = Fraction(1, 2)


# ---- oracles: the per-digit tuple/Fraction code the kernels replace ----


def oracle_reduce(vectors, r):
    """(sorted representatives, CongruentDigits message or None)."""
    inv = fraction_inverse(r)
    seen, reps = {}, []
    message = None
    for v in vectors:
        n = tuple(math.floor(c + HALF) for c in inv.matvec(v))
        t = tuple(x - y for x, y in zip(v, r.matvec(n)))
        if t in seen and message is None:
            message = f"digits {seen[t]} and {v} are congruent mod R·Z^d (both reduce to {t})"
        seen.setdefault(t, v)
        reps.append(t)
    return tuple(sorted(set(reps))), message


def oracle_in_box(r, v):
    return all(-HALF <= c < HALF for c in fraction_inverse(r).matvec(v))


def oracle_near(r, v, l):
    return sum(abs(c) for c in fraction_inverse(r).matvec(v)) < (1 - Fraction(l)) / 2


def oracle_defect(a, b):
    sa, sb = set(a), set(b)
    shared = len(sa & sb)
    return max(Fraction(len(sb) - shared, len(sb)), Fraction(len(sa) - shared, len(sa)))


def oracle_tables(a, b):
    sa, sb = set(a), set(b)
    shared = sorted(sa & sb)
    ax, ay = shared + sorted(sa - sb), shared + sorted(sb - sa)
    swapped = len(ax) > len(ay)
    if swapped:
        ax, ay = ay, ax
    return ax, ay, len(shared), swapped


# ---- inputs ----


def entry(rng):
    kind = rng.random()
    if kind < 0.6:
        return rng.randint(-60, 60)
    if kind < 0.85:  # straddling the headroom
        return rng.choice((-1, 1)) * (H + rng.randint(-3, 2))
    return rng.choice((-1, 1)) * rng.randint(2**40, 2**90)  # far past int64


def random_rows(rng, dim, n):
    return [tuple(entry(rng) for _ in range(dim)) for _ in range(n)]


MATRICES = {
    1: [IntMatrix.diagonal([5]), IntMatrix.diagonal([-4]), IntMatrix.diagonal([2**40 + 1])],
    2: [
        IntMatrix.diagonal([6, 9]),
        IntMatrix.diagonal([-3, 7]),  # negative determinant
        IntMatrix(((2, 1), (1, 3))),
        IntMatrix(((1, 4), (3, -2))),  # negative determinant, non-diagonal
        IntMatrix(((2**35, 1), (3, 2**33))),  # forces the exact object path
    ],
    3: [
        IntMatrix.diagonal([3, 4, 5]),
        IntMatrix(((2, 1, 0), (0, 3, 1), (1, 0, -4))),
        IntMatrix(((0, 2, 1), (3, 0, 0), (1, 1, 5))),
    ],
}
CASES = [(d, i, seed) for d, ms in MATRICES.items() for i in range(len(ms)) for seed in range(4)]


def half_box_corners(r):
    """Digits ±R·e_i/2, which sit on the faces of R·[-1/2, 1/2)^d, where integral."""
    cols = list(zip(*r.rows))
    return [tuple(s * x // 2 for x in col) for col in cols if all(x % 2 == 0 for x in col)
            for s in (1, -1)]


def case(d, i, seed):
    rng = random.Random(1000 * d + 10 * i + seed)
    r = MATRICES[d][i]
    rows = random_rows(rng, d, rng.randint(1, 40)) + half_box_corners(r)[: seed % 3]
    return r, DigitSet.of(rows), rows


# ---- DigitSet layout, equality and validation ----


def test_layout_splits_at_the_headroom():
    rows = [(H - 1, 0), (-(H - 1), 5), (H, 0), (-H, 1), (2**70, -2**70), (3, 4), (3, 4)]
    b = DigitSet.of(rows)
    assert b.grid.dtype == np.int64 and not b.grid.flags.writeable
    assert b.grid.flags.f_contiguous
    assert b.grid.tolist() == [[-(H - 1), 5], [3, 4], [H - 1, 0]]
    assert b.wide == ((-H, 1), (H, 0), (2**70, -2**70))
    assert b.vectors == tuple(sorted(set(rows)))
    assert len(b) == 6
    for v in rows:
        assert v in b
    for v in [(H + 1, 0), (0, 0), (3, 5), (2**70, 0)]:
        assert v not in b


@pytest.mark.parametrize("d, i, seed", CASES)
def test_vectors_equality_and_hash_follow_the_tuple_form(d, i, seed):
    _, b, rows = case(d, i, seed)
    assert b.vectors == tuple(sorted(set(rows)))
    assert list(b) == sorted(set(rows))
    shuffled = list(rows) * 2
    random.Random(seed).shuffle(shuffled)
    other = DigitSet.of(shuffled)
    assert other == b and hash(other) == hash(b)
    # the internal constructor from arrays in any order agrees with `of`
    small = [v for v in rows if all(abs(x) < H for x in v)]
    big = [v for v in rows if v not in small]
    arr = np.array(small[::-1], dtype=np.int64).reshape(-1, d)
    assert DigitSet._from_rows(d, arr, big) == b
    assert DigitSet._from_rows(d, np.array(rows, dtype=object)) == b
    if len(set(rows)) > 1:
        assert DigitSet.of(sorted(set(rows))[1:]) != b
    assert DigitSet.of(rows + [(2**100,) * d]) != b


def test_digitset_of_keeps_its_errors():
    with pytest.raises(EmptySet, match="digit set must be nonempty"):
        DigitSet.of([])
    with pytest.raises(DimensionMismatch, match=r"digit \(3,\) does not have dimension 2"):
        DigitSet.of([(1, 2), (3,)])
    with pytest.raises(DimensionMismatch):
        DigitSet.of([(1, 2)], dim=3)
    with pytest.raises(TypeError, match="digit entries must be ints, got True"):
        DigitSet.of([(1, True)])
    with pytest.raises(TypeError, match=r"digit entries must be ints, got 1\.0"):
        DigitSet.of([(1.0, 2)])
    with pytest.raises(TypeError, match="got 1.5"):
        DigitSet.of([(2**80, 1.5)])


# ---- the numerator kernel and what is derived from it ----


def test_numerators_choose_int64_only_with_headroom():
    b = DigitSet.of([(1, 2), (H - 1, -(H - 1)), (2**70, 0)])
    den, y_grid, y_wide = numerators(IntMatrix(((2, 1), (1, 3))), b)
    assert den == 5 and y_grid.dtype == np.int64 and y_wide.dtype == object
    den, y_grid, _ = numerators(IntMatrix(((2**35, 1), (3, 2**33))), b)
    assert y_grid.dtype == object
    # R^{-1} v = y / den exactly, on both paths and both parts
    for r in (IntMatrix(((2, 1), (1, 3))), IntMatrix(((2**35, 1), (3, 2**33))),
              IntMatrix(((1, 4), (3, -2)))):
        den, y_grid, y_wide = numerators(r, b)
        ys = b.in_order([tuple(row) for row in y_grid.tolist()], [tuple(row) for row in y_wide.tolist()])
        inv = fraction_inverse(r)
        for v, y in zip(b.vectors, ys):
            assert tuple(Fraction(x, den) for x in y) == inv.matvec(v)


@pytest.mark.parametrize("d, i, seed", CASES)
def test_mod_reduce_matches_fraction_oracle(d, i, seed):
    r, b, _ = case(d, i, seed)
    want, message = oracle_reduce(b.vectors, r)
    if message is None:
        red = mod_reduce(b, r)
        assert red.vectors == want
        assert red == DigitSet.of(want)
    else:
        with pytest.raises(CongruentDigits) as err:
            mod_reduce(b, r)
        assert str(err.value) == message


@pytest.mark.parametrize("d, i, seed", CASES)
def test_box_and_cone_splits_match_fraction_oracle(d, i, seed):
    r, b, _ = case(d, i, seed)
    inside = [v for v in b.vectors if oracle_in_box(r, v)]
    sp = rbc_split(r, b)
    assert sp.b1.vectors == tuple(inside)
    assert sp.b2.vectors == tuple(v for v in b.vectors if v not in inside)
    assert _count_outside_box(r, b) == len(b) - len(inside)
    for l in (Fraction(1, 4), Fraction(2, 3), Fraction(1, 1000)):
        near, far = pcc_split(r, b, l)
        want = tuple(v for v in b.vectors if oracle_near(r, v, l))
        assert near.vectors == want
        assert far.vectors == tuple(v for v in b.vectors if v not in want)


@pytest.mark.parametrize("d, i, seed", CASES[::3])
def test_defect_and_aligned_tables_match_set_oracle(d, i, seed):
    rng = random.Random(seed + 77 * d)
    _, a, rows = case(d, i, seed)
    rows_b = [v for v in rows if rng.random() < 0.6] + random_rows(rng, d, rng.randint(1, 20))
    b = DigitSet.of(rows_b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert defect_term(x, y) == oracle_defect(x.vectors, y.vectors)
        ax, ay, s, swapped = _aligned_tables(x, y)
        want = oracle_tables(x.vectors, y.vectors)
        assert (ax[0].vectors + ax[1].vectors, ay[0].vectors + ay[1].vectors, s, swapped) == (
            tuple(want[0]), tuple(want[1]), want[2], want[3]
        )
        for t in (Fraction(0), Fraction(1, 3), Fraction(7, 9)):
            xv, yv = coupling_eval(x, y, t)
            assert xv in x and yv in y


@pytest.mark.parametrize("k", range(10, 31))
def test_example_2_6_levels_match_oracles(k):
    seq = builtin_sequence("example-2.6")
    r, b = seq.matrix(k), seq.digits(k)
    far = (k + 8**k * math.factorial(k + 1), 0)
    assert b.wide == (far,) and len(b.grid) == (k + 1) ** 2 - 1
    vectors = tuple(v for v in sorted((x, y) for x in range(k + 1) for y in range(k + 1)) if v != (k, 0))
    assert b.vectors == vectors + (far,)
    want, message = oracle_reduce(b.vectors, r)
    assert message is None
    red = mod_reduce(b, r)
    assert red.vectors == want and red.wide == ()
    assert seq.reduced().digits(k) == red
    assert _count_outside_box(r, b) == 1
    assert rbc_split(r, b).b2.vectors == (far,)
    near, far_set = pcc_split(r, b, Fraction(1, 4))
    assert far_set.vectors == (far,)
    assert defect_term(b, red) == oracle_defect(b.vectors, red.vectors) == Fraction(1, (k + 1) ** 2)
    # the check path works on the columns and never builds the tuple view
    fresh = builtin_sequence("example-2.6")
    for fn in (lambda s: s.digits(k), lambda s: s.reduced().digits(k)):
        d = fn(fresh)
        _count_outside_box(r, d)
        pcc_split(r, d, Fraction(1, 4))
        mod_reduce(d, r)
        assert "vectors" not in d.__dict__


def test_congruent_far_digit_message_is_unchanged():
    k = 12
    far = (k + 8**k * math.factorial(k + 1), 0)
    r = IntMatrix.diagonal([8 * (k + 1), 8 * (k + 1)])
    b = DigitSet.of([(0, 1), (k, 0), far])
    _, message = oracle_reduce(b.vectors, r)
    assert message == f"digits {(k, 0)} and {far} are congruent mod R·Z^d (both reduce to {(k, 0)})"
    with pytest.raises(CongruentDigits) as err:
        mod_reduce(b, r)
    assert str(err.value) == message


def test_check_command_never_builds_the_tuple_view(monkeypatch):
    import json

    from convspectra import cli

    def refuse(self):
        raise AssertionError("DigitSet.vectors built on the check path")

    monkeypatch.setattr(DigitSet, "vectors", property(refuse))
    doc = {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "check": {"upto": 12, "hadamard_upto": 5, "checks": list(cli._CHECK_NAMES)},
    }
    rep = cli.cmd_check(cli.parse_config(json.dumps(doc)))
    assert set(rep.verdicts) == set(cli._CHECK_NAMES)
