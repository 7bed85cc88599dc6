"""Digit sets, unitarity checks, modular reduction, and the composition
oracle."""
import random

import pytest

from convspectra.errors import CongruentDigits, EmptySet
from convspectra.exactmat import IntMatrix
from convspectra.triples import DigitSet, hadamard_check, mod_reduce
from oracles import compose_triples, map_digits, minkowski_sum


def dset(rows, dim=None):
    return DigitSet.of(rows, dim)


# ---- DigitSet basics ----


def test_digitset_sorts_and_dedupes():
    d = dset([(3,), (1,), (3,), (-2,)])
    assert d.vectors == ((-2,), (1,), (3,))
    assert len(d) == 3
    assert (1,) in d
    assert (2,) not in d


def test_digitset_empty_raises():
    with pytest.raises(EmptySet):
        dset([])


def test_digitset_dim_enforced():
    with pytest.raises(Exception):
        dset([(1, 2), (3,)])


def test_minkowski_and_map():
    a = dset([(0,), (1,)])
    b = dset([(0,), (4,)])
    s = minkowski_sum(a, b)
    assert s.vectors == ((0,), (1,), (4,), (5,))
    m = map_digits(IntMatrix.diagonal([3]), a)
    assert m.vectors == ((0,), (3,))


# ---- unitarity check oracles ----


def test_quarter_line_triple_is_unitary():
    assert hadamard_check(IntMatrix.diagonal([4]), dset([(0,), (2,)]), dset([(0,), (1,)])) is True


def test_quarter_line_bad_digits_not_unitary():
    # {0, 1} against {0, 1}: phases 0 and 1/4 give a visibly non-unitary matrix.
    assert hadamard_check(IntMatrix.diagonal([4]), dset([(0,), (1,)]), dset([(0,), (1,)])) is False


@pytest.mark.parametrize(
    "b, l, want",
    [
        ([(0,), (2,)], [(0,), (1,)], True),
        ([(0,), (1,)], [(0,), (1,)], False),
        ([(0,), (2,)], [(0,), (1,), (2,)], False),
    ],
)
def test_hadamard_check_returns_a_bool(b, l, want):
    assert hadamard_check(IntMatrix.diagonal([4]), dset(b), dset(l)) is want


def test_planar_level_one_is_unitary():
    r = IntMatrix.diagonal([16, 16])
    b = dset([(0, 0), (0, 1), (1, 1), (17, 0)])
    l = dset([(-8, -8), (-8, 0), (0, -8), (0, 0)])
    assert hadamard_check(r, b, l) is True


def test_size_mismatch_reported_not_raised():
    assert hadamard_check(IntMatrix.diagonal([4]), dset([(0,), (2,)]), dset([(0,), (1,), (2,)])) is False


def test_bad_triples_are_refuted():
    assert hadamard_check(IntMatrix.diagonal([4]), dset([(0,), (2,)]), dset([(0,)])) is False
    assert hadamard_check(IntMatrix.diagonal([4]), dset([(0,), (1,)]), dset([(0,), (1,)])) is False


# ---- modular reduction ----


def test_mod_reduce_line():
    r = IntMatrix.diagonal([4])
    assert mod_reduce(dset([(0,), (2,)]), r).vectors == ((-2,), (0,))
    assert mod_reduce(dset([(0,), (1,)]), r).vectors == ((0,), (1,))


def test_mod_reduce_far_digit():
    r = IntMatrix.diagonal([16, 16])
    red = mod_reduce(dset([(0, 0), (0, 1), (1, 1), (17, 0)]), r)
    assert red.vectors == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_mod_reduce_congruent_pair_raises():
    r = IntMatrix.diagonal([4])
    with pytest.raises(CongruentDigits):
        mod_reduce(dset([(0,), (4,)]), r)


def test_mod_reduce_general_matrix():
    # Non-diagonal: R = [[2, 1], [0, 2]].  R^{-1}(1, 1) = (1/4, 1/2) which has
    # second coordinate on the +1/2 boundary, so it wraps: frac part (1/4, -1/2),
    # reduced digit R·(1/4, -1/2) = (0, -1).
    r = IntMatrix(((2, 1), (0, 2)))
    red = mod_reduce(dset([(1, 1), (0, 0)]), r)
    assert red.vectors == ((0, -1), (0, 0))


def test_mod_reduce_idempotent_random():
    rng = random.Random(20260816)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        diag = [rng.choice([2, 3, 4, 5]) * rng.choice([1, -1]) for _ in range(d)]
        r = IntMatrix.diagonal(diag)
        classes = 1
        for x in diag:
            classes *= abs(x)
        rows, seen = [], set()
        while len(rows) < min(5, classes):
            v = tuple(rng.randrange(-50, 50) for _ in range(d))
            key = tuple(x % abs(diag[i]) for i, x in enumerate(v))
            if key not in seen:
                seen.add(key)
                rows.append(v)
        once = mod_reduce(dset(rows), r)
        assert mod_reduce(once, r) == once


# ---- composition ----


def test_compose_two_quarter_levels():
    t = (IntMatrix.diagonal([4]), dset([(0,), (2,)]), dset([(0,), (1,)]))
    r, b, l = compose_triples([t, t])
    assert r.rows == ((16,),)
    assert b.vectors == ((0,), (2,), (8,), (10,))
    assert l.vectors == ((0,), (1,), (4,), (5,))
    assert hadamard_check(r, b, l)


def test_compose_planar_levels_counts():
    r1 = IntMatrix.diagonal([16, 16])
    b1 = dset([(0, 0), (0, 1), (1, 1), (17, 0)])
    l1 = dset([(-8, -8), (-8, 0), (0, -8), (0, 0)])
    t1 = (r1, b1, l1)
    r2 = IntMatrix.diagonal([24, 24])
    rows = [(x, y) for x in range(3) for y in range(3)]
    rows.remove((2, 0))
    rows.append((2 + 8**2 * 6, 0))
    b2 = dset(rows)
    l2 = dset([(x, y) for x in (-8, 0, 8) for y in (-8, 0, 8)])
    t2 = (r2, b2, l2)
    r, b, l = compose_triples([t1, t2])
    assert r.rows == ((384, 0), (0, 384))
    assert len(b) == 36 and len(l) == 36
    assert hadamard_check(r, b, l)


def test_compose_single_is_same_triple():
    t = (IntMatrix.diagonal([4]), dset([(0,), (2,)]), dset([(0,), (1,)]))
    assert compose_triples([t]) == t


def test_compose_random_products_stay_unitary():
    rng = random.Random(99)
    base = [
        ((2,), [(0,), (1,)], [(0,), (1,)]),
        ((4,), [(0,), (2,)], [(0,), (1,)]),
        ((4,), [(-1,), (1,)], [(0,), (1,)]),
        ((6,), [(0,), (2,), (4,)], [(0,), (1,), (2,)]),
    ]
    ts = [(IntMatrix.diagonal(list(r)), dset(b), dset(l)) for r, b, l in base]
    assert all(hadamard_check(*t) for t in ts)
    for _ in range(10):
        picks = [rng.choice(ts) for _ in range(rng.randrange(2, 5))]
        r, b, l = compose_triples(picks)
        assert hadamard_check(r, b, l)
        assert len(b) == len(l)
        want = 1
        for _, pb, _ in picks:
            want *= len(pb)
        assert len(b) == want
