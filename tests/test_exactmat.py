import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from convspectra.errors import IndexOutOfRange, SingularMatrix
from convspectra.exactmat import DEFAULT_NORM_TOL, IntMatrix, invert, product_range, spectral_norm_upper
from oracles import FractionMatrix, fraction_det, fraction_inverse, over_common_denominator

F = Fraction


def rand_invertible(rng, d, lo=-5, hi=5):
    while True:
        m = IntMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(d)))
        if m.det() != 0:
            return m


class SeqStub:
    def __init__(self, mats):
        self.mats = mats
        self.length = len(mats)
        self.dim = mats[0].dim

    def matrix(self, k):
        return self.mats[k - 1]


# ----- invert -----


def as_fractions(pair):
    det, adj = pair
    return tuple(tuple(F(x, det) for x in row) for row in adj.rows)


def test_invert_identity():
    i3 = IntMatrix.identity(3)
    assert invert(i3) == (1, i3)


def test_invert_diag16():
    m = IntMatrix.diagonal([16, 16])
    assert as_fractions(invert(m)) == ((F(1, 16), F(0)), (F(0), F(1, 16)))


def test_invert_upper_triangular():
    m = IntMatrix(((2, 1), (0, 2)))
    assert invert(m) == (4, IntMatrix(((2, -1), (0, 2))))
    assert as_fractions(invert(m)) == ((F(1, 2), F(-1, 4)), (F(0), F(1, 2)))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(IntMatrix(((1, 2), (2, 4))))


def test_invert_roundtrip_random():
    rng = random.Random(4001)
    for _ in range(50):
        d = rng.randint(1, 4)
        m = rand_invertible(rng, d)
        det, adj = invert(m)
        assert m.matmul(adj) == adj.matmul(m) == IntMatrix.diagonal([det] * d)


def test_transpose_invert_commute():
    rng = random.Random(4002)
    for _ in range(20):
        m = rand_invertible(rng, rng.randint(1, 4))
        det, adj = invert(m)
        assert invert(m.transpose()) == (det, adj.transpose())


def test_adjugate_identity():
    rng = random.Random(4003)
    for _ in range(20):
        m = rand_invertible(rng, rng.randint(1, 3))
        det, adj = invert(m)
        assert adj.matmul(m).rows == IntMatrix.diagonal([det] * m.dim).rows


@pytest.mark.parametrize("seed", range(6))
def test_fraction_free_adjugate_matches_the_fraction_inverse(seed):
    # sparse rows force row swaps; wide entries reach past 2^64
    rng = random.Random(7100 + seed)
    checked = 0
    for _ in range(150):
        d = rng.randint(1, 5)
        pick = (0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-(2**70), 2**70))
        m = IntMatrix(tuple(tuple(rng.choice(pick) for _ in range(d)) for _ in range(d)))
        if fraction_det(m) == 0:
            assert m.det() == 0
            with pytest.raises(SingularMatrix):
                invert(m)
            continue
        det, adj = invert(m)
        assert det == m.det() == fraction_det(m)
        assert adj.matmul(m) == IntMatrix.diagonal([det] * d)
        assert as_fractions((det, adj)) == fraction_inverse(m).rows
        checked += 1
    assert checked > 50


# ----- product_range -----


def test_product_range_empty_is_identity():
    seq = SeqStub([IntMatrix.diagonal([4])])
    assert product_range(seq, 1, 1).rows == IntMatrix.identity(1).rows


def test_product_range_jorgensen():
    seq = SeqStub([IntMatrix.diagonal([4])] * 3)
    assert product_range(seq, 0, 3).rows == ((64,),)


def test_product_range_growing_diag():
    mats = [IntMatrix.diagonal([8 * (k + 1), 8 * (k + 1)]) for k in range(1, 4)]
    seq = SeqStub(mats)
    assert product_range(seq, 0, 3).rows == IntMatrix.diagonal([12288, 12288]).rows


def test_product_range_split_consistency():
    rng = random.Random(4004)
    mats = [rand_invertible(rng, 2) for _ in range(6)]
    seq = SeqStub(mats)
    for p, r, q in [(0, 2, 5), (1, 3, 6), (0, 0, 4), (2, 4, 4)]:
        whole = product_range(seq, p, q)
        split = product_range(seq, r, q).matmul(product_range(seq, p, r))
        assert whole.rows == split.rows


def test_product_range_bad_indices():
    seq = SeqStub([IntMatrix.diagonal([4])] * 2)
    with pytest.raises(IndexOutOfRange):
        product_range(seq, 2, 1)
    with pytest.raises(IndexOutOfRange):
        product_range(seq, 0, 3)


# ----- spectral_norm_upper -----


def test_norm_zero_matrix():
    z = IntMatrix(((0, 0), (0, 0)))
    assert spectral_norm_upper(z, 1) == 0.0


def test_norm_diag_inverse():
    det, adj = invert(IntMatrix.diagonal([16, 16]))
    u = spectral_norm_upper(adj, det, tol=1e-12)
    assert 1 / 16 <= u <= 1 / 16 + 1e-12


def test_norm_triangular_vs_svd_oracle():
    m = FractionMatrix(((F(1, 2), F(-1, 4)), (F(0), F(1, 2))))
    # closed-form largest singular value of a 2x2 matrix
    s = F(1, 4) + F(1, 16) + F(1, 4)
    d = F(1, 4)
    sigma_sq = (s + math.sqrt(float(s * s - 4 * d * d))) / 2
    sigma = math.sqrt(float(sigma_sq))
    u = spectral_norm_upper(*over_common_denominator(m), tol=1e-12)
    assert sigma - 1e-9 <= u <= sigma + 1e-9


def test_norm_random_vs_numpy():
    rng = random.Random(4005)
    for _ in range(25):
        d = rng.randint(1, 4)
        m = FractionMatrix(
            tuple(tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)) for _ in range(d))
        )
        u = spectral_norm_upper(*over_common_denominator(m), tol=1e-10)
        ref = np.linalg.svd(np.array([[float(x) for x in row] for row in m.rows]), compute_uv=False)[0]
        assert u >= ref - 1e-7
        assert u <= ref + 1e-7 + 1e-10
        # certified side: never below the exact max column norm
        for j in range(d):
            col = math.sqrt(sum(float(m.rows[i][j]) ** 2 for i in range(d)))
            assert u >= col - 1e-10


def test_norm_does_not_depend_on_the_representation():
    # n/d, (-n)/(-d) and (k·n)/(k·d) are one matrix: the same bound
    rng = random.Random(4006)
    for _ in range(40):
        m = rand_invertible(rng, rng.randint(1, 3))
        det, adj = invert(m)
        u = spectral_norm_upper(adj, det)
        assert u == spectral_norm_upper(IntMatrix(tuple(tuple(-x for x in r) for r in adj.rows)), -det)
        assert u == spectral_norm_upper(IntMatrix(tuple(tuple(3 * x for x in r) for r in adj.rows)), 3 * det)
        assert u == spectral_norm_upper(*over_common_denominator(fraction_inverse(m)))


def sigma_max(n, d):
    """Largest singular value of n/d, from the eigenvalues of nᵀn at the
    working precision."""
    g = n.transpose().matmul(n)
    return mpmath.sqrt(max(mpmath.eigsy(mpmath.matrix([list(r) for r in g.rows]))[0])) / abs(d)


def test_norm_vs_mpmath_oracle():
    # singular, rank-one and midpoint-hit n included: n = [[1, 1], [0, 0]]
    # has λ_max(nᵀn) = 2, which the bisection meets as an exact midpoint
    rng = random.Random(4007)
    cases = [(IntMatrix(((1, 1), (0, 0))), 1), (IntMatrix(((1, 0, 1), (0, 0, 0), (0, 0, 0))), 1)]
    for _ in range(60):
        dim = rng.randint(1, 6)
        kind = rng.choice(("full", "singular", "rank one"))
        if kind == "rank one":
            u, v = ([rng.randint(-9, 9) for _ in range(dim)] for _ in range(2))
            rows = [[a * b for b in v] for a in u]
        else:
            rows = [[rng.randint(-30, 30) for _ in range(dim)] for _ in range(dim)]
            if kind == "singular" and dim > 1:
                rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        cases.append((IntMatrix(tuple(map(tuple, rows))), rng.choice((1, -3, 7, 64))))
    with mpmath.workdps(50):
        for n, d in cases:
            u, sigma = spectral_norm_upper(n, d), sigma_max(n, d)
            assert sigma <= mpmath.mpf(u) <= sigma + DEFAULT_NORM_TOL


@pytest.mark.parametrize(
    "m, bound",
    [
        (((4, 1), (0, 4)), 0.28319555463463586),
        (((2, 1), (0, 2)), 0.6403882032024351),
        (((3, 1), (-2, 5)), 0.3170609330243408),
        (((5, 2, 0), (1, 7, -3), (0, 4, 6)), 0.22635425591924802),
        (((9, -4, 2, 1), (0, 8, 3, -5), (2, 1, 10, 0), (-3, 0, 4, 12)), 0.2635871293248142),
        (((2, 1, 0, 0, 0), (0, 2, 1, 0, 0), (0, 0, 2, 1, 0), (0, 0, 0, 2, 1), (1, 0, 0, 0, 2)), 0.752937760164693),
    ],
)
def test_norm_of_non_diagonal_inverses_is_pinned(m, bound):
    # the exact floats of the bisection on (adj R, det R); a change to its
    # start, steps or stopping rule shows here
    det, adj = invert(IntMatrix(m))
    assert spectral_norm_upper(adj, det) == bound


# ----- the inverse cache -----


def test_adjugate_is_computed_once_per_instance(monkeypatch):
    import convspectra.exactmat as exactmat
    from convspectra.conditions import _pcc_sup_sq
    from convspectra.measures import scaled_atom_rows
    from convspectra.triples import DigitSet, numerators

    calls = []
    real = exactmat._bareiss

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(exactmat, "_bareiss", counting)
    m = IntMatrix(((3, 1), (-2, 5)))
    b = DigitSet.of([(0, 0), (1, 2), (-4, 7)])
    first = invert(m)
    assert m.det() == 17
    numerators(m, b)
    scaled_atom_rows(m, b)
    _pcc_sup_sq(m)
    assert invert(m) is first and len(calls) == 1
    det, adj = first
    assert det == 17 and adj.matmul(m) == IntMatrix(((17, 0), (0, 17)))
    singular = IntMatrix(((1, 2), (2, 4)))
    assert singular.det() == 0
    with pytest.raises(SingularMatrix):
        invert(singular)
    assert len(calls) == 2
