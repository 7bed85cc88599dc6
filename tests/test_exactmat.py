import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convspectra.errors import IndexOutOfRange, SingularMatrix
from convspectra.exactmat import (
    IntMatrix,
    RatMatrix,
    adjugate,
    charpoly,
    count_real_roots,
    invert,
    make_squarefree,
    poly_divmod,
    poly_eval,
    product_range,
    spectral_norm_upper,
)

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


def test_invert_identity():
    i3 = IntMatrix.identity(3)
    assert invert(i3).rows == RatMatrix.identity(3).rows


def test_invert_diag16():
    m = IntMatrix.diagonal([16, 16])
    inv = invert(m)
    assert inv.rows == ((F(1, 16), F(0)), (F(0), F(1, 16)))


def test_invert_upper_triangular():
    m = IntMatrix(((2, 1), (0, 2)))
    inv = invert(m)
    assert inv.rows == ((F(1, 2), F(-1, 4)), (F(0), F(1, 2)))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(IntMatrix(((1, 2), (2, 4))))


def test_invert_roundtrip_random():
    rng = random.Random(4001)
    for _ in range(50):
        d = rng.randint(1, 4)
        m = rand_invertible(rng, d)
        prod = m.to_rat().matmul(invert(m))
        assert prod.rows == RatMatrix.identity(d).rows


def test_transpose_invert_commute():
    rng = random.Random(4002)
    for _ in range(20):
        m = rand_invertible(rng, rng.randint(1, 4))
        assert invert(m.transpose()).rows == invert(m).transpose().rows


def test_adjugate_identity():
    rng = random.Random(4003)
    for _ in range(20):
        m = rand_invertible(rng, rng.randint(1, 3))
        det, adj = adjugate(m)
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
        if m.det() == 0:
            with pytest.raises(SingularMatrix):
                adjugate(m)
            continue
        det, adj = adjugate(m)
        assert det == m.det()
        assert adj.matmul(m) == IntMatrix.diagonal([det] * d)
        assert m.inverse() == invert(m)
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


# ----- charpoly / polynomial helpers -----


def test_charpoly_diagonal():
    p = charpoly(IntMatrix.diagonal([2, 3]))
    assert p == [F(6), F(-5), F(1)]


def test_charpoly_rotation_like():
    p = charpoly(IntMatrix(((0, -2), (1, 0))))
    assert p == [F(2), F(0), F(1)]


def test_poly_divmod_and_roots():
    # (x-1)(x-3) = 3 - 4x + x^2
    p = [F(3), F(-4), F(1)]
    q, r = poly_divmod(p, [F(-1), F(1)])
    assert r == [F(0)] and q == [F(-3), F(1)]
    assert count_real_roots(p, F(0), F(4)) == 2
    assert count_real_roots(p, F(2), F(4)) == 1
    assert count_real_roots(p, F(4), F(9)) == 0


def test_make_squarefree():
    # (x-2)^2 = 4 - 4x + x^2
    sf = make_squarefree([F(4), F(-4), F(1)])
    assert poly_eval(sf, F(2)) == 0
    assert len(sf) == 2


# ----- spectral_norm_upper -----


def test_norm_zero_matrix():
    z = RatMatrix(((F(0), F(0)), (F(0), F(0))))
    assert spectral_norm_upper(z) == 0.0


def test_norm_diag_inverse():
    u = spectral_norm_upper(invert(IntMatrix.diagonal([16, 16])), tol=1e-12)
    assert 1 / 16 <= u <= 1 / 16 + 1e-12


def test_norm_triangular_vs_svd_oracle():
    m = RatMatrix(((F(1, 2), F(-1, 4)), (F(0), F(1, 2))))
    # closed-form largest singular value of a 2x2 matrix
    s = F(1, 4) + F(1, 16) + F(1, 4)
    d = F(1, 4)
    sigma_sq = (s + math.sqrt(float(s * s - 4 * d * d))) / 2
    sigma = math.sqrt(float(sigma_sq))
    u = spectral_norm_upper(m, tol=1e-12)
    assert sigma - 1e-9 <= u <= sigma + 1e-9


def test_norm_random_vs_numpy():
    rng = random.Random(4005)
    for _ in range(25):
        d = rng.randint(1, 4)
        m = RatMatrix(
            tuple(tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)) for _ in range(d))
        )
        u = spectral_norm_upper(m, tol=1e-10)
        ref = np.linalg.svd(np.array([[float(x) for x in row] for row in m.rows]), compute_uv=False)[0]
        assert u >= ref - 1e-7
        assert u <= ref + 1e-7 + 1e-10
        # certified side: never below the exact max column norm
        for j in range(d):
            col = math.sqrt(sum(float(m.rows[i][j]) ** 2 for i in range(d)))
            assert u >= col - 1e-10


# ----- adjugate memo -----


def test_adjugate_is_computed_once_per_instance(monkeypatch):
    import convspectra.exactmat as exactmat
    from convspectra.conditions import _pcc_sup_sq
    from convspectra.measures import scaled_atom_rows
    from convspectra.triples import DigitSet, numerators

    calls = []
    real = exactmat._fraction_free_adjugate

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(exactmat, "_fraction_free_adjugate", counting)
    monkeypatch.setattr(exactmat, "invert", lambda m: pytest.fail("adjugate inverts with Fractions"))
    m = IntMatrix(((3, 1), (-2, 5)))
    b = DigitSet.of([(0, 0), (1, 2), (-4, 7)])
    first = adjugate(m)
    numerators(m, b)
    scaled_atom_rows(m, b)
    _pcc_sup_sq(m)
    assert adjugate(m) is first and len(calls) == 1
    det, adj = first
    assert det == 17 and adj.matmul(m) == IntMatrix(((17, 0), (0, 17)))
    with pytest.raises(SingularMatrix):
        adjugate(IntMatrix(((1, 2), (2, 4))))
