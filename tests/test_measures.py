"""Exact measures: algebra, truncations, and Fourier cross-oracles."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convspectra import measures, sequences
from convspectra.errors import DimensionMismatch, NonUniformWeights, TruncationTooLarge, ValidationError
from convspectra.measures import (
    DiscreteMeasure,
    fourier_many,
    mu_truncate,
    tail_fourier_product,
)
from convspectra.exactmat import IntMatrix
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.spectra import spectrum_exactness
from convspectra.triples import DigitSet
from oracles import (
    clip_to_ball,
    convolve,
    fourier,
    fraction_inverse,
    mass_outside_ball,
    mean,
    nu_tail_truncate,
    point_mass,
    pushed,
    second_moment,
    uniform_on,
    variance_total,
)

F = Fraction


def halves(*vals):
    return DiscreteMeasure.make([(v, F(1, len(vals))) for v in vals])


# ---- construction and algebra ----


def test_make_merges_and_sorts():
    m = DiscreteMeasure.make([((1,), F(1, 4)), ((0,), F(1, 2)), ((1,), F(1, 4))])
    assert m.atoms == ((F(0),), (F(1),))
    assert m.weights == (F(1, 2), F(1, 2))


def test_make_rejects_bad_mass():
    with pytest.raises(ValidationError):
        DiscreteMeasure.make([((0,), F(1, 2))])
    with pytest.raises(ValidationError):
        DiscreteMeasure.make([((0,), F(3, 2)), ((1,), F(-1, 2))])
    with pytest.raises(ValidationError):
        DiscreteMeasure.make([])


def test_convolution_mass_and_support():
    a = halves((0,), (F(1, 2),))
    b = halves((0,), (F(1, 8),))
    c = convolve(a, b)
    assert sum(c.weights) == 1
    assert c.atoms == ((F(0),), (F(1, 8),), (F(1, 2),), (F(5, 8),))
    assert all(w == F(1, 4) for w in c.weights)


def test_moments_quarter_level_one():
    m = halves((0,), (F(1, 2),))
    assert mean(m) == (F(1, 4),)
    assert second_moment(m) == F(1, 8)
    assert variance_total(m) == F(1, 16)
    assert variance_total(point_mass((5, -3))) == 0


def test_ball_surgery_exact():
    m = DiscreteMeasure.make(
        [((0,), F(1, 2)), ((F(3, 4),), F(1, 3)), ((F(5, 4),), F(1, 6))]
    )
    assert mass_outside_ball(m, 1) == F(1, 6)
    assert mass_outside_ball(m, F(5, 4)) == 0  # closed ball
    clipped = clip_to_ball(m, 1)
    assert clipped.atoms == ((F(0),), (F(3, 4),))
    assert clipped.weights == (F(2, 3), F(1, 3))


# ---- truncations ----


def test_mu_truncate_levels_quarter_line():
    seq = builtin_sequence("jorgensen-pedersen")
    m0 = mu_truncate(seq, 0)
    assert m0.atoms == ((F(0),),) and m0.weights == (F(1),)
    m2 = mu_truncate(seq, 2)
    assert m2.atoms == ((F(0),), (F(1, 8),), (F(1, 2),), (F(5, 8),))
    assert all(w == F(1, 4) for w in m2.weights)


def test_mu_truncate_planar_level_one():
    seq = builtin_sequence("example-2.6")
    m = mu_truncate(seq, 1)
    assert (F(17, 16), F(0)) in m.atoms
    assert (F(0), F(1, 16)) in m.atoms
    assert len(m) == 4 and all(w == F(1, 4) for w in m.weights)


def test_truncation_cap():
    seq = builtin_sequence("example-2.6")
    with pytest.raises(TruncationTooLarge):
        mu_truncate(seq, 3, max_atoms=500)  # 4*9*16 = 576 projected atoms
    mu_truncate(seq, 3, max_atoms=576)


def convolve_loop_truncate(seq, k, max_atoms=1_000_000):
    """The Fraction convolution loop mu_truncate used to run, as an oracle."""
    result = point_mass((0,) * seq.dim)
    proj = 1
    for j in range(1, k + 1):
        d = seq.digits(j)
        proj *= len(d)
        if proj > max_atoms:
            raise TruncationTooLarge(
                f"projected support of {proj} atoms exceeds the cap of {max_atoms}"
            )
        result = convolve(result, uniform_on(d, fraction_inverse(seq.prefix_matrix(j))))
    return result


def _skew_level(k):
    # non-diagonal, det -7; three digits, one of them off the axes
    return IntMatrix(((1, 2), (4, 1))), DigitSet.of([(0, 0), (1, 0), (k % 3, 1)]), None


def _colliding_level(k):
    # R = 2 with three digits: sums coincide, so weights are not uniform
    return IntMatrix.diagonal([2]), DigitSet.of([(0,), (1,), (2,)]), None


def _wide_level(k):
    # digits past 2^62: the sums only fit Python ints
    return IntMatrix.diagonal([4]), DigitSet.of([(0,), (2**70 + k,), (-(2**66),)]), None


TRUNCATION_CASES = [
    ("jorgensen-pedersen", 8),
    ("bernoulli-quarter", 7),
    ("example-2.6", 4),
    ("skew", 5),
    ("colliding", 6),
    ("wide", 5),
]


def truncation_sequence(name):
    gens = {"skew": (_skew_level, 2), "colliding": (_colliding_level, 1), "wide": (_wide_level, 1)}
    if name in gens:
        gen, dim = gens[name]
        return from_generator(gen, dim, length=12)
    return builtin_sequence(name)


@pytest.mark.parametrize("name, top", TRUNCATION_CASES)
def test_mu_truncate_equals_the_convolution_loop(name, top):
    seq = truncation_sequence(name)
    for k in range(top + 1):
        got, want = mu_truncate(seq, k), convolve_loop_truncate(seq, k)
        assert got.dim == want.dim
        assert got.atoms == want.atoms and got.weights == want.weights
        assert got.factors == want.factors
        assert all(type(x) is F for a in got.atoms for x in a)
    if name == "colliding":
        assert len(set(got.weights)) > 1
    if name == "wide":
        assert max(abs(x) for a in got.atoms for x in a) > 2**62


def _far_example_2_6_level(k):
    # example-2.6's level-20 triple first: its far digit 20 + 8^20 21! and
    # the atoms it gives lie past int64; then its levels 2, 3, ...
    return sequences._ex26_gen(20 if k == 1 else k)


@pytest.mark.parametrize(
    "name, top",
    [("jorgensen-pedersen", 7), ("bernoulli-quarter", 7), ("colliding", 6), ("example-2.6-far", 2)],
)
def test_truncations_are_canonical_integer_rows(name, top):
    if name == "example-2.6-far":
        seq = from_generator(_far_example_2_6_level, 2, length=3)
    else:
        seq = truncation_sequence(name)
    for k in range(top + 1):
        got, want = mu_truncate(seq, k), convolve_loop_truncate(seq, k)
        # rows over the least common denominator, coprime multiplicities
        assert math.gcd(got.den, *got.rows.ravel().tolist()) == 1
        assert math.gcd(*got.counts.tolist()) == 1
        assert got.rows.tolist() == sorted(got.rows.tolist())
        assert got.atoms == want.atoms and got.weights == want.weights
        assert got == want and hash(got) == hash(want)
        for f, g in zip(got.factors, want.factors):
            assert f == g and hash(f) == hash(g) and set(f.counts.tolist()) == {1}
    wide = name == "example-2.6-far"
    assert got.rows.dtype == (object if wide else np.int64)
    assert (max(abs(x) for a in got.atoms for x in a) > 2**63) == wide
    # bernoulli-quarter's sums {±1/4} + {±1/16} + ... are distinct; only the
    # colliding sequence gives unequal weights
    uniform = name != "colliding"
    assert (len(set(got.counts.tolist())) == 1) == uniform
    lams = [(i,) * seq.dim for i in range(len(got))]
    if uniform:
        spectrum_exactness(got, lams)  # raises nothing on the weights
    else:
        assert len(set(got.weights)) > 1
        with pytest.raises(NonUniformWeights):
            spectrum_exactness(got, lams)


def test_equality_and_hash_hold_across_unreduced_denominators():
    a = DiscreteMeasure.make([((F(1, 2),), F(1, 2)), ((F(3, 4),), F(1, 2))])
    assert a.den == 4 and a.rows.tolist() == [[2], [3]] and a.counts.tolist() == [1, 1]
    # a repeated atom, weights over 6
    b = DiscreteMeasure.make([((F(6, 8),), F(2, 6)), ((F(2, 4),), F(1, 2)), ((F(3, 4),), F(1, 6))])
    # rows over 8 and counts 2, 2: both reduced on construction
    c = measures._from_sums(np.array([[4], [6], [4], [6]]), 8)
    for m in (b, c):
        assert m == a and hash(m) == hash(a) and m.den == 4
        assert m.rows.tolist() == a.rows.tolist() and m.counts.tolist() == [1, 1]
    assert a != DiscreteMeasure.make([((F(1, 2),), F(1, 3)), ((F(3, 4),), F(2, 3))])
    assert a != DiscreteMeasure.make([((F(1, 2),), F(1, 2)), ((F(3, 2),), F(1, 2))])
    assert a != DiscreteMeasure.make([((F(1, 2), 0), F(1, 2)), ((F(3, 4), 0), F(1, 2))])
    # past int64: object rows, the same canonical form from either side
    big = DiscreteMeasure.make([((F(2**70, 3),), F(1, 2)), ((F(-1, 3),), F(1, 2))])
    wide = measures._from_sums(np.array([[2**71], [-2]], dtype=object), 6)
    assert big.rows.dtype == wide.rows.dtype == object
    assert big == wide and hash(big) == hash(wide) and big.den == wide.den == 3
    # int64 rows held as Python ints compare equal to their int64 form
    assert measures._from_sums(np.array([[4], [6]], dtype=object), 8) == a


def test_make_still_validates_its_input():
    with pytest.raises(DimensionMismatch):
        DiscreteMeasure.make([((0,), F(1, 2)), ((0, 1), F(1, 2))])
    with pytest.raises(DimensionMismatch):
        DiscreteMeasure.make([((0,), 1)], dim=2)
    with pytest.raises(ValidationError, match="negative weight"):
        DiscreteMeasure.make([((0,), F(3, 2)), ((1,), F(-1, 2))])
    with pytest.raises(ValidationError, match="at least one"):
        DiscreteMeasure.make([((0,), 0)])
    with pytest.raises(ValidationError, match="sum to"):
        DiscreteMeasure.make([((0,), F(1, 3)), ((0,), F(1, 3))])
    m = DiscreteMeasure.make([((0, 0), 0), ((F(1, 3), 2), 1)])
    assert m.atoms == ((F(1, 3), F(2)),) and m.weights == (F(1),) and m.dim == 2


@pytest.mark.parametrize("name, top", TRUNCATION_CASES)
def test_truncation_cap_is_raised_at_unchanged_counts(name, top):
    seq = truncation_sequence(name)
    sizes = [len(seq.digits(j)) for j in range(1, top + 1)]
    caps = sorted({1, *(math.prod(sizes[:j]) + d for j in range(1, top + 1) for d in (-1, 0))})
    for cap in caps:
        for k in range(top + 1):
            try:
                want = convolve_loop_truncate(seq, k, cap)
            except TruncationTooLarge as exc:
                with pytest.raises(TruncationTooLarge) as got:
                    mu_truncate(seq, k, max_atoms=cap)
                assert str(got.value) == str(exc)
            else:
                assert mu_truncate(seq, k, max_atoms=cap) == want


def test_truncation_cap_is_checked_before_any_sum(monkeypatch):
    def boom(*args):
        raise AssertionError("atoms formed before the cap check")

    monkeypatch.setattr(measures, "scaled_atom_rows", boom)
    with pytest.raises(TruncationTooLarge, match="576 atoms"):
        mu_truncate(builtin_sequence("example-2.6"), 4, max_atoms=575)


def test_tail_truncation_structure():
    seq = builtin_sequence("jorgensen-pedersen")
    tail = nu_tail_truncate(seq, 2, 2)
    assert tail.start == 2 and tail.depth == 2
    # atoms (R_3)^{-1}{0,2} + (R_4 R_3)^{-1}{0,2} = {0,1/2} + {0,1/8}
    assert tail.measure.atoms == (
        (F(0),),
        (F(1, 8),),
        (F(1, 2),),
        (F(5, 8),),
    )


def test_tail_splices_into_full_truncation():
    for name, k, depth in [("jorgensen-pedersen", 2, 2), ("example-2.6", 1, 1)]:
        seq = builtin_sequence(name)
        whole = mu_truncate(seq, k + depth)
        head = mu_truncate(seq, k)
        tail = nu_tail_truncate(seq, k, depth).measure
        spliced = convolve(head, pushed(tail, fraction_inverse(seq.prefix_matrix(k))))
        assert spliced == whole


# ---- Fourier ----


def test_fourier_at_zero_is_exactly_one():
    seq = builtin_sequence("example-2.6")
    m = mu_truncate(seq, 2)
    assert fourier(m, (0, 0)) == 1.0 + 0.0j
    assert fourier_many(m, [(0, 0)])[0] == pytest.approx(1.0, abs=1e-12)


def test_fourier_modulus_bounded():
    seq = builtin_sequence("example-2.6")
    m = mu_truncate(seq, 2)
    rng = random.Random(7)
    xis = [
        (F(rng.randrange(-50, 51), rng.randrange(1, 30)),
         F(rng.randrange(-50, 51), rng.randrange(1, 30)))
        for _ in range(50)
    ]
    vals = fourier_many(m, xis)
    assert np.all(np.abs(vals) <= 1 + 1e-12)


def test_mask_oracles_quarter_digits():
    d = uniform_on(DigitSet.of([(0,), (2,)]))
    assert abs(fourier(d, (F(1, 4),))) < 1e-15  # (1 + e^{-i pi})/2
    v = fourier(d, (F(1, 8),))  # (1 + e^{-i pi/2})/2 = (1 - i)/2
    assert abs(v - (0.5 - 0.5j)) < 1e-15
    many = fourier_many(d, [(F(1, 4),), (F(1, 8),), (0,)])
    assert abs(many[0]) < 1e-15
    assert abs(many[1] - (0.5 - 0.5j)) < 1e-15
    assert abs(many[2] - 1.0) < 1e-15


def test_fourier_convolution_homomorphism():
    seq = builtin_sequence("example-2.6")
    a = mu_truncate(seq, 1)
    b = pushed(nu_tail_truncate(seq, 1, 1).measure, fraction_inverse(seq.prefix_matrix(1)))
    c = convolve(a, b)
    rng = random.Random(11)
    for _ in range(25):
        xi = tuple(F(rng.randrange(-40, 41), rng.randrange(1, 25)) for _ in range(2))
        lhs = fourier(c, xi)
        rhs = fourier(a, xi) * fourier(b, xi)
        assert abs(lhs - rhs) < 1e-12


def test_fourier_many_matches_scalar():
    seq = builtin_sequence("jorgensen-pedersen")
    m = mu_truncate(seq, 5)
    rng = random.Random(13)
    xis = [(F(rng.randrange(-1000, 1000), rng.randrange(1, 64)),) for _ in range(40)]
    vec = fourier_many(m, xis)
    for xi, v in zip(xis, vec):
        assert abs(v - fourier(m, xi)) < 1e-12


def test_tail_product_cross_oracle():
    """Two independent routes to the truncated tail transform agree to 1e-10."""
    rng = random.Random(20260816)
    for name, start, depth in [
        ("jorgensen-pedersen", 0, 4),
        ("jorgensen-pedersen", 3, 3),
        ("example-2.6", 1, 2),
    ]:
        seq = builtin_sequence(name)
        tail = nu_tail_truncate(seq, start, depth).measure
        for _ in range(34):
            xi = tuple(
                F(rng.randrange(-60, 61), rng.randrange(1, 40))
                for _ in range(seq.dim)
            )
            via_measure = fourier(tail, xi)
            via_product = tail_fourier_product(seq, start, depth, xi)
            assert abs(via_measure - via_product) < 1e-10
