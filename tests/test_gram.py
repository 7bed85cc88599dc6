"""The factored, tiled Gram kernel against the dense Gram it replaced."""
import math
import random
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest

from convspectra._phases import (
    DENSE_BYTE_BUDGET,
    exact_phase_matrix,
    gram_deviation,
    unit_exponentials,
)
from convspectra.errors import WorkingSetTooLarge
from convspectra.exactmat import IntMatrix, adjugate
from convspectra.measures import DiscreteMeasure, convolve, mu_truncate, uniform_on
from convspectra.sequences import builtin_names, builtin_sequence
from convspectra.spectra import (
    _window_spectrum_digits,
    build_spectrum,
    spectrum_exactness,
)
from convspectra.triples import DigitSet, hadamard_check

AGREE = 1e-12


def dense_gram_deviation(x_rows, x_den, atom_rows, atom_den, count):
    """max |E E^H - I| for E = [exp(-2 pi i x_i . a_b)] / sqrt(count), dense."""
    e = unit_exponentials(exact_phase_matrix(x_rows, x_den, atom_rows, atom_den))
    e /= math.sqrt(count)
    gram = e @ e.conj().T
    return float(np.abs(gram - np.eye(len(x_rows))).max())


def dense_exactness(m, lams):
    lams = sorted(set(tuple(int(c) for c in v) for v in lams))
    den, rows = m._phase_data
    return dense_gram_deviation(lams, 1, rows, den, len(m))


def dense_hadamard(r, b, l):
    det, adj = adjugate(r)
    sign = 1 if det > 0 else -1
    nums = [tuple(sign * x for x in adj.matvec(v)) for v in b.vectors]
    return dense_gram_deviation(nums, abs(det), list(l.vectors), 1, len(b))


def assert_matches_dense(m, lams, tol=1e-9):
    res = spectrum_exactness(m, lams, tol)
    dense = dense_exactness(m, lams)
    assert abs(res.deviation - dense) <= AGREE, (res.deviation, dense)
    assert res.ok == (dense <= tol)
    return res


def jp_level(n):
    return sorted(
        (sum(bit << (2 * i) for i, bit in enumerate(bits)),)
        for bits in cartesian((0, 1), repeat=n)
    )


# ----- factors recorded by convolution -----


def test_convolve_records_levels_outside_equality():
    jp = builtin_sequence("jorgensen-pedersen")
    mu = mu_truncate(jp, 3)
    assert len(mu.factors) == 3  # the origin point mass is not a factor
    assert all(len(f) == 2 for f in mu.factors)
    flat = DiscreteMeasure.make(zip(mu.atoms, mu.weights))
    assert flat.factors == () and flat.convolution_factors() == (flat,)
    assert flat == mu and hash(flat) == hash(mu) and len(flat) == len(mu) == 8
    again = convolve(mu, uniform_on(jp.digits(4), jp.prefix_inverse(4)))
    assert again == mu_truncate(jp, 4) and len(again.factors) == 4


def test_flat_and_factored_measures_agree():
    jp = builtin_sequence("jorgensen-pedersen")
    for n in (3, 6, 9):
        mu = mu_truncate(jp, n)
        flat = DiscreteMeasure.make(zip(mu.atoms, mu.weights))
        a = spectrum_exactness(mu, jp_level(n)).deviation
        b = spectrum_exactness(flat, jp_level(n)).deviation
        assert abs(a - b) <= AGREE


# ----- spectrum_exactness against the dense oracle -----


def test_jp_levels_match_dense():
    jp = builtin_sequence("jorgensen-pedersen")
    for n in range(1, 11):
        res = assert_matches_dense(mu_truncate(jp, n), jp_level(n))
        assert res.ok and res.size == 2**n


def test_example_2_6_levels_match_dense():
    seq = builtin_sequence("example-2.6")
    sp = build_spectrum(seq, (1, 2, 3))
    for j, m in enumerate(sp.milestones, start=1):
        res = assert_matches_dense(mu_truncate(seq, m), sp.levels[j - 1], tol=1e-8)
        assert res.ok


def test_random_k_table_spectra_match_dense():
    rng = random.Random(40917)
    jp = builtin_sequence("jorgensen-pedersen")
    base = build_spectrum(jp, [1, 2, 3])
    table = {}
    for j, m in enumerate(base.milestones, start=1):
        p = base.milestones[j - 2] if j >= 2 else 0
        for lam in _window_spectrum_digits(jp, p, m):
            table[(lam, j)] = (rng.randint(-3, 3),)
    sp = build_spectrum(jp, [1, 2, 3], k_chooser=table)
    for j, m in enumerate(sp.milestones, start=1):
        assert assert_matches_dense(mu_truncate(jp, m), sp.levels[j - 1]).ok


def test_non_spectrum_matches_dense():
    m2 = mu_truncate(builtin_sequence("jorgensen-pedersen"), 2)
    res = assert_matches_dense(m2, [(0,), (1,), (2,), (3,)])
    assert not res.ok
    assert abs(res.deviation - math.sqrt(0.5)) < 1e-12  # |mu_hat(1)| = |mu_hat(3)|


# ----- hadamard_check against the dense oracle -----


def test_hadamard_every_builtin_level_matches_dense():
    for name in builtin_names():
        seq = builtin_sequence(name)
        for k in range(1, 17):
            r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
            res = hadamard_check(r, b, l)
            dense = dense_hadamard(r, b, l)
            assert abs(res.max_deviation - dense) <= AGREE, (name, k)
            assert res.ok == (dense <= 1e-9) and res.ok


def test_hadamard_mismatch_and_failure_match_dense():
    r = IntMatrix.diagonal([4])
    cases = (
        (DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (1,), (2,)])),  # rectangular
        (DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), (1,)])),  # not unitary
    )
    for b, l in cases:
        res = hadamard_check(r, b, l)
        dense = dense_hadamard(r, b, l)
        assert abs(res.max_deviation - dense) <= AGREE
        assert not res.ok


# ----- scale and budget -----


def test_jp_level_14_verifies_under_the_budget():
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, [14])
    res = spectrum_exactness(mu_truncate(jp, 14), sp.final())
    assert res.size == 16384
    assert res.ok and res.deviation < 1e-9


def test_flat_factor_over_budget_raises_before_allocating():
    n = 1 + math.isqrt(DENSE_BYTE_BUDGET // 32)
    points = [(i,) for i in range(n)]
    weights = np.full(n, 1.0 / n)
    with pytest.raises(WorkingSetTooLarge, match="budget"):
        gram_deviation(points, n, [(points, 1, weights)])
