"""The factored, tiled Gram kernel against the dense Gram it replaced."""
import math
import random
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest

from convspectra import _phases
from convspectra._phases import (
    DENSE_BYTE_BUDGET,
    _factor_groups,
    _gram_plan,
    _merged_factor,
    common_denominator,
    exact_phase_matrix,
    gram_deviation,
    unit_exponentials,
)
from convspectra.errors import WorkingSetTooLarge
from convspectra.exactmat import IntMatrix, invert
from convspectra.measures import DiscreteMeasure, mu_truncate
from convspectra.sequences import builtin_names, builtin_sequence
from convspectra.spectra import (
    _window_spectrum_digits,
    build_spectrum,
    spectrum_exactness,
)
from convspectra.triples import DigitSet, hadamard_check, numerators
from oracles import convolve, fraction_inverse, uniform_on

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
    det, adj = invert(r)
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
    again = convolve(mu, uniform_on(jp.digits(4), fraction_inverse(jp.prefix_matrix(4))))
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


def sorted_order_deviation(r, b, l):
    """hadamard_check's deviation with points and atoms in set order, as
    lists of Python ints: the call it made before taking integer arrays."""
    den, y_grid, y_wide = numerators(r, b)
    nums = b.in_order(y_grid.tolist(), y_wide.tolist())
    weights = np.full(len(l), 1 / len(b))
    return gram_deviation(nums, den, [(l.in_order(l.grid.tolist(), l.wide), 1, weights)])


def _stacking_cases():
    for name in builtin_names():
        seq = builtin_sequence(name)
        for k in range(1, 17 if name != "example-2.6" else 25):
            yield seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
    r = IntMatrix.diagonal([4])
    yield r, DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (1,), (2,)])
    yield r, DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), (1,)])
    # wide rows in both sets, so the stacked order differs from the set order
    big = 2**40
    yield r, DigitSet.of([(0,), (2 + 4 * big,)]), DigitSet.of([(-big,), (1,)])
    yield (
        IntMatrix(((2, 0), (1, 2))),
        DigitSet.of([(0, 0), (1, 0), (4 * big, 1), (1, 1)]),
        DigitSet.of([(0, 0), (big, 1), (1, 0), (1, 1)]),
    )


def test_hadamard_stacked_rows_match_the_set_order():
    cases = list(_stacking_cases())
    assert len(cases) == 16 + 16 + 24 + 4
    for r, b, l in cases:
        assert abs(hadamard_check(r, b, l).max_deviation - sorted_order_deviation(r, b, l)) <= 1e-15


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


# ----- merged factor groups -----


def flat_factor(factors):
    """The convolution of the factors as one factor (rows, den, weights):
    every sum of one atom per factor, formed from Fractions."""
    atoms, weights = [()], [1.0]
    for rows, den, w in factors:
        atoms = [
            tuple(Fraction(x, den) + y for x, y in zip(row, a)) if a else tuple(Fraction(x, den) for x in row)
            for a in atoms
            for row in rows
        ]
        weights = [p * q for p in weights for q in w]
    den, rows = common_denominator(atoms)
    return rows, den, np.array(weights)


def lean_dense_deviation(x_rows, x_den, factors, block=512):
    """max |E W E^H - I| over the flat convolution, E[i, b] = exp(-2 pi i
    x_i . a_b): E is built and multiplied in row blocks, so it is the only
    n x #atoms array held whole."""
    rows, den, w = flat_factor(factors) if len(factors) > 1 else factors[0]
    n = len(x_rows)
    e = np.empty((n, len(rows)), dtype=complex)
    for s in range(0, n, block):
        e[s : s + block] = unit_exponentials(exact_phase_matrix(x_rows[s : s + block], x_den, rows, den))
    dev = 0.0
    for s in range(0, n, block):
        # conj(E_s W E^H), whose distance from I is that of E_s W E^H
        g = (e[s : s + block] * w).conj() @ e.T
        g[np.arange(len(g)), np.arange(s, s + len(g))] -= 1
        dev = max(dev, float(np.abs(g).max()))
    return dev


def random_factors(rng, sizes, dim=1, dens=(3, 4, 5, 7, 8), uniform=True):
    factors = []
    for size in sizes:
        rows = [tuple(rng.randint(-20, 20) for _ in range(dim)) for _ in range(size)]
        w = [1.0] * size if uniform else [rng.uniform(0.2, 1.0) for _ in range(size)]
        factors.append((rows, rng.choice(dens), np.array(w) / sum(w)))
    return factors


def test_factor_groups_merge_runs_up_to_the_cap():
    assert _factor_groups([2] * 12, 8) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert _factor_groups([2] * 7, 8) == [[0, 1, 2], [3, 4, 5], [6]]
    assert _factor_groups([2, 3, 5, 2, 2], 8) == [[0, 1], [2], [3, 4]]
    assert _factor_groups([9, 2, 2, 9], 8) == [[0], [1, 2], [3]]
    assert _factor_groups([2] * 5, 1) == [[0], [1], [2], [3], [4]]
    assert _factor_groups([4], 8) == [[0]]


@pytest.mark.parametrize("level", range(1, 13))
def test_merged_groups_match_dense_on_jp_levels(level):
    jp = builtin_sequence("jorgensen-pedersen")
    mu = mu_truncate(jp, level)
    factors = mu.phase_factors()
    groups, _ = _gram_plan(2**level, [len(r) for r, _, _ in factors])
    assert [len(g) for g in groups] == [3] * (level // 3) + ([level % 3] if level % 3 else [])
    lams = jp_level(level)
    dev = gram_deviation(lams, 1, factors)
    dense = lean_dense_deviation(lams, 1, factors)
    assert abs(dev - dense) <= AGREE, (level, dev, dense)
    assert (dev <= 1e-9) == (dense <= 1e-9) and dev <= 1e-9


def test_merged_level_14_matches_the_unmerged_walk(monkeypatch):
    # a dense oracle at n = 16384 would hold a 4.3 GB exponential matrix; the
    # per-factor walk, pinned to the dense Gram up to level 12 above, stands in
    jp = builtin_sequence("jorgensen-pedersen")
    factors = mu_truncate(jp, 14).phase_factors()
    lams = jp_level(14)
    merged = gram_deviation(lams, 1, factors)
    monkeypatch.setattr(_phases, "_MERGED_ATOMS", 1)
    assert _gram_plan(len(lams), [2] * 14)[0] == [[i] for i in range(14)]
    unmerged = gram_deviation(lams, 1, factors)
    assert abs(merged - unmerged) <= AGREE
    assert merged <= 1e-9 and unmerged <= 1e-9


@pytest.mark.parametrize(
    "sizes, dim, uniform",
    [
        ((2, 3, 5), 1, True),
        ((2, 3, 5, 2, 2), 2, True),
        ((9, 2, 2), 1, True),  # the 9-atom factor exceeds the cap and stays alone
        ((3, 2, 4, 2), 2, False),  # non-uniform weights
        ((2, 2, 2, 3, 3), 1, False),
    ],
)
def test_merged_groups_match_dense_on_mixed_factors(sizes, dim, uniform):
    rng = random.Random(hash((sizes, dim, uniform)) % 2**32)
    factors = random_factors(rng, sizes, dim, uniform=uniform)
    for x_den in (5, 6):
        # points close together, so that no difference has integer phases
        # on every atom and the deviation stays below its ceiling of 1
        points = sorted({tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(30)})
        dev = gram_deviation(points, x_den, factors)
        dense = lean_dense_deviation(points, x_den, factors, block=16)
        assert abs(dev - dense) <= AGREE, (sizes, x_den, dev, dense)
        assert dense < 0.9
    for group in _factor_groups(list(sizes), 8):
        members = [factors[i] for i in group]
        rows, den, w = _merged_factor(members)
        want_rows, want_den, want_w = flat_factor(members)
        got = sorted(zip((tuple(Fraction(int(x), den) for x in r) for r in rows), w.tolist()))
        want = sorted(zip((tuple(Fraction(x, want_den) for x in r) for r in want_rows), want_w.tolist()))
        assert [a for a, _ in got] == [a for a, _ in want]
        assert np.allclose([x for _, x in got], [x for _, x in want], rtol=0, atol=1e-15)


def test_merged_rows_past_int64_take_the_object_path():
    rng = random.Random(7)
    big = 2**61
    factors = [
        ([(rng.randrange(big // 2, big),) for _ in range(2)], big, np.full(2, 0.5))
        for _ in range(3)
    ]
    rows, den, _ = _merged_factor(factors)
    assert rows.dtype == object and den == big
    assert max(abs(int(r[0])) for r in rows) >= 2**62
    points = [(rng.randint(-50, 50),) for _ in range(24)]
    for x_den in (1, 3):
        dev = gram_deviation(points, x_den, factors)
        dense = lean_dense_deviation(points, x_den, factors)
        assert abs(dev - dense) <= AGREE


def test_single_factor_is_walked_as_given():
    rows = [(0,), (1,), (2,), (3,)]
    factor = (rows, 4, np.full(4, 0.25))
    assert _merged_factor([factor]) is factor
    assert gram_deviation([(0,), (1,), (2,), (3,)], 1, [factor]) <= 1e-12


def test_merging_backs_off_when_only_the_unmerged_tables_fit(monkeypatch):
    jp = builtin_sequence("jorgensen-pedersen")
    factors = mu_truncate(jp, 6).phase_factors()
    lams = jp_level(6)
    merged = gram_deviation(lams, 1, factors)
    # 64 points: the six rank-2 tables and one tile row need 14 336 bytes,
    # the two merged rank-8 tables and their build need 24 576
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 20_000)
    assert _gram_plan(64, [2] * 6)[0] == [[i] for i in range(6)]
    backed_off = gram_deviation(lams, 1, factors)
    assert abs(backed_off - merged) <= AGREE
    assert abs(backed_off - lean_dense_deviation(lams, 1, factors)) <= AGREE
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 14_335)
    with pytest.raises(WorkingSetTooLarge, match="budget"):
        gram_deviation(lams, 1, factors)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 14_336)
    assert abs(gram_deviation(lams, 1, factors) - merged) <= AGREE
