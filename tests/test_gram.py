"""The unitarity kernel (`_phases.difference_deviation` on difference sum
sets) against the dense Gram."""
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest

from convspectra import _phases, spectra, triples
from convspectra._phases import (
    DENSE_BYTE_BUDGET,
    _factor_groups,
    _int_rows,
    _merged_factor,
    common_denominator,
    exact_phase_matrix,
    difference_deviation,
    unit_exponentials,
)
from convspectra.errors import WorkingSetTooLarge
from convspectra.exactmat import IntMatrix, invert
from convspectra.measures import DiscreteMeasure, mu_truncate
from convspectra.sequences import builtin_names, builtin_sequence, from_generator
from convspectra.spectra import (
    _window_spectrum_digits,
    build_spectrum,
    spectrum_exactness,
)
from convspectra.triples import DigitSet, hadamard_check, integer_rows, numerators
from oracles import convolve, fraction_inverse, level_tuples, uniform_on

AGREE = 1e-12


def dense_gram_deviation(x_rows, x_den, atom_rows, atom_den, count):
    """max |E E^H - I| for E = [exp(-2 pi i x_i . a_b)] / sqrt(count), dense."""
    e = unit_exponentials(exact_phase_matrix(x_rows, x_den, atom_rows, atom_den))
    e /= math.sqrt(count)
    gram = e @ e.conj().T
    return float(np.abs(gram - np.eye(len(x_rows))).max())


def dense_exactness(m, lams):
    lams = sorted(set(tuple(int(c) for c in v) for v in lams))
    den, rows = m.den, m.rows
    return dense_gram_deviation(lams, 1, rows, den, len(m))


def dense_hadamard(r, b, l):
    det, adj = invert(r)
    sign = 1 if det > 0 else -1
    nums = [tuple(sign * x for x in adj.matvec(v)) for v in b.vectors]
    return dense_gram_deviation(nums, abs(det), list(l.vectors), 1, len(b))


def set_deviation(points, den, factors):
    """max |G - I| for the Gram G[i, k] = F(x_i - x_k) of a point set, the
    set as the one summand of `difference_deviation`."""
    return difference_deviation([_int_rows(points)], den, factors)


def assert_matches_dense(m, lams, tol=1e-9, summands=None):
    """spectrum_exactness on the flat level, and on its summands when given,
    against the dense Gram."""
    dense = dense_exactness(m, lams)
    for given in [lams] + ([summands] if summands is not None else []):
        res = spectrum_exactness(m, given, tol)
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
    sp = build_spectrum(jp, range(1, 11))
    for n in range(1, 11):
        assert list(level_tuples(sp.levels[n - 1])) == jp_level(n)
        res = assert_matches_dense(mu_truncate(jp, n), jp_level(n), summands=sp.blocks[:n])
        assert res.ok and res.size == 2**n


def test_example_2_6_levels_match_dense():
    seq = builtin_sequence("example-2.6")
    sp = build_spectrum(seq, (1, 2, 3))
    for j, m in enumerate(sp.milestones, start=1):
        res = assert_matches_dense(mu_truncate(seq, m), sp.levels[j - 1], 1e-8, sp.blocks[:j])
        assert res.ok


def random_k_table_spectrum(seed=40917):
    """Jorgensen-Pedersen levels 1..3 with a random k in [-3, 3] per vector."""
    rng = random.Random(seed)
    jp = builtin_sequence("jorgensen-pedersen")
    base = build_spectrum(jp, [1, 2, 3])
    table = {}
    for j, m in enumerate(base.milestones, start=1):
        p = base.milestones[j - 2] if j >= 2 else 0
        for lam in map(tuple, _window_spectrum_digits(jp, p, m).tolist()):
            table[(lam, j)] = (rng.randint(-3, 3),)
    sp = build_spectrum(jp, [1, 2, 3], k_chooser=table)
    assert sp.k_choices
    return jp, sp


def test_random_k_table_spectra_match_dense():
    jp, sp = random_k_table_spectrum()
    for j, m in enumerate(sp.milestones, start=1):
        assert assert_matches_dense(mu_truncate(jp, m), sp.levels[j - 1], summands=sp.blocks[:j]).ok


def _far_spectrum_level(k):
    # spectrum digits {0, 3}: the windowed search shifts the candidate 3/4 to 3/4 - 1
    return IntMatrix.diagonal([4]), DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (3,)])


@pytest.mark.parametrize(
    "seq, milestones, radius, depth",
    [
        (builtin_sequence("example-2.6"), [1, 3], 1, 2),
        (from_generator(_far_spectrum_level, 1, length=8), [1, 2, 3, 4], 2, 3),
    ],
)
def test_windowed_chooser_spectra_match_dense(seq, milestones, radius, depth):
    sp = build_spectrum(seq, milestones, "windowed-search", search_radius=radius, search_depth=depth)
    assert sp.k_choices  # summands shifted by nonzero k
    for j, m in enumerate(sp.milestones, start=1):
        res = assert_matches_dense(mu_truncate(seq, m), sp.levels[j - 1], 1e-8, sp.blocks[:j])
        assert res.ok


def test_colliding_summands_are_checked_as_their_sum_set():
    jp = builtin_sequence("jorgensen-pedersen")
    m2 = mu_truncate(jp, 2)
    # {0, 1} + {0, 1, 2} holds 4 distinct sums, not 6: the flat route sees them
    summands = [np.array([[0], [1]]), np.array([[0], [1], [2]])]
    res = spectrum_exactness(m2, summands)
    assert res.size == 4
    assert abs(res.deviation - dense_exactness(m2, [(0,), (1,), (2,), (3,)])) <= AGREE


def test_non_spectrum_matches_dense():
    m2 = mu_truncate(builtin_sequence("jorgensen-pedersen"), 2)
    res = assert_matches_dense(m2, [(0,), (1,), (2,), (3,)])
    assert not res.ok
    assert abs(res.deviation - math.sqrt(0.5)) < 1e-12  # |mu_hat(1)| = |mu_hat(3)|


# ----- the level bound -----


def _skew_triple(k):
    # R is not diagonal: the dual triple needs Rᵀ, and (R, L, B) gives 1.0
    r = IntMatrix(((4, 1), (0, 4)))
    return r, DigitSet.of([(0, 0), (0, 2), (2, 0), (2, 2)]), DigitSet.of([(0, 0), (0, 1), (-3, -3), (-3, -2)])


def tower_spectrum(name):
    """(sequence, spectrum levels) of one case of the level bound's tests."""
    jp = builtin_sequence("jorgensen-pedersen")
    ex = builtin_sequence("example-2.6")
    if name == "jp":
        return jp, build_spectrum(jp, range(2, 17, 2))
    if name == "jp-uneven-windows":
        return jp, build_spectrum(jp, [1, 4, 5, 9])
    if name == "ex26-zero":
        return ex, build_spectrum(ex, (1, 2, 3))
    if name == "ex26-windowed":
        sp = build_spectrum(ex, [1, 3], "windowed-search", search_radius=1, search_depth=2)
        assert sp.k_choices
        return ex, sp
    if name == "skew":
        skew = from_generator(_skew_triple, 2, length=3)
        return skew, build_spectrum(skew, (1, 2, 3))
    return random_k_table_spectrum()


@pytest.mark.parametrize("name", ["jp", "jp-uneven-windows", "ex26-zero", "ex26-windowed", "k-table", "skew"])
def test_the_tower_bound_covers_the_evaluated_deviation(name):
    # the running max of the levels' dual deviations bounds the evaluated Gram
    seq, sp = tower_spectrum(name)
    bounds = spectra._level_bounds(seq, sp.milestones)
    for j, (m, bound) in enumerate(zip(sp.milestones, bounds), start=1):
        mu = mu_truncate(seq, m)
        res = spectrum_exactness(mu, sp.blocks[:j])
        assert res.ok and res.size == len(sp.levels[j - 1])
        assert bound <= 1e-15 and bound >= res.deviation - 1e-15, (j, bound, res.deviation)


def test_a_non_hadamard_block_falls_back_and_fails():
    # 16·{0, 1, 2, 3} is no spectrum for levels 3 and 4 of Jorgensen-Pedersen
    m4 = mu_truncate(builtin_sequence("jorgensen-pedersen"), 4)
    summands = [np.array([[0], [1], [4], [5]]), np.array([[0], [16], [32], [48]])]
    res = spectrum_exactness(m4, summands)
    lams = [(a + b,) for a in (0, 1, 4, 5) for b in (0, 16, 32, 48)]
    assert not res.ok
    assert abs(res.deviation - dense_exactness(m4, lams)) <= AGREE


def test_blocks_orthogonal_alone_but_not_together_fall_back():
    # under both factors |mu_hat| vanishes at 1 and at 3 but not at 2 = 3 - 1,
    # so each summand passes alone and their sum set fails
    m2 = mu_truncate(builtin_sequence("jorgensen-pedersen"), 2)
    summands = [np.array([[0], [1]]), np.array([[0], [3]])]
    assert all(difference_deviation([s], 1, m2.phase_factors()) < 1e-15 for s in summands)
    res = spectrum_exactness(m2, summands)
    assert not res.ok
    assert abs(res.deviation - dense_exactness(m2, [(0,), (1,), (3,), (4,)])) <= AGREE


def test_a_measure_without_level_factors_falls_back():
    # one factor, the measure itself, gives the Gram of the per-level factors
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, [2, 4, 6])
    mu = mu_truncate(jp, 6)
    flat = DiscreteMeasure.make(zip(mu.atoms, mu.weights))
    res = spectrum_exactness(flat, sp.blocks)
    assert res.ok
    assert abs(res.deviation - dense_exactness(mu, sp.final())) <= AGREE


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


def test_hadamard_with_digits_congruent_mod_r_fails_like_dense():
    # 1 and 5 are congruent mod 4: the reduced rows repeat, so the flat route
    # runs, and the Gram has an off-diagonal entry of modulus 1
    r = IntMatrix.diagonal([4])
    b, l = DigitSet.of([(0,), (1,), (5,)]), DigitSet.of([(0,), (1,), (2,)])
    res = hadamard_check(r, b, l)
    assert abs(res.max_deviation - dense_hadamard(r, b, l)) <= AGREE
    assert res.max_deviation >= 1 - 1e-12 and not res.ok
    # (4, 0) repeats (0, 0) mod R, and the reduced rows' axis projections
    # {0, 1} x {0, 1} count 4 points though (0, 1) is missing
    r = IntMatrix.diagonal([4, 4])
    b, l = DigitSet.of([(0, 0), (4, 0), (1, 1), (1, 0)]), DigitSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
    res = hadamard_check(r, b, l)
    assert abs(res.max_deviation - dense_hadamard(r, b, l)) <= AGREE
    assert res.max_deviation >= 1 - 1e-12 and not res.ok
    seq = builtin_sequence("example-2.6")
    r, b = seq.matrix(3), seq.digits(3)
    twin = DigitSet.of(list(b.vectors) + [(3, 0)])  # the far digit's residue, twice
    l = DigitSet.of(list(seq.spectrum_digits(3).vectors) + [(1, 1)])
    res = hadamard_check(r, twin, l)
    assert abs(res.max_deviation - dense_hadamard(r, twin, l)) <= AGREE
    assert res.max_deviation >= 1 - 1e-12 and not res.ok


@pytest.mark.parametrize(
    "r, b, l",
    [
        # a diagonal line mod 3: its projections are {0, 1, 2} each, 9 points
        (IntMatrix.diagonal([3, 3]), [(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 0), (2, 0)]),
        # a non-diagonal R, with wide rows in both sets
        (IntMatrix(((2, 0), (1, 2))), [(0, 0), (1, 0), (4 * 2**40, 1), (1, 1)], [(0, 0), (2**40, 1), (1, 0), (1, 1)]),
        (IntMatrix(((4, 1), (0, 4))), [(0, 0), (1, 0), (0, 1), (2, 3), (3, 1)], [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
    ],
)
def test_hadamard_on_a_non_product_set_takes_the_flat_route(r, b, l):
    b, l = DigitSet.of(b), DigitSet.of(l)
    den, y = numerators(r, b)
    reduced = y % den
    projections = [len(set(reduced[:, c].tolist())) for c in range(2)]
    assert math.prod(projections) != len(b)
    res = hadamard_check(r, b, l)
    dense = dense_hadamard(r, b, l)
    assert abs(res.max_deviation - dense) <= AGREE
    assert res.ok == (dense <= 1e-9)


def test_example_2_6_hadamard_at_level_100():
    seq = builtin_sequence("example-2.6")
    r, b, l = seq.matrix(100), seq.digits(100), seq.spectrum_digits(100)
    res = hadamard_check(r, b, l)
    assert len(b) == 101**2 and not res.size_mismatch
    assert res.ok and res.max_deviation <= 1e-12


def test_example_2_6_hadamard_at_level_1185_fits_the_budget(monkeypatch):
    # the Khatri-Rao join is formed in runs of atoms, so it is sized by one
    # run and no longer by 2 x rank rows: level 1185 was refused at 270 MB
    seq = builtin_sequence("example-2.6")
    r, b, l = seq.matrix(1185), seq.digits(1185), seq.spectrum_digits(1185)
    sizes = []
    real = _phases.sum_set_sizes
    monkeypatch.setattr(_phases, "sum_set_sizes", lambda *a: sizes.append(real(*a)) or sizes[-1])
    tracemalloc.start()
    try:
        res = hadamard_check(r, b, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(b) == 1186**2 and res.ok and res.max_deviation <= 1e-12
    (row, once), = sizes
    assert peak <= once + max(row, _phases._RUN_TARGET_BYTES) + row <= DENSE_BYTE_BUDGET


def test_example_2_6_hadamard_at_level_130():
    # the Khatri-Rao join of one factor of all (k + 1)^2 atoms of L exceeded
    # the budget from level 118 on; per-axis factors hold k + 1 atoms each
    seq = builtin_sequence("example-2.6")
    r, b, l = seq.matrix(130), seq.digits(130), seq.spectrum_digits(130)
    res = hadamard_check(r, b, l)
    assert len(b) == 131**2 and not res.size_mismatch
    assert res.ok and res.max_deviation <= 1e-12


def test_per_axis_factors_of_l_agree_with_the_one_factor(monkeypatch):
    seq = builtin_sequence("example-2.6")
    seen = []
    real = triples.difference_deviation

    def spy(summands, den, factors):
        seen.append(len(factors))
        return real(summands, den, factors)

    monkeypatch.setattr(triples, "difference_deviation", spy)
    for k in range(1, 31):
        r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
        per_axis = hadamard_check(r, b, l).max_deviation
        assert seen[-1] == 2  # L = L_0 x L_1 went in as two factors
        den, y = numerators(r, b)
        reduced = y % den
        summands = [np.unique(reduced[:, c]) for c in range(2)]
        summands = [np.outer(a, np.eye(2, dtype=np.int64)[c]) for c, a in enumerate(summands)]
        one = real(summands, den, [(integer_rows(l), 1, np.full(len(l), 1 / len(b)))])
        assert abs(per_axis - one) <= AGREE, (k, per_axis, one)
        assert per_axis <= 1e-12


def sorted_order_deviation(r, b, l, stacked=False):
    """hadamard_check's deviation with the rows y mod den as the one
    summand, with points and atoms in set order as lists of Python ints, or
    stacked as the integer arrays hadamard_check passes.  The cases'
    reduced rows are distinct."""
    den, y = numerators(r, b)
    weights = np.full(len(l), 1 / len(b))
    if stacked:
        return set_deviation(y % den, den, [(integer_rows(l), 1, weights)])
    nums = [tuple(x % den for x in v) for v in y.tolist()]
    return set_deviation(nums, den, [(list(l.vectors), 1, weights)])


def _stacking_cases():
    for name in builtin_names():
        seq = builtin_sequence(name)
        for k in range(1, 17 if name != "example-2.6" else 25):
            yield seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
    r = IntMatrix.diagonal([4])
    yield r, DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (1,), (2,)])
    yield r, DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), (1,)])
    # wide rows in both sets: object arrays on both sides
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
        in_order = sorted_order_deviation(r, b, l)
        assert abs(sorted_order_deviation(r, b, l, stacked=True) - in_order) <= 1e-15
        # hadamard_check takes the per-axis summands of product sets, which
        # round differently from the one summand y
        assert abs(hadamard_check(r, b, l).max_deviation - in_order) <= AGREE


# ----- scale and budget -----


def test_jp_level_14_verifies_under_the_budget():
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, [14])
    res = spectrum_exactness(mu_truncate(jp, 14), sp.final())
    assert res.size == 16384
    assert res.ok and res.deviation < 1e-9


@pytest.mark.parametrize("level", [6, 8])
def test_the_set_and_its_negatives_match_the_difference_route(level, monkeypatch):
    # below 32 * n^2 bytes a set's pairwise differences do not fit, and the
    # set goes on the left and its negatives on the right
    jp = builtin_sequence("jorgensen-pedersen")
    mu = mu_truncate(jp, level)
    lams = jp_level(level)
    dense = dense_exactness(mu, lams)
    by_differences = spectrum_exactness(mu, lams).deviation
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 32 * len(lams) ** 2 - 1)
    flat = spectrum_exactness(mu, lams).deviation
    assert abs(by_differences - dense) <= AGREE and abs(flat - dense) <= AGREE


@pytest.mark.parametrize("run_bytes", [1, 1 << 16])
def test_the_flat_route_in_short_runs_matches_dense(run_bytes, monkeypatch):
    # each run of the set against its negatives starts at its own diagonal
    jp = builtin_sequence("jorgensen-pedersen")
    mu = mu_truncate(jp, 7)
    lams = jp_level(7)
    dense = dense_exactness(mu, lams)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 32 * len(lams) ** 2 - 1)
    monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", run_bytes)
    assert abs(spectrum_exactness(mu, lams).deviation - dense) <= AGREE
    # a set that fails, so the largest |F| sits off the diagonal
    line = [(i,) for i in range(len(lams))]
    res = spectrum_exactness(mu, line)
    assert abs(res.deviation - dense_exactness(mu, line)) <= AGREE and not res.ok


def test_flat_factor_over_budget_raises_before_allocating():
    # the pairwise differences need 32 * n^2 bytes, and the set and its
    # negatives with their tables more
    n = 1 + math.isqrt(DENSE_BYTE_BUDGET // 32)
    points = [(i,) for i in range(n)]
    weights = np.full(n, 1.0 / n)
    with pytest.raises(WorkingSetTooLarge, match="budget"):
        set_deviation(points, n, [(points, 1, weights)])


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
    groups = _factor_groups([len(r) for r, _, _ in factors], _phases._MERGED_ATOMS)
    assert [len(g) for g in groups] == [3] * (level // 3) + ([level % 3] if level % 3 else [])
    lams = jp_level(level)
    dense = lean_dense_deviation(lams, 1, factors)
    sp = build_spectrum(jp, range(1, level + 1))
    for dev in (set_deviation(lams, 1, factors), spectrum_exactness(mu, sp.blocks).deviation):
        assert abs(dev - dense) <= AGREE, (level, dev, dense)
        assert (dev <= 1e-9) == (dense <= 1e-9) and dev <= 1e-9


def test_merged_level_14_matches_the_unmerged_walk(monkeypatch):
    # a dense oracle at n = 16384 would hold a 4.3 GB exponential matrix; the
    # per-factor walk, pinned to the dense Gram up to level 12 above, stands in
    jp = builtin_sequence("jorgensen-pedersen")
    mu = mu_truncate(jp, 14)
    sp = build_spectrum(jp, range(2, 15, 2))
    merged = spectrum_exactness(mu, sp.blocks).deviation
    monkeypatch.setattr(_phases, "_MERGED_ATOMS", 1)
    assert _phases.merged_factors(mu.phase_factors()) == mu.phase_factors()
    unmerged = spectrum_exactness(mu, sp.blocks).deviation
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
        dev = set_deviation(points, x_den, factors)
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
    points = sorted({(rng.randint(-50, 50),) for _ in range(24)})
    for x_den in (1, 3):
        dev = set_deviation(points, x_den, factors)
        dense = lean_dense_deviation(points, x_den, factors)
        assert abs(dev - dense) <= AGREE


def test_single_factor_is_walked_as_given():
    rows = [(0,), (1,), (2,), (3,)]
    factor = (rows, 4, np.full(4, 0.25))
    assert _merged_factor([factor]) is factor
    assert set_deviation([(0,), (1,), (2,), (3,)], 1, [factor]) <= 1e-12
