"""The sum-set kernel `_phases.sum_set_runs` against the per-point product
transform it replaces on the Q scan and the equi-positivity lattice, and the
integer rows its factors are built from."""
import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from convspectra import _phases
from convspectra._phases import (
    _INT64_SAFE,
    PointRows,
    common_denominator,
    merged_factors,
    product_transform,
    sum_set_runs,
)
from convspectra.errors import WorkingSetTooLarge
from convspectra.exactmat import IntMatrix
from convspectra.measures import (
    fourier_many,
    mu_truncate,
    scaled_atom_rows,
    tail_factors,
    tail_fourier_many,
)
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.spectra import _lattice_moduli, q_eval_many
from convspectra.triples import DigitSet
from oracles import fourier, fraction_inverse, uniform_on


def explicit_q(m, lams, xs):
    """Q by `fourier_many` on every point x + lambda, one x at a time."""
    out = []
    for x in xs:
        pts = [tuple(F(a) + b for a, b in zip(x, lam)) for lam in lams]
        out.append(float(np.sum(np.abs(fourier_many(m, pts)) ** 2)))
    return np.array(out)


def stacked(left, right, den, factors):
    """The runs of `sum_set_runs` stacked into the whole (#u, #v) array."""
    return np.concatenate([values for _, values in sum_set_runs(left, right, den, factors)])


def _skew_level(k):
    # non-diagonal levels, det -6 and -7, three to seven digits
    r = IntMatrix(((2, 2), (1, -2))) if k % 2 else IntMatrix(((1, 2), (3, -1)))
    rows = [(0, 0), (2, 0), (0, 2), (2, 2), (-4, 6), (6, -2), (4, 4)]
    return r, DigitSet.of(rows[: 3 + k % 5]), None


def _cube_level(k):
    # non-diagonal 3-D levels (det 13) with four or five digits
    r = IntMatrix(((2, 1, 0), (0, 2, 1), (1, 0, 3)))
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    return r, DigitSet.of(rows[: 4 + k % 2]), None


def _scattered_level(k):
    # digits on no grid, non-diagonal R (det 19)
    r = IntMatrix(((5, 1), (-1, 4))) if k % 2 else IntMatrix(((4, -1), (3, 4)))
    rows = [(0, 0), (3, -7), (11, 2), (-5, 9), (8, 8), (1, -13), (-9, -4)]
    return r, DigitSet.of(rows[: 5 + k % 3]), None


def _shared_axis_level(k):
    # diagonal R keeps the first coordinates: atoms 0 and 1 share one value
    # on axis 0, and so do atoms 3 and 4; atoms 2 and 5 share none
    rows = [(0, 0), (0, 3), (2, 1), (5, 5), (5, -2), (7, 1)]
    return IntMatrix.diagonal([6, 5 + k % 2]), DigitSet.of(rows), None


def _wide_level(k):
    # digits past 2^62: the scaled atoms only fit Python ints
    return IntMatrix.diagonal([4, 3]), DigitSet.of([(0, 0), (2**70 + k, 1), (-(2**66), 2)]), None


# ---- q_eval_many: mu_hat on x + Lambda from one table per summand ----


def test_q_matches_explicit_sums_for_the_skew_sequence():
    seq = from_generator(_skew_level, 2, length=12)
    m = mu_truncate(seq, 4)
    assert len(m) > 500 and len(m.convolution_factors()) == 4
    rng = random.Random(1018)
    lams = sorted({(rng.randrange(-40, 41), rng.randrange(-40, 41)) for _ in range(60)})
    xs = [(F(rng.randrange(-50, 51), rng.randrange(1, 31)), F(rng.randrange(-50, 51), 37)) for _ in range(45)]
    xs.append((F(0), F(0)))
    q = q_eval_many(tail_factors(seq, 0, 4), lams, xs)
    assert np.max(np.abs(q - explicit_q(m, lams, xs))) <= 1e-12


def test_q_matches_explicit_sums_past_int64():
    # numerators past 2^62 and past 2^63 (object dtype) on both summands
    jp = builtin_sequence("jorgensen-pedersen")
    m = mu_truncate(jp, 7)
    lams = [(0,), (1,), (2**62 + 3,), (2**70 + 5,), (-(3 * 2**64) + 1,), (4**30,)]
    xs = [(F(i, 13),) for i in range(-6, 7)] + [(F(2**65 + 1, 7),), (F(-(2**61), 3),)]
    den, rows = common_denominator([tuple(map(F, v)) for v in xs + lams])
    assert max(abs(c) for row in rows for c in row) >= 2**63
    q = q_eval_many(tail_factors(jp, 0, 7), lams, xs)
    assert np.max(np.abs(q - explicit_q(m, lams, xs))) <= 1e-12


def test_q_matches_explicit_sums_on_wide_atoms():
    seq = from_generator(_wide_level, 2, length=8)
    m = mu_truncate(seq, 3)
    assert max(abs(x.numerator) for a in m.atoms for x in a) > 2**62
    rng = random.Random(7)
    lams = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(12)]
    xs = [(F(rng.randrange(-20, 21), 17), F(rng.randrange(-20, 21), 11)) for _ in range(10)]
    q = q_eval_many(tail_factors(seq, 0, 3), lams, xs)
    assert np.max(np.abs(q - explicit_q(m, lams, xs))) <= 1e-12


def _upper_skew_level(k):
    # R = [[4, 1], [0, 4]] on the unit square's corners
    return IntMatrix(((4, 1), (0, 4))), DigitSet.of([(0, 0), (1, 0), (0, 1), (1, 1)]), None


def _negative_level(k):
    # negative diagonal R
    return IntMatrix.diagonal([-4, -3]), DigitSet.of([(0, 0), (2, 0), (0, 1), (2, 2)]), None


@pytest.mark.parametrize("seq, top", [
    (builtin_sequence("jorgensen-pedersen"), 16),
    (builtin_sequence("example-2.6"), 4),
    (from_generator(_upper_skew_level, 2), 8),
    (from_generator(_negative_level, 2), 8),
], ids=["jorgensen-pedersen", "example-2.6", "upper-skew", "negative-diagonal"])
def test_q_from_the_tail_factors_equals_q_from_the_atom_convolution(seq, top):
    # the factors mu_truncate records are gcd-reduced, sorted and without
    # point masses at the origin; none of that changes a bit of Q
    rng = random.Random(top)
    dim = seq.dim
    lams = sorted({tuple(rng.randrange(-30, 31) for _ in range(dim)) for _ in range(16)})
    xs = [tuple(F(rng.randrange(-40, 41), rng.randrange(1, 29)) for _ in range(dim)) for _ in range(40)]
    for k in (0, 1, top // 2, top):
        q = q_eval_many(tail_factors(seq, 0, k), lams, xs)
        assert np.array_equal(q, q_eval_many(mu_truncate(seq, k).phase_factors(), lams, xs)), k
        if k == 0:
            assert (q == len(lams)).all()


def test_sum_set_transform_equals_the_product_transform_on_every_sum():
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(5)
    u = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(23)])
    v = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(17)])
    sums = (u[:, None, :] + v[None, :, :]).reshape(-1, 2)
    want = product_transform(PointRows(sums, 97), factors).reshape(23, 17)
    for fs in (factors, merged_factors(factors)):
        got = stacked(([0, 1], u), [([0, 1], v)], 97, fs)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("target", [None, 1, 4000])
def test_upper_runs_hold_the_upper_triangle_of_the_sum_set(target, monkeypatch):
    # None keeps the default run target, which holds the 21 points in one run
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(17)
    x = np.array([[rng.randrange(-300, 301) for _ in range(2)] for _ in range(21)])
    want = stacked(([0, 1], x), [([0, 1], -x)], 31, factors)
    seen = np.zeros(want.shape, dtype=bool)
    if target is not None:
        monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", target)
    runs = list(sum_set_runs(([0, 1], x), [([0, 1], -x)], 31, factors, upper=True))
    assert len(runs) == {None: 1, 1: 21}.get(target, len(runs)) and (target != 4000 or 1 < len(runs) < 21)
    for s, values in runs:
        # the run from left point s takes the right points from s on
        assert values.shape[1] == 21 - s
        assert np.max(np.abs(values - want[s : s + len(values), s:])) <= 1e-15
        seen[s : s + len(values), s:] = True
    assert seen[np.triu_indices(21)].all()


def test_product_transform_walks_points_in_budgeted_chunks(monkeypatch):
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(11)
    xs = PointRows.of([(F(rng.randrange(-90, 91), 13), F(rng.randrange(-90, 91), 7)) for _ in range(40)])
    whole = product_transform(xs, factors)
    ranks = [len(rows) for rows, _, _ in factors]
    # one run of one point: its rows of the product, one level and a modulus
    # (16 + 16 + 8 bytes, one right point) and its table row (32 per atom);
    # once, the empty right's table, join and kept group sums, where at a run
    # target of one byte the join is formed one atom at a time (one row) and
    # its group sums take at most max(ranks) rows
    kernel = 40 + 32 * max(ranks) + 16 * (max(ranks) + 1) + 16 * sum(ranks)
    # the result, 16 bytes per point, is counted with the run, and both are
    # refused before either is allocated, also at a budget each fits alone
    monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", 1)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", kernel + 16 * 40)
    assert np.max(np.abs(product_transform(xs, factors) - whole)) <= 1e-15
    for budget in (kernel + 16 * 40 - 1, max(kernel, 16 * 40), min(kernel, 16 * 40)):
        monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", budget)
        with pytest.raises(WorkingSetTooLarge, match="40 x 1 points .* next to a 640-byte result"):
            product_transform(xs, factors)


def test_sum_set_transform_checks_its_bytes_before_allocating(monkeypatch):
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(13)
    u = np.array([[rng.randrange(-50, 51) for _ in range(2)] for _ in range(9)])
    v = np.array([[rng.randrange(-50, 51)] for _ in range(7)])
    w = np.array([[rng.randrange(-50, 51)] for _ in range(5)])
    right = [([0], v), ([1], w)]
    whole = stacked(([0, 1], u), right, 29, factors)
    # per left point, its rows of the product, level and a float modulus over
    # the 7 x 5 right points and its left table row; once, the right tables
    # as built, the Khatri-Rao join of the right tables with its group sums,
    # and every factor's group sums kept across runs
    ranks = [len(rows) for rows, _, _ in factors]
    rank = max(ranks)
    row, once = (2 * 16 + 8) * 35 + 32 * rank, 32 * rank * (7 + 5) + 2 * 16 * rank * 35 + 16 * 35 * sum(ranks)
    assert _phases.sum_set_sizes([7, 5], ranks) == (row, once)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", once + 9 * row)  # one run
    assert np.array_equal(stacked(([0, 1], u), right, 29, factors), whole)
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", once + row)  # runs of one point
    assert np.max(np.abs(stacked(([0, 1], u), right, 29, factors) - whole)) <= 1e-15
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", once + row - 1)
    with pytest.raises(WorkingSetTooLarge, match="budget"):
        stacked(([0, 1], u), right, 29, factors)


def spanned_runs(monkeypatch, target, *args, **kwargs):
    """The runs of `sum_set_runs` at a run target of `target` bytes, listed,
    with the (count, span) in left points it chose."""
    chosen = []
    real = _phases._runs

    def spy(*a):
        chosen.append(a[-2:])
        return real(*a)

    monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", target)
    monkeypatch.setattr(_phases, "_runs", spy)
    runs = list(sum_set_runs(*args, **kwargs))
    monkeypatch.undo()
    (count, span), = chosen
    return runs, count, span


def assert_runs_tile(runs, want, upper=False):
    """The listed runs hold the rows of want in order, each its own array."""
    at = 0
    for s, values in runs:
        assert s == at
        assert np.max(np.abs(values - want[s : s + len(values), s if upper else 0 :]), initial=0) <= 1e-15
        at += len(values)
    assert at == len(want)
    for (_, a), (_, b) in zip(runs, runs[1:]):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("target", [6000, 12000, 40000])
def test_span_tables_match_one_run(monkeypatch, target):
    # runs of a few left points over 60 right points; each factor's left
    # table is built once per span of several runs, and several spans walk u
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(23)
    u = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(97)])
    v = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(60)])
    args = (([0, 1], u), [([0, 1], v)], 97, factors)
    whole = list(sum_set_runs(*args))
    assert len(whole) == 1
    runs, count, span = spanned_runs(monkeypatch, target, *args)
    assert 1 < count < span < len(u) and span % count == 0
    assert_runs_tile(runs, whole[0][1])


@pytest.mark.parametrize("target", [5000, 12000])
def test_span_tables_match_one_run_on_upper_runs(monkeypatch, target):
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(29)
    x = np.array([[rng.randrange(-300, 301) for _ in range(2)] for _ in range(45)])
    args = (([0, 1], x), [([0, 1], -x)], 31, factors)
    want = stacked(*args)
    runs, count, span = spanned_runs(monkeypatch, target, *args, upper=True)
    assert 1 < count < span < len(x)
    for s, values in runs:
        assert values.shape[1] == len(x) - s
    assert_runs_tile(runs, want, upper=True)


def test_span_tables_match_one_run_on_exact_integer_atoms(monkeypatch):
    # atoms past 2^62: the tables take the exact Python-int phase path
    m = mu_truncate(from_generator(_wide_level, 2, length=8), 3)
    factors = m.phase_factors()
    assert any(rows.dtype == object for rows, _, _ in factors)
    rng = random.Random(31)
    u = np.array([[rng.randrange(-90, 91) for _ in range(2)] for _ in range(30)])
    v = np.array([[rng.randrange(-90, 91) for _ in range(2)] for _ in range(40)])
    args = (([0, 1], u), [([0, 1], v)], 17, factors)
    want = stacked(*args)
    runs, count, span = spanned_runs(monkeypatch, 5000, *args)
    assert 1 < count < span < len(u)
    assert_runs_tile(runs, want)


def test_span_tables_are_counted_in_the_budget(monkeypatch):
    # the room for spans is what the budget leaves next to one run: with
    # none left, each run builds its own tables, as at a span of one run
    m = mu_truncate(from_generator(_skew_level, 2, length=12), 3)
    factors = m.phase_factors()
    rng = random.Random(37)
    u = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(40)])
    v = np.array([[rng.randrange(-500, 501) for _ in range(2)] for _ in range(60)])
    args = (([0, 1], u), [([0, 1], v)], 97, factors)
    want = stacked(*args)
    ranks = [len(rows) for rows, _, _ in factors]
    row, once = _phases.sum_set_sizes([60], ranks)
    table = 16 * sum(ranks) + 32 * max(ranks)  # per left point of a span
    for extra, spans in [(0, False), (table * 4 - 1, False), (table * 4, True)]:
        monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", once + 2 * row + extra)
        runs, count, span = spanned_runs(monkeypatch, 1 << 20, *args)
        assert count == 2 and span == (4 if spans else 2)
        assert_runs_tile(runs, want)


def right_sums(cols, right, den, factors):
    groups = [_phases._distinct_rows(rows[:, cols]) for rows, _, _ in factors]
    return list(_phases._right_sums(groups, right, den, factors))


@pytest.mark.parametrize("steps", [1, 3, 8])
@pytest.mark.parametrize("wide", [False, True])
def test_join_sums_do_not_depend_on_the_runs(monkeypatch, steps, wide):
    # groups of 1 to 11 atoms with one projection onto the left axis 0, and
    # repeated atoms; a run of `steps` atoms ends where a group ends, and a
    # larger group goes in runs of right points, over two right blocks whose
    # tables are built whole or per run
    rng = random.Random(41 + steps)
    big = 2**70 if wide else 1
    sizes = [1 + 3 * a // 2 for a in range(8)]
    rows = [(a * big, rng.randrange(-60, 61), rng.randrange(-60, 61)) for a, n in enumerate(sizes) for _ in range(n)]
    rows += rows[:3]
    factors = [
        (np.array(rows, dtype=object if wide else np.int64), 7, np.array([rng.random() for _ in rows])),
        (np.array([(i, i % 3, -i) for i in range(6)]), 5, np.full(6, 1 / 6)),
    ]
    right = [([1], np.array([[rng.randrange(-99, 100)] for _ in range(12)])),
             ([2], np.array([[rng.randrange(-99, 100)] for _ in range(9)]))]
    want = right_sums([0], right, 23, factors)
    monkeypatch.setattr(_phases, "_RUN_TARGET_BYTES", 16 * 12 * 9 * steps)
    assert _phases._join_step(12 * 9) == steps
    got = right_sums([0], right, 23, factors)
    for (d1, r1, g1), (d2, r2, g2) in zip(want, got):
        assert np.array_equal(d1, d2) and r1 == r2 and np.array_equal(g1, g2)


def test_merged_groups_multiply_to_the_factors():
    m = mu_truncate(builtin_sequence("jorgensen-pedersen"), 8)
    merged = merged_factors(m.phase_factors())
    assert [len(rows) for rows, _, _ in merged] == [8, 8, 4]
    xs = PointRows([(i,) for i in range(-40, 41)], 29)
    assert np.max(np.abs(product_transform(xs, merged) - fourier_many(m, xs))) <= 1e-13


# ---- _lattice_moduli: per-axis tables over distinct atom coordinates ----


def lattice_points(lattices):
    grids = np.meshgrid(*lattices, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def assert_lattice_matches_tail(seq, start, depth, lattices, den):
    factors = tail_factors(seq, start, depth)
    got = _lattice_moduli(factors, lattices, den)
    assert got.shape == tuple(len(lat) for lat in lattices)
    pts = lattice_points(lattices)
    want = np.abs(tail_fourier_many(seq, start, depth, PointRows(pts, den)))
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12
    return factors


def random_lattice(rng, size, reach):
    return np.array(sorted(rng.sample(range(-reach, reach + 1), size)), dtype=np.int64)


def test_lattice_moduli_match_the_tail_transform_in_3d():
    seq = from_generator(_cube_level, 3, length=10)
    rng = random.Random(3)
    for start, depth in [(0, 4), (2, 3), (1, 6)]:
        lattices = [random_lattice(rng, n, 400) for n in (9, 7, 6)]
        assert_lattice_matches_tail(seq, start, depth, lattices, 60)


def test_lattice_moduli_match_the_tail_transform_on_scattered_digits():
    seq = from_generator(_scattered_level, 2, length=10)
    rng = random.Random(4)
    for start, depth in [(0, 3), (1, 4), (3, 2)]:
        lattices = [random_lattice(rng, 31, 2000), random_lattice(rng, 26, 2000)]
        assert_lattice_matches_tail(seq, start, depth, lattices, 143)


def test_lattice_moduli_match_the_tail_transform_when_some_atoms_share_axis_0():
    seq = from_generator(_shared_axis_level, 2, length=10)
    rng = random.Random(6)
    for start, depth in [(0, 1), (0, 4), (2, 3)]:
        lattices = [random_lattice(rng, 40, 3000), random_lattice(rng, 35, 3000)]
        factors = assert_lattice_matches_tail(seq, start, depth, lattices, 211)
        rows = factors[-1][0]
        assert 1 < len(set(rows[:, 0].tolist())) < len(rows)


def test_lattice_moduli_match_the_tail_transform_on_wide_atoms():
    seq = from_generator(_wide_level, 2, length=8)
    factors = tail_factors(seq, 0, 3)
    assert factors[0][0].dtype == object
    rng = random.Random(8)
    lattices = [random_lattice(rng, 12, 500), random_lattice(rng, 9, 500)]
    assert_lattice_matches_tail(seq, 0, 3, lattices, 35)


def test_lattice_moduli_in_1d_are_the_weighted_sums():
    seq = builtin_sequence("jorgensen-pedersen")
    lattice = np.arange(-300, 301, 7, dtype=np.int64)
    assert_lattice_matches_tail(seq, 1, 9, [lattice], 64)


# ---- scaled_atom_rows from triples.numerators ----


def fraction_rows(m, digits):
    """The rows m^{-1} b over their least common denominator, from Fractions."""
    inv = fraction_inverse(m)
    atoms = [inv.matvec(b) for b in digits.vectors]
    den = math.lcm(*(x.denominator for a in atoms for x in a))
    return [[int(x * den) for x in a] for a in atoms], den


@pytest.mark.parametrize(
    "gen, dim",
    [(_skew_level, 2), (_cube_level, 3), (_scattered_level, 2), (_shared_axis_level, 2), (_wide_level, 2)],
)
def test_scaled_atom_rows_equal_the_fraction_rows_in_set_order(gen, dim):
    seq = from_generator(gen, dim, length=8)
    for k in range(1, 6):
        m = seq.prefix_matrix(k)
        rows, den = scaled_atom_rows(m, seq.digits(k))
        want_rows, want_den = fraction_rows(m, seq.digits(k))
        assert den == want_den and rows.tolist() == want_rows
        wide = max(abs(x) for row in want_rows for x in row) >= _INT64_SAFE
        assert rows.dtype == (object if wide else np.int64)


def test_scaled_atom_rows_keep_set_order_with_wide_digits():
    digits = DigitSet.of([(2**40, 1), (0, 0), (-(2**35), 3), (5, -2)])
    assert len(digits.wide) == 2
    m = IntMatrix(((2, 1), (1, 3)))
    rows, den = scaled_atom_rows(m, digits)
    assert (rows.tolist(), den) == tuple(fraction_rows(m, digits))
    assert rows.dtype == np.int64  # wide digits, but every numerator fits


def fraction_product(factors, x):
    """prod_j sum_b w_b e(-a_b x) with every phase reduced as a Fraction."""
    out = 1
    for rows, den, w in factors:
        phases = [F(int(r[0]), den) * x for r in rows]
        out *= sum(wi * cmath.exp(-2j * math.pi * float(t - math.floor(t))) for t, wi in zip(phases, w))
    return out


@pytest.mark.parametrize(
    "factors",
    [
        # merging rescales the first factor past 2^62: exact rows
        [
            (np.array([[0], [1], [2]]), 3, np.full(3, 1 / 3)),
            (np.array([[0], [5]]), 2**61 - 1, np.full(2, 1 / 2)),
            (np.array([[0]]), 1, np.ones(1)),
        ],
        # int64 rows, but the zero-only factor meets a scale past int64
        [(np.array([[0], [1]]), 2**64 + 13, np.full(2, 1 / 2)), (np.array([[0]]), 1, np.ones(1))],
    ],
)
def test_rescaling_past_int64_keeps_the_transform(factors):
    xs = [(F(1, 7),), (F(3, 5),), (F(2**40 + 1, 9),), (F(0),)]
    merged = merged_factors(factors)
    assert len(merged) == 1  # one group over the lcm of the denominators
    for fs in (factors, merged):
        got = product_transform(PointRows.of(xs), fs)
        for (x,), g in zip(xs, got):
            assert abs(g - fraction_product(factors, x)) <= 1e-13


def test_sum_set_transform_with_uneven_weights_and_shared_coordinates():
    # atoms 0, 2 and 3 share axis-0 value 1; weights differ within the group
    rows = np.array([[1, 4], [-2, 0], [1, -3], [1, 7], [5, 5]])
    weights = np.array([0.1, 0.3, 0.2, 0.15, 0.25])
    factors = [(rows, 6, weights), (np.array([[0, 1], [3, 0]]), 4, np.array([0.6, 0.4]))]
    rng = random.Random(9)
    u = np.array([[rng.randrange(-300, 301)] for _ in range(19)])
    v = np.array([[rng.randrange(-300, 301)] for _ in range(13)])
    got = stacked(([0], u), [([1], v)], 35, factors)
    sums = np.array([[a, b] for a in u[:, 0] for b in v[:, 0]])
    want = product_transform(PointRows(sums, 35), factors).reshape(19, 13)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_uniform_tail_factor_matches_the_uniform_measure():
    seq = from_generator(_scattered_level, 2, length=8)
    (rows, den, w), = tail_factors(seq, 2, 1)
    digits = seq.digits(3)
    measure = uniform_on(digits, fraction_inverse(seq.matrix(3)))
    xi = (F(3, 11), F(-7, 5))
    got = product_transform(PointRows.of([xi]), [(rows, den, w)])[0]
    assert abs(got - fourier(measure, xi)) <= 1e-13
