"""The batched product-form Fourier kernel against the dense and Fraction
routes it replaced, which are kept here as oracles."""
import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from convspectra import _phases, cli, spectra
from convspectra._phases import (
    PointRows,
    common_denominator,
    exact_phase_matrix,
    unit_exponentials,
)
from convspectra.errors import GridTooLarge
from convspectra.exactmat import IntMatrix, product_range
from convspectra.measures import (
    fourier_many,
    mu_truncate,
    scaled_atom_rows,
    tail_factors,
    tail_fourier_many,
    tail_fourier_product,
)
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.spectra import (
    _ball_grid,
    _first_best,
    _k_search_box,
    _pitch_grid,
    _window_spectrum_digits,
    build_spectrum,
    equi_positivity_scan,
    q_eval_many,
)
from convspectra.triples import DigitSet
from oracles import fourier, fraction_inverse, nu_tail_truncate, uniform_on

ROOT = Path(__file__).resolve().parent.parent


def dense_fourier_many(m, xis):
    """The single-factor transform: one exact phase per point and atom."""
    den_x, rows_x = common_denominator([tuple(F(c) for c in x) for x in xis])
    den_a, rows_a = m.den, m.rows
    return unit_exponentials(exact_phase_matrix(rows_x, den_x, rows_a, den_a)) @ m._float_weights


def fraction_tail_product(seq, start, depth, xi):
    """prod_j m_{B_{start+j}}(M_j^{-T} xi) with M_j^{-T} xi in Fractions."""
    x = tuple(F(c) for c in xi)
    out = complex(1.0)
    for j in range(1, depth + 1):
        m_inv_t = fraction_inverse(product_range(seq, start, start + j)).transpose()
        out *= fourier(uniform_on(seq.digits(start + j)), m_inv_t.matvec(x))
    return out


def _skew_level(k):
    # non-diagonal levels; det -6 at odd levels and -7 at even ones
    r = IntMatrix(((2, 2), (1, -2))) if k % 2 else IntMatrix(((1, 2), (3, -1)))
    rows = [(0, 0), (2, 0), (0, 2), (2, 2), (-4, 6), (6, -2), (4, 4)]
    return r, DigitSet.of(rows[: 3 + k % 5]), None


def skew_sequence():
    return from_generator(_skew_level, 2, length=12)


def rational_points(rng, dim, count, num=60, den=40):
    return [
        tuple(F(rng.randrange(-num, num + 1), rng.randrange(1, den)) for _ in range(dim))
        for _ in range(count)
    ]


def integer_points(rng, dim, count, reach=50):
    return [tuple(rng.randrange(-reach, reach + 1) for _ in range(dim)) for _ in range(count)]


# ---- fourier_many: product over the convolution factors ----


@pytest.mark.parametrize(
    "name, level", [("jorgensen-pedersen", 8), ("jorgensen-pedersen", 10), ("example-2.6", 3)]
)
def test_product_form_matches_dense_transform(name, level):
    seq = builtin_sequence(name)
    m = mu_truncate(seq, level)
    assert len(m.convolution_factors()) == level
    rng = random.Random(level)
    xis = rational_points(rng, seq.dim, 150, num=5000, den=97) + integer_points(rng, seq.dim, 30)
    xis.append((0,) * seq.dim)
    vals = fourier_many(m, xis)
    dense = dense_fourier_many(m, xis)
    assert np.max(np.abs(vals - dense)) <= 1e-12
    assert abs(vals[-1] - 1) <= 1e-15


def test_point_rows_input_equals_rational_points():
    m = mu_truncate(builtin_sequence("jorgensen-pedersen"), 6)
    xis = rational_points(random.Random(3), 1, 40)
    den, rows = common_denominator(xis)
    assert np.array_equal(fourier_many(m, PointRows(rows, den)), fourier_many(m, xis))


def test_q_eval_many_matches_dense_q():
    jp = builtin_sequence("jorgensen-pedersen")
    m = mu_truncate(jp, 5)
    lams = [(v,) for v in (0, 1, 4, 5, 16, 17, 20, 21)]
    xs = [(F(i, 37),) for i in range(37)]
    q = q_eval_many(tail_factors(jp, 0, 5), lams, xs)
    for x, qv in zip(xs, q):
        pts = [(x[0] + lam[0],) for lam in lams]
        assert abs(qv - float(np.sum(np.abs(dense_fourier_many(m, pts)) ** 2))) <= 1e-12


def test_q_eval_many_past_int64_matches_dense_q():
    # x + lambda numerators past 2^62 take the object-dtype rows
    jp = builtin_sequence("jorgensen-pedersen")
    m = mu_truncate(jp, 4)
    lams = [(0,), (1,), (2**70 + 5,), (-(3 * 2**64) + 1,)]
    xs = [(F(i, 13),) for i in range(-6, 7)]
    q = q_eval_many(tail_factors(jp, 0, 4), lams, xs)
    for x, qv in zip(xs, q):
        pts = [(x[0] + lam[0],) for lam in lams]
        assert abs(qv - float(np.sum(np.abs(dense_fourier_many(m, pts)) ** 2))) <= 1e-12


# ---- tail_fourier_many: per-level integer atoms ----


@pytest.mark.parametrize(
    "name, depths",
    [
        ("jorgensen-pedersen", range(1, 6)),
        ("bernoulli-quarter", range(1, 6)),
        ("skew", range(1, 6)),
        ("example-2.6", range(1, 3)),
    ],
)
def test_tail_transform_matches_truncated_tail_measure(name, depths):
    seq = skew_sequence() if name == "skew" else builtin_sequence(name)
    rng = random.Random(20261018)
    for start in range(4):
        for depth in depths:
            tail = nu_tail_truncate(seq, start, depth).measure
            xis = rational_points(rng, seq.dim, 6) + integer_points(rng, seq.dim, 3)
            vals = tail_fourier_many(seq, start, depth, xis)
            for xi, v in zip(xis, vals):
                assert abs(v - fourier(tail, xi)) <= 1e-12, (start, depth, xi)
            assert abs(tail_fourier_product(seq, start, depth, xis[0]) - vals[0]) <= 1e-15


def test_scaled_atoms_are_gcd_reduced_for_negative_determinant_window():
    seq = skew_sequence()
    for start, depth in [(0, 1), (0, 3), (2, 1), (1, 2)]:
        m = product_range(seq, start, start + depth)
        assert m.rows[0][1] != 0  # not diagonal
        digits = seq.digits(start + depth)
        rows, den = scaled_atom_rows(m, digits)
        inv = fraction_inverse(m)
        atoms = [inv.matvec(b) for b in digits.vectors]
        assert [tuple(F(x, den) for x in row) for row in rows.tolist()] == atoms
        # den is the least common denominator of the atoms
        assert den == math.lcm(*(x.denominator for a in atoms for x in a))
    # the reduction is real here: |det| = 6, least common denominator 3
    m = seq.matrix(1)
    assert m.det() == -6
    rows, den = scaled_atom_rows(m, seq.digits(1))
    assert den == 3
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.tolist())) == [(0, 0), (2, -2), (2, 1), (4, -1)]


# ---- the windowed-search chooser ----


def fraction_windowed_table(seq, milestones, radius, depth):
    """The per-candidate Fraction chooser: k table {(lambda, j): k}."""
    dim = seq.dim
    zero = (0,) * dim
    box = _k_search_box(radius, dim)
    table = {}
    p = 0
    for j, q in enumerate(milestones, start=1):
        inv_win_t = fraction_inverse(product_range(seq, p, q)).transpose()
        depth_left = depth if seq.length is None else min(depth, seq.length - q)
        for lam in map(tuple, _window_spectrum_digits(seq, p, q).tolist()):
            if lam == zero or depth_left < 1:
                continue
            base = inv_win_t.matvec(lam)
            best_k, best_score = zero, -1.0
            for cand in box:
                xi = tuple(b + c for b, c in zip(base, cand))
                score = abs(fraction_tail_product(seq, q, depth_left, xi))
                if score > best_score + 1e-15:
                    best_k, best_score = cand, score
            table[(lam, j)] = best_k
        p = q
    return table


def _far_spectrum_level(k):
    # spectrum digits {0, 3}: the candidate 3/4 is beaten by 3/4 - 1
    return IntMatrix.diagonal([4]), DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (3,)])


def _negative_det_level(k):
    # R = -4: the candidates adj^T lambda + det k over det change sign
    return IntMatrix.diagonal([-4]), DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (3,)])


@pytest.mark.parametrize(
    "name, milestones, radius, depth, shifted",
    [
        ("example-2.6", [1, 2, 3], 2, 4, False),
        ("example-2.6", [1, 3], 1, 2, True),
        ("far-spectrum", [1, 2, 3, 4], 2, 3, True),
        ("negative-det", [1, 2, 3, 4], 2, 3, True),
    ],
)
def test_windowed_levels_match_fraction_chooser(name, milestones, radius, depth, shifted):
    if name == "far-spectrum":
        seq = from_generator(_far_spectrum_level, 1, length=8)
    elif name == "negative-det":
        seq = from_generator(_negative_det_level, 1, length=8)
    else:
        seq = builtin_sequence(name)
    table = fraction_windowed_table(seq, milestones, radius, depth)
    assert any(any(k) for k in table.values()) == shifted
    fast = build_spectrum(
        seq, milestones, "windowed-search", search_radius=radius, search_depth=depth
    )
    oracle = build_spectrum(seq, milestones, table)
    assert len(fast.levels) == len(oracle.levels)
    assert all(map(np.array_equal, fast.levels, oracle.levels))
    assert fast.k_choices == oracle.k_choices
    if name == "negative-det":
        assert fast.k_choices == tuple(((j, (3,)), (1,)) for j in milestones)


# ---- the equi-positivity scan ----


def fraction_scan_tables(seq, starts, depth, xs, ys, ks):
    """The per-level Fraction tables: atoms inv.matvec(b), denominators per
    level.  Per start, min over y of the tail product's modulus for every k
    (rows) and x (columns)."""

    def table(w, points):
        den_w, rows_w = common_denominator(w)
        den_p, rows_p = common_denominator(points)
        return unit_exponentials(exact_phase_matrix(rows_w, den_w, rows_p, den_p))

    tables = {}
    for start in starts:
        prod = np.ones((len(ks), len(xs), len(ys)), dtype=complex)
        for j in range(1, depth + 1):
            inv = fraction_inverse(product_range(seq, start, start + j))
            w = [inv.matvec(b) for b in seq.digits(start + j).vectors]
            ax, ay = table(w, xs), table(w, ys)
            for ki, k in enumerate(ks):
                axk = ax * table(w, [tuple(F(c) for c in k)])[:, 0][:, None] if any(k) else ax
                prod[ki] *= (axk.T @ ay) / len(w)
        tables[start] = np.abs(prod).min(axis=2)
    return tables


def fraction_scan_witnesses(tables, xs, ks):
    """(start, x) -> (k, value): the first k of largest value, k = 0 at x = 0."""
    zero_x = tuple(F(0) for _ in xs[0])
    witnesses = {}
    for start, per_k_min in tables.items():
        for xi, x in enumerate(xs):
            ki = 0 if x == zero_x else int(np.argmax(per_k_min[:, xi]))
            witnesses[(start, x)] = (ks[ki], float(per_k_min[ki, xi]))
    return witnesses


def assert_scan_matches_fraction_tables(seq, starts, depth, pitch, radius, k_window, y_pitch=None):
    """Same keys, values within 1e-13, and the same k unless the oracle's top
    two values are within 1e-12, where the chosen k must be within 1e-12 of
    the oracle's maximum.  (The lattice kernel sums in another order than
    the oracle, so bit equality cannot hold, and x on the -1/2 face ties its
    mirror x + k.)"""
    rep = equi_positivity_scan(seq, starts, depth, pitch, radius, k_window, y_pitch=y_pitch)
    ks = _k_search_box(k_window, seq.dim)
    xs = _pitch_grid(pitch, seq.dim)
    ys = _ball_grid(y_pitch if y_pitch is not None else radius / 8, radius, seq.dim)
    tables = fraction_scan_tables(seq, starts, depth, xs, ys, ks)
    oracle = fraction_scan_witnesses(tables, xs, ks)
    assert rep.per_x_witness.keys() == oracle.keys()
    for xi, x in enumerate(xs):
        for start in starts:
            k, val = rep.per_x_witness[(start, x)]
            want_k, want_val = oracle[(start, x)]
            assert abs(val - want_val) <= 1e-13
            if k != want_k:
                col = np.sort(tables[start][:, xi])
                assert col[-1] - col[-2] <= 1e-12
                assert tables[start][ks.index(k), xi] >= col[-1] - 1e-12
    vals = [v for _, v in oracle.values()]
    if rep.status == "witnessed":
        assert abs(rep.scanned_epsilon0 - min(vals)) <= 1e-13
    else:
        assert min(vals) <= 1e-12


@pytest.mark.parametrize(
    "name, starts, depth, pitch, radius, k_window",
    [
        ("example-2.6", [0, 1, 2], 5, F(1, 8), F(1, 12), 1),
        ("skew", [0, 1], 3, F(1, 6), F(1, 5), 1),
        ("jorgensen-pedersen", [0, 2], 4, F(1, 16), F(1, 10), 2),
    ],
)
def test_scan_witnesses_equal_fraction_tables(name, starts, depth, pitch, radius, k_window):
    if name == "skew":
        seq = skew_sequence()
    else:
        seq = builtin_sequence(name).reduced()
    assert_scan_matches_fraction_tables(seq, starts, depth, pitch, radius, k_window)


def _cube_level(k):
    # a non-diagonal 3-D level (det 13) with four or five digits
    r = IntMatrix(((2, 1, 0), (0, 2, 1), (1, 0, 3)))
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    return r, DigitSet.of(rows[: 4 + k % 2]), None


@pytest.mark.parametrize(
    "name, starts, depth, pitch, radius, k_window, y_pitch",
    [
        ("skew", [0, 1], 3, F(1, 7), F(1, 5), 1, F(1, 11)),  # x and y on no common lattice
        ("example-2.6", [0, 1], 4, F(1, 4), F(1, 6), 1, F(1, 48)),  # y finer than x
        ("jorgensen-pedersen", [0], 5, F(1, 64), F(1, 3), 1, F(1, 6)),  # y coarser than x
        ("skew", [0, 1], 3, F(1, 6), F(1, 5), 0, None),
        ("example-2.6", [1], 3, F(1, 4), F(1, 12), 2, None),
        ("cube", [0, 1], 3, F(1, 4), F(1, 5), 1, F(1, 15)),
        ("jorgensen-pedersen", [0, 1], 3, F(1, 4), F(1, 10**20), 1, None),  # sums past int64
    ],
)
def test_scan_witnesses_on_other_lattices(name, starts, depth, pitch, radius, k_window, y_pitch):
    if name == "skew":
        seq = skew_sequence()
    elif name == "cube":
        seq = from_generator(_cube_level, 3, length=8)
    else:
        seq = builtin_sequence(name).reduced()
    assert_scan_matches_fraction_tables(seq, starts, depth, pitch, radius, k_window, y_pitch)


def fsum_ball_minimum(seq, start, depth, xi, ys):
    """min over y of |prod_j (1/#B) sum_b e(-<M_j^{-1} b, xi + y>)|, one point
    at a time: each phase reduced mod 1 as an exact rational, each mask
    summed by math.fsum."""
    levels = []
    for j in range(1, depth + 1):
        inv = fraction_inverse(product_range(seq, start, start + j))
        atoms = [inv.matvec(b) for b in seq.digits(start + j).vectors]
        den = math.lcm(*(c.denominator for a in atoms for c in a))
        levels.append(([[int(c * den) for c in a] for a in atoms], den))
    best = math.inf
    for y in ys:
        point = [F(a) + b for a, b in zip(xi, y)]
        pden = math.lcm(*(c.denominator for c in point))
        pnum = [int(c * pden) for c in point]
        value = 1.0
        for rows, den in levels:
            modulus = den * pden
            terms = [
                cmath.exp(-2j * math.pi * (sum(a * b for a, b in zip(row, pnum)) % modulus / modulus))
                for row in rows
            ]
            total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
            value *= abs(total) / len(rows)
        best = min(best, value)
    return best


def test_scan_witnesses_match_an_fsum_oracle_at_bench_size():
    # the fourier benchmark's equipos scan: example-2.6 reduced, depth 12,
    # x pitch 1/32, y radius 1/12, k window 1, tail starts 0..3
    seq = builtin_sequence("example-2.6").reduced()
    pitch, radius = F(1, 32), F(1, 12)
    rep = equi_positivity_scan(seq, [0, 1, 2, 3], 12, pitch, radius, 1)
    assert len(rep.per_x_witness) == 4 * 32 * 32
    ys = _ball_grid(radius / 8, radius, 2)
    checked = [
        (0, (F(0), F(0))),
        (0, (F(-1, 2), F(5, 32))),
        (1, (F(-1, 2), F(-1, 2))),
        (1, (F(3, 32), F(-7, 32))),
        (2, (F(15, 32), F(15, 32))),
        (2, (F(-11, 32), F(1, 4))),
        (3, (F(1, 32), F(0))),
        (3, (F(-1, 4), F(-1, 2))),
    ]
    for start, x in checked:
        k, val = rep.per_x_witness[(start, x)]
        if not any(x):
            assert k == (0, 0)
        xk = tuple(a + b for a, b in zip(x, k))
        assert abs(val - fsum_ball_minimum(seq, start, 12, xk, ys)) <= 1e-12


def test_first_best_takes_box_order_up_to_ties():
    scores = np.array(
        [
            [1.0, 0.5, 0.7, 0.9],
            [1.0 + 5e-16, 0.6, 0.7 + 2e-15, 0.9],
            [1.0 + 1e-15, 0.6 + 5e-16, 0.3, 0.9 + 1e-16],
        ]
    )
    assert _first_best(scores).tolist() == [0, 1, 1, 0]


def test_mirrored_face_points_pick_the_box_order_k():
    # x on the -1/2 face ties its mirror x + k exactly; the first k of the
    # box order, k = 0, must win whatever the rounding
    seq = builtin_sequence("example-2.6").reduced()
    starts, depth, pitch, radius = [0, 1], 6, F(1, 16), F(1, 12)
    rep = equi_positivity_scan(seq, starts, depth, pitch, radius, 1)
    ks = _k_search_box(1, 2)
    xs = _pitch_grid(pitch, 2)
    face = [i for i, x in enumerate(xs) if F(-1, 2) in x]
    tables = fraction_scan_tables(seq, starts, depth, [xs[i] for i in face], _ball_grid(radius / 8, radius, 2), ks)
    mirrored = 0
    for start in starts:
        for col, i in enumerate(face):
            values = tables[start][:, col]
            assert values[0] >= values.max() - 1e-12  # k = 0 is a tied maximum
            mirrored += int(np.sum(values >= values.max() - 1e-12)) > 1
            assert rep.per_x_witness[(start, xs[i])][0] == (0, 0)
    assert mirrored == len(starts) * len(face)


def test_scan_values_barely_depend_on_the_x_chunking(monkeypatch):
    seq = builtin_sequence("example-2.6").reduced()
    args = (seq, [0, 1], 4, F(1, 8), F(1, 12), 1)
    whole = equi_positivity_scan(*args)
    # room for a handful of x rows only: the scan walks x in many chunks
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 400_000)
    chunked = equi_positivity_scan(*args)
    # BLAS may round a row differently inside a smaller block: same k, and
    # values within a few units in the last place
    assert chunked.per_x_witness.keys() == whole.per_x_witness.keys()
    for key, (k, val) in whole.per_x_witness.items():
        assert chunked.per_x_witness[key][0] == k
        assert abs(chunked.per_x_witness[key][1] - val) <= 1e-15
    assert abs(chunked.epsilon0 - whole.epsilon0) <= 1e-15


# ---- the separable scan path against the dense one ----


def _product_sequence(dim, seed, length=8):
    """Levels under R = diag(±r_c), 2 <= |r_c| <= 5, whose digit sets are
    products of random distinct integers on each axis, written out row by
    row in random order."""
    rng = random.Random(seed)
    levels = []
    for _ in range(length):
        r = [rng.choice((-1, 1)) * rng.randrange(2, 6) for _ in range(dim)]
        counts = [rng.randrange(2 if c == 0 else 1, abs(rc) + 1) for c, rc in enumerate(r)]
        rows = list(itertools.product(*(rng.sample(range(-7, 8), n) for n in counts)))
        rng.shuffle(rows)
        levels.append((IntMatrix.diagonal(r), DigitSet.of(rows), None))
    return from_generator(lambda k: levels[k - 1], dim, length=length)


def _record_lattice_axes(patch):
    """Patch `spectra._lattice_moduli` through `patch` to record the axes
    argument of each call: None on the dense path."""
    taken = []
    lattice_moduli = spectra._lattice_moduli

    def spy(factors, lattices, den, axes=None):
        taken.append(axes)
        return lattice_moduli(factors, lattices, den, axes)

    patch.setattr(spectra, "_lattice_moduli", spy)
    return taken


def _scan_routes(monkeypatch, *args, **kw):
    """(separable, dense, lattice tables per scan) of the same arguments: the
    first scan must read every level from per-axis tables, the second reads
    them from the dense lattice kernel."""
    taken = _record_lattice_axes(monkeypatch)
    separable = equi_positivity_scan(*args, **kw)
    tables = len(taken)
    assert tables and all(axes is not None for axes in taken)
    with monkeypatch.context() as m:
        m.setattr(spectra, "_product_axes", lambda factors: None)
        dense = equi_positivity_scan(*args, **kw)
    assert len(taken) == 2 * tables and all(axes is None for axes in taken[tables:])
    return separable, dense, tables


def assert_routes_agree(routes):
    separable, dense, _ = routes
    assert separable.witness_values.shape == dense.witness_values.shape
    assert np.max(np.abs(separable.witness_values - dense.witness_values)) <= 1e-15
    assert np.array_equal(separable.witness_k, dense.witness_k)
    assert separable.failed_at == dense.failed_at
    assert separable.status == dense.status
    assert abs(separable.scanned_epsilon0 - dense.scanned_epsilon0) <= 1e-15


@pytest.mark.parametrize(
    "dim, seed, pitch, radius, y_pitch",
    [
        (1, 1, F(1, 64), F(1, 6), None),
        (1, 2, F(1, 16), F(1, 5), F(1, 35)),
        (2, 3, F(1, 8), F(1, 6), None),
        (2, 4, F(1, 6), F(1, 5), F(1, 11)),
        (3, 5, F(1, 4), F(1, 5), F(1, 10)),
        (3, 6, F(1, 2), F(1, 3), F(1, 7)),
    ],
)
def test_separable_scan_matches_the_dense_kernel(monkeypatch, dim, seed, pitch, radius, y_pitch):
    seq = _product_sequence(dim, seed)
    # random digits make masks vanish on the lattice, so the default
    # tolerance fails at the first x; a negative one fails nowhere, and the
    # scanned minimum over every x is compared
    for fail_tol in (1e-12, -1.0):
        routes = _scan_routes(monkeypatch, seq, [0, 1, 3], 4, pitch, radius, 1, y_pitch=y_pitch, fail_tol=fail_tol)
        assert_routes_agree(routes)


def test_separable_scan_matches_the_dense_kernel_past_int64(monkeypatch):
    # a y pitch of 10^-20 puts the lattice numerators past int64: both routes
    # take the exact Python-int phase path
    seq = _product_sequence(2, 7)
    assert_routes_agree(_scan_routes(monkeypatch, seq, [0, 2], 3, F(1, 4), F(1, 10**20), 1))
    factors = tail_factors(seq, 0, 3)
    lattice = spectra._axis_lattice(
        np.array([-10**20, 0], dtype=object), np.array([0], dtype=object), np.array([1, 3], dtype=object)
    )[0]
    assert lattice.dtype == object
    moduli = spectra._lattice_moduli(factors, [lattice, lattice], 4 * 10**20, spectra._product_axes(factors))
    assert np.max(np.abs(moduli - spectra._lattice_moduli(factors, [lattice, lattice], 4 * 10**20))) <= 1e-15


def test_separable_scan_matches_the_dense_kernel_in_small_x_blocks(monkeypatch):
    # room for a handful of x rows only: both routes walk x in many blocks
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 400_000)
    cases = [
        (_product_sequence(2, 8), F(1, 16), F(1, 6), F(1, 48)),
        (_product_sequence(3, 9), F(1, 4), F(1, 6), F(1, 12)),
        (builtin_sequence("example-2.6").reduced(), F(1, 8), F(1, 12), F(1, 96)),
    ]
    for seq, pitch, radius, y_pitch in cases:
        routes = _scan_routes(monkeypatch, seq, [0, 1], 3, pitch, radius, 1, y_pitch=y_pitch)
        assert routes[2] > 2 * 2  # more than one x block per start
        assert_routes_agree(routes)


def test_the_dense_kernel_keeps_factors_that_are_not_exact_axis_products(monkeypatch):
    quarter = np.full(4, 0.25)
    product = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert spectra._product_axes([(product, 2, quarter)]) is not None
    # as many rows as the axis counts multiply to, but repeated
    assert spectra._product_axes([(np.array([[0, 0], [0, 0], [1, 1], [1, 1]]), 2, quarter)]) is None
    # a product with exceptions
    assert spectra._product_axes([(np.array([[0, 0], [0, 1], [1, 0], [2, 2]]), 2, quarter)]) is None
    assert spectra._product_axes([(product, 2, np.array([0.1, 0.2, 0.3, 0.4]))]) is None
    # one such factor among products sends the whole tail to the dense kernel
    assert spectra._product_axes([(product, 2, quarter), (product[:3], 2, np.full(3, 1 / 3))]) is None
    # unreduced example-2.6 levels add digits outside the product; the skew
    # levels' atoms M_j^{-1} B are no axis products
    for seq in (builtin_sequence("example-2.6"), skew_sequence()):
        with monkeypatch.context() as m:
            taken = _record_lattice_axes(m)
            equi_positivity_scan(seq, [0, 1], 3, F(1, 8), F(1, 10), 1)
        assert taken and all(axes is None for axes in taken)


# ---- command line ----


def brute_ball_minima(moduli, wheres, k_at, ball_t):
    """min over every n with |n|^2 <= ball_t of the moduli at x + k + y_n, one
    (k, x, n) at a time."""
    dim, reach = moduli.ndim, math.isqrt(ball_t)
    ball = [n for n in itertools.product(range(-reach, reach + 1), repeat=dim) if sum(c * c for c in n) <= ball_t]
    xs = list(itertools.product(*(range(w.shape[0]) for w in wheres)))
    out = np.empty((len(k_at), len(xs)))
    for ki, k in enumerate(k_at.tolist()):
        for xi, x in enumerate(xs):
            out[ki, xi] = min(
                moduli[tuple(wheres[c][x[c], k[c], reach + n[c]] for c in range(dim))] for n in ball
            )
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ball_minima_equal_a_brute_force_minimum_over_the_ball(dim, seed):
    # random moduli, so that no two entries tie and any misread index shows
    rng = np.random.default_rng(7 * dim + seed)
    for ball_t, k_window in [(0, 0), (1, 1), (2, 0), (5, 1), (8, 2)][: 5 if dim < 3 else 4]:
        reach = math.isqrt(ball_t)
        den, y_step = 60, int(rng.integers(1, 20))
        k_nums = np.arange(-k_window, k_window + 1) * den
        y_nums = np.arange(-reach, reach + 1) * y_step
        axes = []
        for _ in range(dim):  # x values of each axis' own
            x_nums = np.sort(rng.choice(np.arange(-40, 40), size=int(rng.integers(1, 5)), replace=False))
            axes.append(spectra._axis_lattice(x_nums * int(rng.integers(1, 30)), k_nums, y_nums))
        moduli = rng.random(tuple(len(lat) for lat, _ in axes))
        wheres = [where for _, where in axes]
        k_at = np.array(_k_search_box(k_window, dim), dtype=np.int64) + k_window
        got = spectra._ball_minima(moduli, wheres, k_at, ball_t)
        assert np.array_equal(got, brute_ball_minima(moduli, wheres, k_at, ball_t))


def test_exit_3_when_one_scan_row_exceeds_the_byte_budget(tmp_path):
    # 6001 k-shifts x 2047 y-points: one x row of the slab needs about 295 MB
    doc = {
        "dimension": 1,
        "sequence": {"generator": "jorgensen-pedersen"},
        "equipos": {
            "depth": 2,
            "x_pitch": "1/2",
            "y_radius": "1/4",
            "y_pitch": "1/4096",
            "k_window": 3000,
        },
    }
    path = tmp_path / "equipos.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["equipos", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert err.getvalue().startswith("resource cap:") and "budget" in err.getvalue()
    assert out.getvalue() == ""
    assert peak < 32 << 20  # refused before the slab was allocated


def test_exit_3_when_one_x_point_lattice_exceeds_the_byte_budget(tmp_path):
    # 121 k-shifts and 31 y values per axis: one x point's 2-D sum lattice
    # has 3751 x 3751 points, about 560 MB of tables
    doc = {
        "dimension": 2,
        "sequence": {"generator": "example-2.6"},
        "equipos": {
            "depth": 2,
            "x_pitch": "1/2",
            "y_radius": "1/4",
            "y_pitch": "1/64",
            "k_window": 60,
        },
    }
    path = tmp_path / "equipos.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["equipos", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert err.getvalue().startswith("resource cap:") and "budget" in err.getvalue()
    assert out.getvalue() == ""
    assert peak < 4 << 20  # refused before any lattice table was allocated


def test_grid_cap_is_checked_before_the_grids_are_built():
    # 2000^2 x-points times a 197-point y-ball: the cap refuses it from counts
    seq = builtin_sequence("example-2.6").reduced()
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge):
            equi_positivity_scan(seq, [0], 12, F(1, 2000), F(1, 12), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_python_dash_m_runs_the_cli():
    config = str(ROOT / "configs" / "jorgensen-pedersen-check.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["check", "--config", config])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("wall time")]
    for module in ("convspectra", "convspectra.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "check", "--config", config],
            capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=120,
        )
        assert proc.returncode == rc, proc.stderr
        assert strip(proc.stdout) == strip(out.getvalue())
        assert strip(proc.stdout)  # the report was printed
