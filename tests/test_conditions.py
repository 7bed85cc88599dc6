"""Condition checkers: series terms are exact, verdicts honest, coupling tight."""
import math
import random
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest

import convspectra.conditions as conditions
from convspectra.conditions import (
    ContractivityReport,
    contractivity_report,
    coupled_sample,
    defect_term,
    equivalence_defect,
    pcc_series,
    pcc_split,
    pcc_sup,
    rbc_series,
    rbc_split,
    three_series,
    _aligned_tables,
    _sample_level,
)
from convspectra.errors import DimensionTooLarge, ValidationError
from convspectra.exactmat import IntMatrix
from convspectra.measures import DiscreteMeasure
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.triples import DigitSet, mod_reduce
from oracles import (
    clip_to_ball,
    coupling_eval,
    fraction_inverse,
    mass_outside_ball,
    mean,
    philox4x64,
    variance_total,
)

F = Fraction


def dset(rows, dim=None):
    return DigitSet.of(rows, dim)


# ---- equivalence defect ----


def test_defect_identical_zero():
    seq = builtin_sequence("jorgensen-pedersen")
    d = equivalence_defect(seq, seq, upto=12)
    assert all(t == 0 for t in d.terms)
    assert d.verdict == "converged-numerically"


def test_defect_planar_vs_reduced_terms():
    seq = builtin_sequence("example-2.6")
    d = equivalence_defect(seq, seq.reduced(), upto=30)
    for k, t in zip(d.indices, d.terms):
        assert t == F(1, (k + 1) ** 2)
    assert d.verdict == "converged-numerically"


def test_defect_symmetric():
    seq = builtin_sequence("example-2.6")
    red = seq.reduced()
    a = equivalence_defect(seq, red, upto=8)
    b = equivalence_defect(red, seq, upto=8)
    assert a.terms == b.terms


def test_defect_constant_replacement_diverges():
    base = dset([(0,), (1,)])
    other = dset([(0,), (2,)])  # one of 2 elements replaced at every level
    d = equivalence_defect(lambda k: base, lambda k: other, upto=24)
    assert all(t == F(1, 2) for t in d.terms)
    assert d.verdict == "diverging"


def test_defect_term_sizes_differ():
    # #(A'\A)/#A' = 1/3, #(A\A')/#A = 0 -> max is 1/3
    assert defect_term(dset([(0,), (1,)]), dset([(0,), (1,), (5,)])) == F(1, 3)


def test_defect_certified_with_tail_bound():
    seq = builtin_sequence("example-2.6")
    d = equivalence_defect(seq, seq.reduced(), upto=10, tail_bound=seq.defect_tail_bound)
    assert d.verdict == "certified"
    assert d.tail_bound == pytest.approx(1.0 / 11)


# ---- remainder split and series ----


def test_rbc_split_boundary_half_open():
    sp = rbc_split(IntMatrix.diagonal([4]), dset([(0,), (2,)]))
    assert sp.b1.vectors == ((0,),)
    assert sp.b2.vectors == ((2,),)  # 2/4 = 1/2 is outside [-1/2, 1/2)


def test_rbc_split_planar_far_digit():
    seq = builtin_sequence("example-2.6")
    for k in (1, 2, 5):
        sp = rbc_split(seq.matrix(k), seq.digits(k))
        far = (k + 8**k * math.factorial(k + 1), 0)
        assert sp.b2.vectors == (far,)
        assert len(sp.b1) == (k + 1) ** 2 - 1


def test_rbc_split_all_inside():
    sp = rbc_split(IntMatrix.diagonal([5, 5]), dset([(-2, 0), (0, 2), (1, -1)]))
    assert len(sp.b2) == 0
    assert sp.b1.vectors == ((-2, 0), (0, 2), (1, -1))


def test_rbc_split_matches_mod_reduce_fixed_points():
    rng = random.Random(424242)
    for _ in range(40):
        d = rng.choice([1, 2])
        diag = [rng.randrange(2, 9) for _ in range(d)]
        r = IntMatrix.diagonal(diag)
        rows = set()
        while len(rows) < 6:
            rows.add(tuple(rng.randrange(-12, 13) for _ in range(d)))
        b = dset(sorted(rows))
        sp = rbc_split(r, b)
        for v in b.vectors:
            fixed = mod_reduce(DigitSet.of([v], d), r).vectors[0] == v
            assert (v in sp.b1) == fixed


def test_rbc_split_general_matrix_agrees_with_diagonal_logic():
    # [[2,1],[0,2]] is triangular: exercises the exact Fraction path
    r = IntMatrix(((2, 1), (0, 2)))
    b = dset([(0, 0), (1, 0), (1, 1), (-1, -1), (2, 0)])
    sp = rbc_split(r, b)
    inv = fraction_inverse(r)
    half = F(1, 2)
    for v in b.vectors:
        inside = all(-half <= c < half for c in inv.matvec(v))
        assert (v in sp.b1) == inside
        assert (v in sp.b2) == (not inside)


def test_rbc_series_symmetric_family_all_zero():
    # digits ±1 against R=4 land at ±1/4, inside the half-open box
    d = rbc_series(builtin_sequence("bernoulli-quarter"), upto=15)
    assert all(t == 0 for t in d.terms)
    assert d.verdict == "converged-numerically"


def test_rbc_series_quarter_line_boundary_terms():
    # digit 2 sits on the excluded right edge (2/4 = 1/2) at every level,
    # so the remainder fraction is identically 1/2
    d = rbc_series(builtin_sequence("jorgensen-pedersen"), upto=15)
    assert all(t == F(1, 2) for t in d.terms)
    assert d.verdict == "diverging"


def test_rbc_series_planar_terms_exact():
    d = rbc_series(builtin_sequence("example-2.6"), upto=40)
    for k, t in zip(d.indices, d.terms):
        assert t == F(1, (k + 1) ** 2)
    want = sum(F(1, (k + 1) ** 2) for k in range(1, 41))
    assert d.partial_sums[-1] == want
    assert d.verdict == "converged-numerically"


def test_rbc_series_counts_match_split_on_random_instances():
    rng = random.Random(77)

    def gen(k):
        d = 2
        diag = [rng.randrange(2, 7), rng.randrange(2, 7)]
        rows = set()
        while len(rows) < 8:
            rows.add((rng.randrange(-15, 16), rng.randrange(-15, 16)))
        return IntMatrix.diagonal(diag), dset(sorted(rows)), None

    # freeze one realization so series and split see identical levels
    levels = [gen(k) for k in range(1, 13)]
    seq = from_generator(lambda k: levels[k - 1], 2, length=12)
    d = rbc_series(seq, upto=12)
    for k, t in zip(d.indices, d.terms):
        sp = rbc_split(levels[k - 1][0], levels[k - 1][1])
        assert t == F(len(sp.b2), 8)


def test_rbc_series_diverging_fixture():
    half_out = from_generator(
        lambda k: (IntMatrix.diagonal([4]), dset([(0,), (2,)]), None), 1
    )
    d = rbc_series(half_out, upto=20)
    assert all(t == F(1, 2) for t in d.terms)
    assert d.verdict == "diverging"


# ---- concentration sup / split / series ----


def test_pcc_sup_planar_closed_form():
    for k in (1, 2, 10, 100):
        r = IntMatrix.diagonal([8 * (k + 1), 8 * (k + 1)])
        assert abs(pcc_sup(r) - 1.0 / (4 * (k + 1))) < 1e-12


def test_pcc_sup_identity_and_rect():
    assert pcc_sup(IntMatrix.diagonal([1])) == pytest.approx(1.0, abs=1e-15)
    want = math.sqrt(2) * math.sqrt(0.25 + 1.0 / 64)
    assert pcc_sup(IntMatrix.diagonal([2, 8])) == pytest.approx(want, abs=1e-14)


def test_pcc_sup_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        pcc_sup(IntMatrix.diagonal([2] * 21))


def test_pcc_split_line_boundary():
    near, far = pcc_split(IntMatrix.diagonal([4]), dset([(0,), (2,)]), F(1, 4))
    assert near.vectors == ((0,),)  # |0|/4 = 0 < 3/8
    assert far.vectors == ((2,),)  # |2|/4 = 1/2 >= 3/8


def test_pcc_split_planar_far_atom_only():
    seq = builtin_sequence("example-2.6")
    for k in (1, 3, 6):
        near, far = pcc_split(seq.matrix(k), seq.digits(k), F(1, 4))
        assert far.vectors == ((k + 8**k * math.factorial(k + 1), 0),)
        assert len(near) == (k + 1) ** 2 - 1


def test_pcc_split_rejects_bad_l():
    with pytest.raises(ValidationError):
        pcc_split(IntMatrix.diagonal([4]), dset([(0,)]), 0)
    with pytest.raises(ValidationError):
        pcc_split(IntMatrix.diagonal([4]), dset([(0,)]), 1)


def test_pcc_membership_equals_vertex_brute_force():
    """The l1 shortcut must match the all-vertices sup exactly."""
    rng = random.Random(20260601)
    checked = 0
    while checked < 300:
        d = rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            r = IntMatrix.diagonal([rng.randrange(2, 17) for _ in range(d)])
        else:
            rows = tuple(
                tuple(rng.randrange(-16, 17) for _ in range(d)) for _ in range(d)
            )
            r = IntMatrix(rows)
            if r.det() == 0:
                continue
        v = tuple(rng.randrange(-16, 17) for _ in range(d))
        l = F(rng.randrange(1, 8), 8)
        near, far = pcc_split(r, DigitSet.of([v], d), l)
        c = fraction_inverse(r).matvec(v)
        thr = (1 - l) / 2
        sup = max(
            abs(sum(ci * si for ci, si in zip(c, signs)))
            for signs in cartesian((1, -1), repeat=d)
        )
        assert (v in near) == (sup < thr)
        checked += 1


def test_pcc_series_planar():
    seq = builtin_sequence("example-2.6")
    d = pcc_series(seq, F(1, 4), upto=25)
    for k, t in zip(d.indices, d.terms):
        assert t == F(1, (k + 1) ** 2)
    assert d.margin_ok
    assert d.min_margin == pytest.approx(1 - 0.25 - 1.0 / 8, abs=1e-12)  # k=1 is worst
    assert d.verdict == "converged-numerically"


def test_pcc_series_subsequence():
    seq = builtin_sequence("example-2.6")
    d = pcc_series(seq, F(1, 4), subseq=[2, 4, 8, 16])
    assert d.indices == (2, 4, 8, 16)
    assert d.terms == tuple(F(1, (k + 1) ** 2) for k in (2, 4, 8, 16))
    with pytest.raises(ValidationError):
        pcc_series(seq, F(1, 4), subseq=[3, 3])


def fraction_pcc_sup_sq(r):
    """The vertex maximum d * |R^{-T} xi|^2 by Fraction inversion."""
    inv_t = fraction_inverse(r).transpose()
    best = max(
        sum(x * x for x in inv_t.matvec(signs)) for signs in cartesian((1, -1), repeat=r.dim)
    )
    return r.dim * best


def test_pcc_sup_sq_matches_the_fraction_vertex_oracle():
    rng = random.Random(20261018)
    checked = 0
    while checked < 120:
        d = rng.choice([1, 2, 3])
        r = IntMatrix(tuple(tuple(rng.randrange(-9, 10) for _ in range(d)) for _ in range(d)))
        if r.det() == 0:
            continue
        assert conditions._pcc_sup_sq(r) == fraction_pcc_sup_sq(r)
        checked += 1


def test_diagonal_pcc_sup_sq_matches_the_vertex_enumeration():
    # the closed form d·Σ adj_ii²/det² against the vertices, with negative
    # and mixed-sign diagonals
    rng = random.Random(20261019)
    for _ in range(80):
        d = rng.choice([1, 2, 3, 4])
        r = IntMatrix.diagonal([rng.choice((-1, 1)) * rng.randrange(1, 40) for _ in range(d)])
        assert conditions._pcc_sup_sq(r) == fraction_pcc_sup_sq(r)
    r = IntMatrix.diagonal([-(2**40) - 3, 7, -5])
    assert conditions._pcc_sup_sq(r) == fraction_pcc_sup_sq(r)


def _wide_skew_level(k):
    r = IntMatrix(((3, 1), (1, -2)))  # det -7
    rows = [(0, 0), (1, 0), (0, 1), (1, 1), (2**40 + k, 3), (-5, 2**35)]
    return r, dset(rows[: 3 + k % 4]), None


@pytest.mark.parametrize(
    "seq, l",
    [
        (builtin_sequence("example-2.6"), F(1, 4)),
        (builtin_sequence("example-2.6").reduced(), F(3, 5)),
        (builtin_sequence("jorgensen-pedersen"), F(1, 4)),
        (from_generator(_wide_skew_level, 2, length=12), F(1, 3)),
    ],
)
def test_pcc_series_counts_equal_the_split(seq, l):
    d = pcc_series(seq, l, upto=12)
    for k, t in zip(d.indices, d.terms):
        b = seq.digits(k)
        near, far = pcc_split(seq.matrix(k), b, l)
        assert len(near) + len(far) == len(b)
        assert t == F(len(far), len(b))


def test_pcc_series_margin_fails_on_identity():
    seq = from_generator(
        lambda k: (IntMatrix.diagonal([1, 1]), dset([(0, 0), (1, 1)]), None), 2
    )
    d = pcc_series(seq, F(1, 4), upto=3)
    assert not d.margin_ok
    assert d.min_margin < 0


# ---- three-series ----


def test_three_series_quarter_line():
    seq = builtin_sequence("jorgensen-pedersen")
    s1, s2, s3 = three_series(seq, 1, upto=40)
    assert all(t == 0 for t in s1.terms)
    assert s1.verdict == "converged-numerically"
    for k, t in zip(s2.indices, s2.terms):
        assert t == (F(1, 4**k),)
    assert s2.partial_sums[-1] == ((1 - F(1, 4**40)) / 3,)
    assert s2.verdict == "converged-numerically"
    for k, t in zip(s3.indices, s3.terms):
        assert t == F(1, 16**k)
    assert s3.verdict == "converged-numerically"


def test_three_series_planar_tail_mass():
    seq = builtin_sequence("example-2.6")
    s1, s2, s3 = three_series(seq, 1, upto=6)
    for k, t in zip(s1.indices, s1.terms):
        assert t == F(1, (k + 1) ** 2)  # exactly the far atom's weight
    assert all(v >= 0 for v in s3.terms)


def test_three_series_mean_matches_untruncated_when_no_mass_moved():
    seq = builtin_sequence("bernoulli-quarter")
    s1, s2, _ = three_series(seq, 1, upto=10)
    assert all(t == 0 for t in s1.terms)
    # the truncation moved nothing, so the mean is the full mean: 0 by symmetry
    assert all(t == (F(0),) for t in s2.terms)


def test_three_series_variance_nonnegative_random():
    rng = random.Random(5150)
    levels = []
    for _ in range(8):
        diag = [rng.randrange(2, 6)]
        rows = sorted({(rng.randrange(-6, 7),) for _ in range(4)})
        levels.append((IntMatrix.diagonal(diag), dset(rows), None))
    seq = from_generator(lambda k: levels[k - 1], 1, length=8)
    _, _, s3 = three_series(seq, F(1, 2), upto=8)
    assert all(v >= 0 for v in s3.terms)


def fraction_three_series(seq, radii, upto):
    """Oracle: the per-level Fraction measures the integer kernel replaced.

    Returns {radius: (mass terms, mean terms, variance terms)}."""
    out = {r: ([], [], []) for r in radii}
    for k in range(1, upto + 1):
        inv = fraction_inverse(seq.prefix_matrix(k))
        atoms = [inv.matvec(v) for v in seq.digits(k)]
        w = F(1, len(atoms))
        eta = DiscreteMeasure.make([(a, w) for a in atoms], seq.dim)
        for r in radii:
            mass, means, var = out[r]
            mass.append(mass_outside_ball(eta, r))
            clipped = clip_to_ball(eta, r)
            means.append(mean(clipped))
            var.append(variance_total(clipped))
    return out


def _skew_level(k):
    # non-diagonal levels with negative determinant (-7 and -3): the prefix
    # determinant changes sign from level to level
    r = IntMatrix(((1, 2), (3, -1))) if k % 2 else IntMatrix(((2, 1), (1, -1)))
    rows = [(0, 0), (1, 0), (0, 1), (3, -2), (-4, 5), (2, 2), (1, -1), (-6, -1)]
    return r, dset(rows[: 3 + k % 6]), None


RADII = (F(1), F(1, 3), F(1, 100))


@pytest.mark.parametrize(
    "seq, upto",
    [
        (builtin_sequence("example-2.6"), 30),
        (builtin_sequence("jorgensen-pedersen"), 30),
        (builtin_sequence("bernoulli-quarter"), 30),
        (from_generator(_skew_level, 2, length=10), 10),
    ],
    ids=["example-2.6", "jorgensen-pedersen", "bernoulli-quarter", "negative-det"],
)
def test_three_series_matches_fraction_oracle(seq, upto):
    oracle = fraction_three_series(seq, RADII, upto)
    indices = list(range(1, upto + 1))
    masses = []
    for r in RADII:
        mass, mean, var = oracle[r]
        s1, s2, s3 = three_series(seq, r, upto)
        # scalar series: terms, partial sums, verdict and bound text
        assert s1 == conditions._finish_scalar_series("tail-mass", indices, mass, None)
        assert s3 == conditions._finish_scalar_series(
            "truncated-variance", indices, var, None
        )
        assert s2.terms == tuple(mean)
        sums, acc = [], (F(0),) * seq.dim
        for t in mean:
            acc = tuple(a + x for a, x in zip(acc, t))
            sums.append(acc)
        # the head of the partial sums and the last, as a report prints them
        head = conditions._PARTIALS_HEAD
        assert s2.partial_sums == tuple(sums[:head] + sums[head:][-1:])
        incs = [math.sqrt(float(sum(x * x for x in t))) for t in mean]
        settled = all(i < 1e-10 for i in incs[(3 * upto) // 4 :])
        assert (s2.verdict == "converged-numerically") == settled
        masses += mass
    assert min(masses) < 1 and max(masses) > 0  # atoms land inside and outside


def test_three_series_rejects_bad_radius():
    seq = builtin_sequence("jorgensen-pedersen")
    with pytest.raises(ValidationError):
        three_series(seq, 0, upto=3)


# ---- contractivity ----


def test_contractivity_planar_verified():
    rep = contractivity_report(builtin_sequence("example-2.6"), upto=12)
    assert rep.verdict == "verified"
    assert rep.at_level == 1
    assert abs(rep.max_norm_upper - 1.0 / 16) < 1e-12


def test_contractivity_quarter_line():
    rep = contractivity_report(builtin_sequence("jorgensen-pedersen"), upto=5)
    assert rep.verdict == "verified"
    assert abs(rep.max_norm_upper - 0.25) < 1e-12


def test_contractivity_unverified_tail_without_declaration():
    seq = from_generator(
        lambda k: (IntMatrix.diagonal([3]), dset([(0,), (1,)]), None), 1
    )
    rep = contractivity_report(seq, upto=4)
    assert rep.verdict == "unverified-tail"
    assert rep.max_norm_upper < 1


def test_contractivity_fails_on_identity():
    seq = from_generator(
        lambda k: (IntMatrix.diagonal([1]), dset([(0,), (1,)]), None), 1
    )
    rep = contractivity_report(seq, upto=3)
    assert rep.verdict == "fails"
    assert rep.max_norm_upper >= 1


# ---- coupling ----


def _exact_mismatch_by_grid(a: DigitSet, b: DigitSet) -> Fraction:
    """Integrate the coupling over the full midpoint grid (piecewise-constant
    regions have breakpoints on multiples of 1/(m n))."""
    m, n = len(a), len(b)
    cells = m * n
    bad = 0
    for t in range(cells):
        x = F(2 * t + 1, 2 * cells)
        xv, yv = coupling_eval(a, b, x)
        if xv != yv:
            bad += 1
    return F(bad, cells)


def test_coupling_exhaustive_small_pairs():
    pool = [
        dset([(0,)]),
        dset([(0,), (1,)]),
        dset([(0,), (2,)]),
        dset([(1,), (2,), (3,)]),
        dset([(0,), (1,), (2,), (5,)]),
        dset([(-1,), (1,), (4,), (6,), (9,)]),
    ]
    for a in pool:
        for b in pool:
            assert _exact_mismatch_by_grid(a, b) == defect_term(a, b)


def test_coupling_eval_singleton_vs_pair():
    a = dset([(7,)])
    b = dset([(7,), (9,)])
    # aligned on [0, 1/2): equal; filler (9,) on [1/2, 1)
    assert coupling_eval(a, b, F(1, 4)) == ((7,), (7,))
    assert coupling_eval(a, b, F(3, 4)) == ((7,), (9,))
    assert coupling_eval(b, a, F(3, 4)) == ((9,), (7,))  # swapped roles


def test_coupled_sample_identical_sets_no_mismatch():
    seq = builtin_sequence("jorgensen-pedersen")
    rep = coupled_sample(seq, seq, upto=6, draws=4000, rng_seed=99)
    assert all(lv.mismatches == 0 for lv in rep.levels)
    assert np.array_equal(rep.x_sums, rep.y_sums)


def test_coupled_sample_exact_probability_and_4sigma():
    a = dset([(0,)])
    b = dset([(0,), (3,)])
    n_draws = 20000
    rep = coupled_sample(lambda k: a, lambda k: b, upto=1, draws=n_draws, rng_seed=3)
    lv = rep.levels[0]
    assert lv.exact_p == F(1, 2)
    sigma = math.sqrt(0.25 / n_draws)
    assert abs(lv.empirical - 0.5) <= 4 * sigma


def test_coupled_sample_planar_level_terms():
    seq = builtin_sequence("example-2.6")
    red = seq.reduced()
    rep = coupled_sample(seq, red, upto=5, draws=20000, rng_seed=11)
    for lv in rep.levels:
        p = 1.0 / (lv.k + 1) ** 2
        assert lv.exact_p == F(1, (lv.k + 1) ** 2)
        sigma = math.sqrt(p * (1 - p) / lv.draws)
        assert abs(lv.empirical - p) <= 4 * sigma


def test_coupled_sample_deterministic():
    seq = builtin_sequence("example-2.6")
    red = seq.reduced()
    r1 = coupled_sample(seq, red, upto=3, draws=500, rng_seed=42)
    r2 = coupled_sample(seq, red, upto=3, draws=500, rng_seed=42)
    assert [lv.mismatches for lv in r1.levels] == [lv.mismatches for lv in r2.levels]
    assert np.array_equal(r1.x_sums, r2.x_sums)
    r3 = coupled_sample(seq, red, upto=3, draws=500, rng_seed=43)
    assert not np.array_equal(r1.x_sums, r3.x_sums)


_INT64_EDGES = (-(2**63), 2**63 - 1)


@pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64 - 1, 2**64, -(2**63) - 1])
def test_coupled_sample_refuses_seeds_outside_int64(seed):
    seq = builtin_sequence("jorgensen-pedersen")
    with pytest.raises(ValidationError, match="seed"):
        coupled_sample(seq, seq, upto=2, draws=10, rng_seed=seed)


@pytest.mark.parametrize("seed", _INT64_EDGES)
def test_coupled_sample_takes_the_int64_edges(seed):
    seq = builtin_sequence("example-2.6")
    rep = coupled_sample(seq, seq.reduced(), upto=2, draws=10, rng_seed=seed)
    assert rep.seed == seed and rep.x_sums.shape == (10, 2)


# the raw blocks of Random123's known-answer vectors for philox4x64 10:
# (counter, key, output), counter and key all 0, all ones, and pi's digits
_PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


@pytest.mark.parametrize("counter, key, want", _PHILOX_KAT)
def test_philox_block_matches_the_known_answers(counter, key, want):
    got = conditions._philox4x64(np.array([counter], dtype=np.uint64), key)
    assert tuple(got[0].tolist()) == want
    assert philox4x64(counter, key) == want


def test_philox_blocks_match_the_big_int_oracle():
    rng = random.Random(22)
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    word = lambda: rng.choice(edges) if rng.random() < 0.3 else rng.getrandbits(64)
    for _ in range(20):
        key = (word(), word())
        counters = [tuple(word() for _ in range(4)) for _ in range(rng.randint(1, 9))]
        got = conditions._philox4x64(np.array(counters, dtype=np.uint64), key)
        assert [tuple(row) for row in got.tolist()] == [philox4x64(c, key) for c in counters]


@pytest.mark.parametrize("seed", [0, 1, -1, *_INT64_EDGES, *range(20260816, 20260848)])
def test_level_draws_match_numpy_philox_integers(seed):
    for k in (1, 2, 40, 2**40):
        for n in (1, 2, 3, 4, 5, 4095, 20_000):  # every partial last block
            gen = np.random.Generator(np.random.Philox(key=[seed, k]))
            got = conditions._level_draws(seed, k, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, gen.integers(0, 2**53, n, dtype=np.int64)), (seed, k, n)


def _sample_level_loop(m, n, s, u):
    """Oracle: the per-draw Python-int loop the sampler once used for big sets."""
    q = 1 << 53
    x_idx = np.empty(len(u), dtype=np.int64)
    y_idx = np.empty(len(u), dtype=np.int64)
    mism = np.empty(len(u), dtype=bool)
    for j, uv in enumerate(u.tolist()):
        i0 = (uv * m) // q
        aligned = n * (uv * m - i0 * q) < m * q
        x_idx[j] = i0
        y_idx[j] = i0 if aligned else (uv * n) // q - i0 - 1 + m
        mism[j] = not (aligned and i0 < s)
    return x_idx, y_idx, mism


@pytest.mark.parametrize(
    "m, n",
    [(1, 1), (3, 5), (999, 1000), (1000, 1001), (1001, 40401), (40400, 40401),
     (7, 2**30 + 7), (2**30 - 3, 2**30), (2**30, 2**30 + 7), (40401, 40401), (2**30 + 7, 2**30 + 7)],
)
def test_sample_level_matches_python_loop_oracle(m, n):
    q = 1 << 53
    edges = [0, 1, q - 1] + [c * q // m + e for c in (1, m // 2) for e in (-1, 0, 1)]
    if m % 2:  # draws whose remainder u·m mod 2^53 sits at the alignment threshold
        t = m * q // n
        edges += [(r * pow(m, -1, q)) % q for r in (t - 1, t, t + 1)]
    edges = [e for e in edges if 0 <= e < q]
    u = np.concatenate([np.array(edges, dtype=np.int64), conditions._level_draws(123, 1, 3000)])
    s = m // 2
    fast = _sample_level(m, n, s, u)
    for f, g in zip(fast, _sample_level_loop(m, n, s, u)):
        assert np.array_equal(f, g)
    assert 0 <= fast[0].min() and fast[0].max() < m and fast[1].max() < n


def test_coupled_sample_partial_sums_track_levels():
    seq = builtin_sequence("jorgensen-pedersen")
    rep = coupled_sample(seq, seq, upto=4, draws=300, rng_seed=7)
    # each draw's partial sum is a sum of digits from {0,2} at 4 levels
    assert rep.x_sums.shape == (300, 1)
    vals = set(np.unique(rep.x_sums))
    assert vals <= {0.0, 2.0, 4.0, 6.0, 8.0}
