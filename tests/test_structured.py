"""Structured digit sets (axis products with removed and added rows) against
their explicit twins: the same set, and the same result from every kernel
that reads the axes instead of the rows."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from convspectra.conditions import (
    SERIES_CHECKS,
    _aligned_tables,
    _ball_moments,
    _float_rows,
    _table_rows,
    check_series,
    coupled_sample,
    three_series,
)
from convspectra.errors import CongruentDigits
from convspectra.exactmat import IntMatrix, invert
from convspectra.sequences import TripleSequence, builtin_sequence, from_generator
from convspectra.triples import (
    DigitSet,
    _box,
    axis_numerators,
    box_count,
    check_reduction,
    cone_count,
    hadamard_check,
    mod_reduce,
    numerators,
)

H = 1 << 31  # the int64 headroom of DigitSet.rows
SKEW = IntMatrix(((4, 1), (0, 4)))


def explicit(b: DigitSet) -> DigitSet:
    """The explicit twin of a digit set: its rows, without the structure."""
    return DigitSet(b.dim, b.rows)


def twin(seq: TripleSequence) -> TripleSequence:
    """The same sequence with every digit set explicit."""

    def gen(k):
        r, b, l = seq._gen(k)
        l = l() if callable(l) else l
        return r, explicit(b), None if l is None else explicit(l)

    return TripleSequence(
        gen,
        seq.dim,
        length=seq.length,
        declared_contractivity=seq.declared_contractivity,
        name=seq.name,
        defect_tail_bound=seq.defect_tail_bound,
    )


def skew_sequence() -> TripleSequence:
    """Structured digit sets under the non-diagonal R = [[4, 1], [0, 4]]:
    every kernel takes the explicit path."""

    def gen(k):
        b = DigitSet._product([[0, 1, 2 + k], [0, 1]], removed=[(1, 1)], added=[(5, 5 + k), (2**40, k)])
        return SKEW, b, DigitSet._product([[0, 1], [0, 2]])

    return from_generator(gen, 2, declared_contractivity=Fraction(1, 3), name="skew")


BUILTINS = ("jorgensen-pedersen", "bernoulli-quarter", "example-2.6")
LEVELS = (1, 2, 3, 4, 5, 7, 12, 50, 199, 200)


def assert_same_set(s: DigitSet, e: DigitSet):
    assert s.product is not None and e.product is None
    assert s == e and e == s and hash(s) == hash(e)
    assert len(s) == len(e) == len(e.vectors)
    assert s.vectors == e.vectors
    assert s.rows.tolist() == e.rows.tolist() and s.rows.dtype == e.rows.dtype
    assert s.rows.flags.f_contiguous and not s.rows.flags.writeable


def same_congruence(run_structured, run_explicit):
    """Both calls return, or both raise CongruentDigits with one message."""
    messages = []
    for run in (run_structured, run_explicit):
        try:
            run()
            messages.append(None)
        except CongruentDigits as err:
            messages.append(str(err))
    assert messages[0] == messages[1]
    return messages[0]


# ---- the set itself ----


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("k", LEVELS)
def test_builtin_levels_equal_their_twins(name, k):
    seq = builtin_sequence(name)
    r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
    assert_same_set(b, explicit(b))
    assert_same_set(l, explicit(l))
    red = mod_reduce(b, r)
    assert red.product is not None
    assert_same_set(red, mod_reduce(explicit(b), r))
    # the counts and the reduction check read the axes alone
    an, nums = axis_numerators(r, b), numerators(r, explicit(b))
    assert an is not None and an.den == nums[0]
    assert box_count(an) == box_count(nums)
    for thr in (Fraction(3, 8), Fraction(1, 2), Fraction(1, 1000), Fraction(7, 5)):
        assert cone_count(an, thr) == cone_count(nums, thr)
    check_reduction(r, b, an)
    check_reduction(r, explicit(b), nums)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("k", (1, 2, 3, 12, 50, 200))
def test_hadamard_check_reads_the_axes_as_the_rows_give_them(name, k):
    seq = builtin_sequence(name)
    r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
    got = hadamard_check(r, b, l)
    assert "rows" not in b.__dict__ and "rows" not in l.__dict__
    assert got == hadamard_check(r, explicit(b), explicit(l))
    assert got.ok


def random_structured(rng, dim):
    axes = [sorted(rng.sample(range(-9, 10), rng.randint(1, 4))) for _ in range(dim)]
    rows = [tuple(rng.choice(a) for a in axes) for _ in range(rng.randint(0, 4))]
    added = [tuple(rng.randint(-12, 12) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
    added += [tuple(rng.choice((-1, 1)) * rng.randint(H - 2, 2**70) for _ in range(dim))][: rng.randint(0, 1)]
    added += rows[: rng.randint(0, len(rows))]  # removed, then put back
    want = set(itertools.product(*axes)) - set(rows) | set(added)
    return DigitSet._product(axes, rows, added), want


@pytest.mark.parametrize("seed", range(40))
def test_random_structured_sets_equal_their_twins(seed):
    rng = random.Random(seed)
    dim = 1 + seed % 3
    s, want = random_structured(rng, dim)
    if s.product is None or not want:
        return
    assert s.vectors == tuple(sorted(want)) == DigitSet.of(want).vectors
    assert_same_set(s, explicit(s))
    assert s == DigitSet.of(want) and hash(s) == hash(DigitSet.of(want))
    # without added rows, every position decodes to its digit
    if not s.product.added:
        where = s._locate(np.arange(len(s)))
        got = [tuple(int(a[w[i]]) for a, w in zip(s.product.axes, where)) for i in range(len(s))]
        assert tuple(got) == s.vectors
    # a set's table against itself: all shared, gathered from the axes
    ax, ay, shared, _ = _aligned_tables(s, s)
    assert shared == len(s) and ax[0].product is not None and not len(ax[1])
    index = np.random.default_rng(seed).integers(0, len(s), size=2 * len(s) + 1)
    for inv in (None, invert(IntMatrix.diagonal([3] * dim)), invert(IntMatrix.diagonal([-7, 2, 5][:dim]))):
        assert np.array_equal(_table_rows(ax, inv, index), _float_rows(explicit(s), inv)[index])
        assert np.array_equal(_table_rows(ax, inv, index[:2]), _float_rows(explicit(s), inv)[index[:2]])
    # the reductions, counts and congruence messages of both forms agree
    for diag in ([5] * dim, [7, -3, 4][:dim], [2] * dim, [2**40 + 1] * dim):
        r = IntMatrix.diagonal(diag)
        an, nums = axis_numerators(r, s), numerators(r, explicit(s))
        assert box_count(an) == box_count(nums)
        assert cone_count(an, Fraction(1, 3)) == cone_count(nums, Fraction(1, 3))
        reduced = []
        same_congruence(lambda: reduced.append(mod_reduce(s, r)), lambda: reduced.append(mod_reduce(explicit(s), r)))
        if reduced:
            assert reduced[0] == reduced[1] and reduced[0].vectors == reduced[1].vectors
        same_congruence(lambda: check_reduction(r, s, an), lambda: check_reduction(r, explicit(s), nums))


def test_congruent_axes_and_exceptions_raise_mod_reduce_messages():
    r = IntMatrix.diagonal([6, 6])
    cases = [
        DigitSet._product([[0, 6], [0, 1]]),  # an axis with two congruent values
        DigitSet._product([[0, 1, 2], [0, 1, 2]], added=[(6, 1)]),  # lands on (0, 1)
        DigitSet._product([[0, 1], [0, 1]], removed=[(0, 0)], added=[(6, 0), (-6, 12)]),  # two added meet
    ]
    for b in cases:
        message = same_congruence(lambda: mod_reduce(b, r), lambda: mod_reduce(explicit(b), r))
        assert message is not None and "are congruent mod R·Z^d" in message
        an, nums = axis_numerators(r, b), numerators(r, explicit(b))
        assert same_congruence(lambda: check_reduction(r, b, an), lambda: check_reduction(r, explicit(b), nums)) == message
    # congruent axis values whose rows are removed: no digits collide
    b = DigitSet._product([[0, 6], [0]], removed=[(6, 0)], added=[(1, 7)])
    assert mod_reduce(b, r) == mod_reduce(explicit(b), r) == DigitSet.of([(0, 0), (1, 1)])
    check_reduction(r, b, axis_numerators(r, b))


def test_closed_forms_on_the_axes_match_the_rows():
    # Diagonals from 2 to 60 leave some axes whole in the box [-1/2, 1/2)^d
    # and some partly outside it, and the cones and balls take in every
    # product row or only some, so the closed forms on the axes' ends and
    # the per-axis code both run; exceptions lie inside and outside the box.
    rng = random.Random(20261019)
    whole = partial = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        axes = [sorted(rng.sample(range(-12, 13), rng.randint(1, 5))) for _ in range(dim)]
        removed = [tuple(rng.choice(a) for a in axes) for _ in range(rng.randint(0, 3))]
        added = [tuple(rng.randint(-40, 40) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        b = DigitSet._product(axes, removed, added)
        if not len(b):
            continue
        r = IntMatrix.diagonal([rng.choice((-1, 1)) * rng.randint(2, 60) for _ in range(dim)])
        an, nums = axis_numerators(r, b), numerators(r, explicit(b))
        lo, hi = _box(an.den)
        if all(lo <= least and most <= hi for least, most in an.ends):
            whole += 1
        else:
            partial += 1
        assert box_count(an) == box_count(nums)
        for thr in (Fraction(1, 50), Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(dim, 1)):
            assert cone_count(an, thr) == cone_count(nums, thr)
        # balls |y/den| <= p/q, from ones that hold few product rows to ones
        # that hold them all
        for p, q in ((1, 9), (1, 2), (2, 1), (dim * 13, 1)):
            q2, limit = q * q, (p * an.den) ** 2
            assert _ball_moments(an, q2, limit) == _ball_moments(nums, q2, limit)
        reduced = []
        same_congruence(lambda: reduced.append(mod_reduce(b, r)), lambda: reduced.append(mod_reduce(explicit(b), r)))
        if reduced:
            assert reduced[0] == reduced[1] and reduced[0].vectors == reduced[1].vectors
        same_congruence(lambda: check_reduction(r, b, an), lambda: check_reduction(r, explicit(b), nums))
    assert whole > 50 and partial > 50


def test_congruent_digits_on_axes_inside_the_box_raise_mod_reduce_messages():
    # every axis value of {0..3}² lies in the box of diag(20, 20), so only
    # the added rows are reduced
    r = IntMatrix.diagonal([20, 20])
    axes = [[0, 1, 2, 3], [0, 1, 2, 3]]
    cases = [
        DigitSet._product(axes, added=[(21, 1)]),  # lands on (1, 1)
        DigitSet._product(axes, removed=[(1, 0)], added=[(21, 0), (41, 0)]),  # both land on (1, 0)
        DigitSet._product(axes, removed=[(3, 3)], added=[(-17, 23), (2, -18)]),  # (3, 3), then (2, 2)
    ]
    for b in cases:
        message = same_congruence(lambda: mod_reduce(b, r), lambda: mod_reduce(explicit(b), r))
        assert message is not None and "are congruent mod R·Z^d" in message
        an, nums = axis_numerators(r, b), numerators(r, explicit(b))
        assert same_congruence(lambda: check_reduction(r, b, an), lambda: check_reduction(r, explicit(b), nums)) == message
    # an added row that restores a removed one, and one inside the box
    b = DigitSet._product(axes, removed=[(1, 0), (2, 2)], added=[(21, 0), (-5, 4)])
    assert mod_reduce(b, r) == mod_reduce(explicit(b), r)
    check_reduction(r, b, axis_numerators(r, b))


@pytest.mark.parametrize("k", (29, 30, 31, 32))
@pytest.mark.parametrize("draws", (900, 1000, 1100))
def test_sampler_gathers_the_float_rows_on_both_sides_of_the_draw_count(k, draws):
    # example-2.6 tables hold (k + 1)² shared digits and one own digit:
    # at 1000 draws, no more digits than draws up to k = 30 and more from
    # k = 31 on; 900 and 1100 draws move that crossover
    seq = builtin_sequence("example-2.6")
    a, b = seq.digits(k), seq.reduced().digits(k)
    index = np.random.default_rng(k).integers(0, len(a), size=draws)
    for inv in (None, invert(seq.prefix_matrix(k)), invert(IntMatrix.diagonal([-3, 5]))):
        for table in _aligned_tables(a, b)[:2]:
            want = np.concatenate([_float_rows(explicit(p), inv) for p in table])
            assert np.array_equal(_table_rows(table, inv, index), want[index])
    # no shared digits: the own rows alone, fewer or more than the draws
    own = DigitSet._product([range(k + 1), range(k + 1)])
    for n in (10, 2 * len(own)):
        index = np.random.default_rng(n).integers(0, len(own), size=n)
        got = _table_rows((DigitSet(2, np.empty((0, 2), dtype=np.int64)), own), None, index)
        assert np.array_equal(got, _float_rows(explicit(own))[index])


# ---- the sequence kernels ----


@pytest.mark.parametrize("name", BUILTINS)
def test_series_walk_matches_the_explicit_twin_to_level_200(name):
    seq = builtin_sequence(name)
    got = check_series(seq, SERIES_CHECKS, 200, pcc_l="1/3")
    assert got == check_series(twin(builtin_sequence(name)), SERIES_CHECKS, 200, pcc_l="1/3")


def test_skew_sequence_takes_the_explicit_path_with_the_same_results():
    seq = skew_sequence()
    names = ["rbc", "pcc", "contractivity"]
    assert check_series(seq, names, 6) == check_series(twin(seq), names, 6)
    assert three_series(seq, 1, 6) == three_series(twin(seq), 1, 6)
    for k in range(1, 4):
        r, b, l = SKEW, seq.digits(k), seq.spectrum_digits(k)
        assert axis_numerators(r, b) is None
        assert hadamard_check(r, b, l) == hadamard_check(r, explicit(b), explicit(l))
        message = same_congruence(lambda: mod_reduce(b, r), lambda: mod_reduce(explicit(b), r))
        assert message is None or "congruent" in message
    a = coupled_sample(seq, twin(seq), 5, 300, 9, scale_by=lambda k: invert(SKEW))
    b = coupled_sample(twin(seq), twin(seq), 5, 300, 9, scale_by=lambda k: invert(SKEW))
    assert np.array_equal(a.x_sums, b.x_sums) and np.array_equal(a.y_sums, b.y_sums)


@pytest.mark.parametrize("name, upto", [("jorgensen-pedersen", 200), ("bernoulli-quarter", 200), ("example-2.6", 40)])
def test_three_series_matches_the_explicit_twin(name, upto):
    for radius in (1, Fraction(1, 3), Fraction(5, 2)):
        got = three_series(builtin_sequence(name), radius, upto)
        assert got == three_series(twin(builtin_sequence(name)), radius, upto)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("scaled", (True, False))
def test_coupled_sample_matches_the_explicit_twin(name, scaled):
    seq = builtin_sequence(name)
    scale = (lambda k: invert(seq.prefix_matrix(k))) if scaled else None
    got = coupled_sample(seq, seq.reduced(), 30, 400, 7, scale_by=scale)
    plain = twin(builtin_sequence(name))
    want = coupled_sample(plain, plain.reduced(), 30, 400, 7, scale_by=scale)
    assert got.levels == want.levels and got.exact_partials == want.exact_partials
    assert np.array_equal(got.x_sums, want.x_sums) and np.array_equal(got.y_sums, want.y_sums)


@pytest.mark.parametrize("k", (1, 6, 40, 200))
def test_aligned_tables_and_rows_match_the_explicit_twin(k):
    seq = builtin_sequence("example-2.6")
    a, b = seq.digits(k), seq.reduced().digits(k)
    ax, ay, s, swapped = _aligned_tables(a, b)
    ex, ey, es, eswapped = _aligned_tables(explicit(a), explicit(b))
    assert (s, swapped) == (es, eswapped)
    assert ax[0].product is not None
    for got, want in ((ax, ex), (ay, ey)):
        assert [p.vectors for p in got] == [p.vectors for p in want]
    rng = np.random.default_rng(k)
    index = rng.integers(0, len(a), size=3 * len(a) if k < 40 else 2000)
    # raw and skew-scaled rows of the far digit pass the float range past
    # level 150
    for inv in (invert(seq.prefix_matrix(k)),) + ((None, invert(SKEW)) if k < 150 else ()):
        for got, want in ((ax, ex), (ay, ey)):
            rows = np.concatenate([_float_rows(p, inv) for p in want])
            assert np.array_equal(_table_rows(got, inv, index), rows[index])


def test_builtin_kernels_never_build_rows():
    seq = builtin_sequence("example-2.6")
    check_series(seq, SERIES_CHECKS, 30)
    three_series(seq, 1, 30)
    coupled_sample(seq, seq.reduced(), 30, 200, 1, scale_by=lambda k: invert(seq.prefix_matrix(k)))
    for k in (1, 15, 30):
        for b in (seq.digits(k), seq.reduced().digits(k)):
            assert b.product is not None and "rows" not in b.__dict__


def test_negative_diagonals_and_wide_exceptions_match_the_explicit_twin():
    def gen(k):
        r = IntMatrix.diagonal([-3, 5 + k % 2])
        b = DigitSet._product([[-1, 0, 1], [0, 1, 2, 3 + k]], removed=[(0, 1)], added=[(3, 1), (2**45 + k, -7)])
        return r, b, None

    seq = from_generator(gen, 2)
    for radius in (1, Fraction(7, 3), Fraction(1, 5)):
        assert three_series(seq, radius, 9) == three_series(twin(seq), radius, 9)
    names = ["rbc", "pcc", "contractivity"]
    assert check_series(seq, names, 6) == check_series(twin(seq), names, 6)
    # (-1, 0) and (-1, 5) are congruent under diag(-3, 5) at level 2
    message = same_congruence(
        lambda: check_series(seq, SERIES_CHECKS, 6), lambda: check_series(twin(seq), SERIES_CHECKS, 6)
    )
    assert message is not None and "(-1, 5)" in message
    scale = lambda k: invert(seq.prefix_matrix(k))  # noqa: E731
    got, want = coupled_sample(seq, seq, 6, 500, 3, scale_by=scale), coupled_sample(twin(seq), twin(seq), 6, 500, 3, scale_by=scale)
    assert np.array_equal(got.x_sums, want.x_sums) and np.array_equal(got.y_sums, want.y_sums)
