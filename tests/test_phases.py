"""Exact phase reduction against an independent Python-int oracle."""
import numpy as np
import pytest

from convspectra import _phases
from convspectra._phases import exact_phase_matrix
from convspectra.exactmat import invert
from convspectra.sequences import builtin_sequence
from float_gram import float_deviation


def oracle_phases(nums_a, den_a, nums_b, den_b):
    """frac(a·b / m) with m = den_a·den_b, one Python-int product per entry.
    Like the kernel, it takes int tuples or integer arrays."""
    m = den_a * den_b
    nums_a, nums_b = (n.tolist() if isinstance(n, np.ndarray) else n for n in (nums_a, nums_b))
    return np.array(
        [[sum(x * y for x, y in zip(ra, rb)) % m / m for rb in nums_b] for ra in nums_a],
        dtype=np.float64,
    )


def hadamard_inputs(seq, k):
    """The phase kernel's operands for the Gram of level k: L, and R⁻¹B as
    integer rows over |det R|."""
    r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
    det, adj = invert(r)
    sign = 1 if det > 0 else -1
    nums = [tuple(sign * x for x in adj.matvec(v)) for v in b.vectors]
    return list(l.vectors), 1, nums, abs(det)


def assert_bit_identical(args):
    got = exact_phase_matrix(*args)
    want = oracle_phases(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 5, 12, 24])
def test_example_2_6_hadamard_phases_match_oracle(k):
    args = hadamard_inputs(builtin_sequence("example-2.6"), k)
    max_l, max_b = (max(abs(x) for row in rows for x in row) for rows in args[::2])
    assert (2 * max_l * max_b >= 2**62) == (k >= 12)  # the far digit leaves int64
    assert_bit_identical(args)


def test_negative_operands_are_reduced_exactly():
    nums_a = [(-(3**50), 7), (5, -(2**70)), (-1, -1), (0, 0)]
    nums_b = [(1, -3), (-4, 9), (2**65 + 1, -(5**40))]
    assert_bit_identical((nums_a, 6, nums_b, 35))


def test_modulus_too_large_to_reduce_keeps_the_big_int_path():
    nums_a = [(3**45, -2), (-7, 2**64)]
    nums_b = [(5, 11), (-(2**63), 3)]
    den_a, den_b = 2**40, 3**20
    assert 2 * (den_a * den_b - 1) ** 2 >= 2**62
    assert_bit_identical((nums_a, den_a, nums_b, den_b))


def test_an_all_zero_operand_gives_zeros_beside_a_wide_one():
    # the bound d·max|a|·max|b| is 0 here, yet the wide operand cannot be cast
    wide, zero = np.array([[2**70, 1]], dtype=object), np.array([[0, 0]])
    for args in ((wide, 3, zero, 5), (zero, 5, wide, 3)):
        assert np.array_equal(exact_phase_matrix(*args), np.zeros((1, 1)))
    assert_bit_identical(([(2**70, 1), (-(2**80), 3)], 3, [(0, 0)] * 3, 5))


def test_sub_resolution_phases_stay_zeroed():
    nums_a = [(3, -5), (1, 1)]
    nums_b = [(7, 2), (-4, 9)]
    den_a, den_b = 2**600, 3**400
    got = exact_phase_matrix(nums_a, den_a, nums_b, den_b)
    assert np.array_equal(got, np.zeros((2, 2)))
    # the true phases sit within double resolution of an integer
    want = oracle_phases(nums_a, den_a, nums_b, den_b)
    assert np.all(np.minimum(want, 1 - want) < 1e-250)


def test_hadamard_deviations_unchanged_by_reduction(monkeypatch):
    # the float walk of the Hadamard levels
    seq = builtin_sequence("example-2.6")
    levels = range(1, 25)
    got = [float_deviation(seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)) for k in levels]
    # the same walk with every phase table from the Python-int oracle
    monkeypatch.setattr(_phases, "exact_phase_matrix", oracle_phases)
    want = [float_deviation(seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)) for k in levels]
    assert got == want
    assert all(dev <= 1e-9 for dev in got)


def as_array(rows, dtype):
    """rows as an (n, d) array: int64 when asked for and every entry fits."""
    if dtype is np.int64:
        try:
            return np.array(rows, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(rows, dtype=object)


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize(
    "case", ["hadamard-5", "hadamard-24", "negative", "big-modulus", "sub-resolution"]
)
def test_integer_arrays_give_the_tuple_results(case, dtype):
    if case.startswith("hadamard"):
        args = hadamard_inputs(builtin_sequence("example-2.6"), int(case.split("-")[1]))
    elif case == "negative":
        args = ([(-(3**50), 7), (5, -(2**70)), (-1, -1)], 6, [(1, -3), (2**65 + 1, -(5**40))], 35)
    elif case == "big-modulus":
        args = ([(3**45, -2), (-7, 2**64)], 2**40, [(5, 11), (-(2**63), 3)], 3**20)
    else:
        args = ([(3, -5), (1, 1)], 2**600, [(7, 2), (-4, 9)], 3**400)
    nums_a, den_a, nums_b, den_b = args
    want = exact_phase_matrix(*args)
    got = exact_phase_matrix(as_array(nums_a, dtype), den_a, as_array(nums_b, dtype), den_b)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    mixed = exact_phase_matrix(nums_a, den_a, as_array(nums_b, dtype), den_b)
    assert np.array_equal(mixed, want)


def _distinct_oracle(rows):
    """Sorted distinct rows as tuples and each row's index among them."""
    tuples = [tuple(r) for r in rows]
    distinct = sorted(set(tuples))
    at = {t: i for i, t in enumerate(distinct)}
    return distinct, [at[t] for t in tuples]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["object past 2^63", "int64 box past 2^63"])
def test_distinct_rows_without_an_int64_key_sort_by_their_columns(kind, dim):
    rng = np.random.default_rng(63 + dim)
    if kind == "int64 box past 2^63":
        # int64 entries whose bounding box has 2^63 points or more: no key
        picks = rng.integers(-(2**62), 2**62, size=(40, dim))
        rows = picks[rng.integers(0, 40, size=300)]
        rows[:, 0] = np.where(rng.random(300) < 0.5, rows[:, 0], -rows[:, 0])
        rows[0, 0], rows[1, 0] = -(2**63), 2**63 - 1
        assert _phases._lex_key(rows) is None
    else:
        small = rng.integers(-3, 4, size=(300, dim)).tolist()
        big = [[v * 2**70 + 1 if v % 2 else -v * 3**45 for v in r] for r in small[:60]]
        rows = np.array(small + big + small[:30], dtype=object)
        rows[5, dim - 1] = -(2**64)
    distinct, inverse = _phases._distinct_rows(rows)
    want, want_inverse = _distinct_oracle(rows.tolist())
    assert distinct.dtype == rows.dtype and distinct.shape == (len(want), dim)
    assert [tuple(r) for r in distinct.tolist()] == want
    assert inverse.tolist() == want_inverse
    if rows.dtype != object:
        # the np.unique(axis=0) result these rows took before
        old, old_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, old) and np.array_equal(inverse, old_inverse.reshape(-1))
    assert np.array_equal(distinct[inverse], rows)


def test_distinct_rows_of_no_rows_are_empty():
    for dtype in (np.int64, object):
        distinct, inverse = _phases._distinct_rows(np.zeros((0, 2), dtype=dtype))
        assert distinct.shape == (0, 2) and distinct.dtype == dtype and len(inverse) == 0


@pytest.mark.parametrize("kind", ["int64 keyed", "sorted and distinct", "object past 2^63", "int64 box past 2^63"])
def test_distinct_is_the_first_of_distinct_rows(kind):
    rng = np.random.default_rng(17)
    rows = rng.integers(-5, 6, size=(500, 2))
    if kind == "sorted and distinct":
        rows = np.unique(rows, axis=0)
    elif kind == "object past 2^63":
        rows = rows.astype(object) * 2**70
    elif kind == "int64 box past 2^63":
        rows = rows * 2**60
    distinct = _phases._distinct(rows)
    want = _phases._distinct_rows(rows)[0]
    assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
    assert [tuple(r) for r in distinct.tolist()] == _distinct_oracle(rows.tolist())[0]
