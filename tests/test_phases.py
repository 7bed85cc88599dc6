"""Exact phase reduction against an independent Python-int oracle."""
import numpy as np
import pytest

from convspectra import _phases
from convspectra._phases import exact_phase_matrix
from convspectra.exactmat import invert
from convspectra.sequences import builtin_sequence
from convspectra.triples import hadamard_check


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
    """The operands hadamard_check hands to the phase kernel at level k."""
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
    seq = builtin_sequence("example-2.6")
    levels = range(1, 25)
    got = [hadamard_check(seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)) for k in levels]
    # the same check with every phase table from the Python-int oracle
    monkeypatch.setattr(_phases, "exact_phase_matrix", oracle_phases)
    want = [hadamard_check(seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)) for k in levels]
    assert [r.max_deviation for r in got] == [r.max_deviation for r in want]
    assert all(r.ok for r in got)


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
