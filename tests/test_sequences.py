"""Level sequences: builtins, caching, prefixes, reduction."""
import math
from fractions import Fraction

import pytest

from convspectra.errors import IndexOutOfRange, ValidationError
from convspectra.exactmat import IntMatrix, invert, product_range
from convspectra import sequences
from convspectra.measures import scaled_atom_rows
from convspectra.sequences import (
    builtin_names,
    builtin_sequence,
    from_generator,
)
from convspectra.spectra import build_spectrum
from convspectra.triples import DigitSet, hadamard_check
from oracles import level_triple


def test_builtin_registry():
    assert builtin_names() == ("bernoulli-quarter", "example-2.6", "jorgensen-pedersen")
    with pytest.raises(ValidationError):
        builtin_sequence("no-such-family")


def test_quarter_line_sequence_levels():
    seq = builtin_sequence("jorgensen-pedersen")
    assert seq.dim == 1 and seq.length is None
    assert seq.declared_contractivity == Fraction(1, 4)
    for k in (1, 5, 40):
        assert seq.matrix(k).rows == ((4,),)
        assert seq.digits(k).vectors == ((0,), (2,))
        assert seq.spectrum_digits(k).vectors == ((0,), (1,))
    assert hadamard_check(*level_triple(seq, 3)) is True


def test_prefix_matrices_and_inverse():
    seq = builtin_sequence("jorgensen-pedersen")
    assert seq.prefix_matrix(0) == IntMatrix.identity(1)
    assert seq.prefix_matrix(3).rows == ((64,),)
    assert invert(seq.prefix_matrix(2)) == (16, IntMatrix(((1,),)))
    assert product_range(seq, 1, 3).rows == ((16,),)


def test_scaled_digit_atoms():
    seq = builtin_sequence("jorgensen-pedersen")
    for k, den in ((1, 2), (2, 8)):
        rows, got = scaled_atom_rows(seq.prefix_matrix(k), seq.digits(k))
        assert (rows.tolist(), got) == ([[0], [1]], den)


def test_level_index_errors():
    seq = builtin_sequence("jorgensen-pedersen", max_k=4)
    with pytest.raises(IndexOutOfRange):
        seq.matrix(0)
    with pytest.raises(IndexOutOfRange):
        seq.matrix(5)
    seq.matrix(4)  # in range


def test_planar_family_shapes():
    seq = builtin_sequence("example-2.6")
    for k in (1, 2, 3, 7):
        b = seq.digits(k)
        assert len(b) == (k + 1) ** 2
        r = seq.matrix(k)
        assert r.rows == ((8 * (k + 1), 0), (0, 8 * (k + 1)))
        l = seq.spectrum_digits(k)
        assert len(l) == (k + 1) ** 2
        # grid part present, corner (k, 0) swapped for the far digit
        assert (k, 0) not in b
        far = (k + 8**k * math.factorial(k + 1), 0)
        assert far in b
        assert (0, k) in b and (k, k) in b


def test_far_digits_out_of_order_match_the_factorial():
    # the far digit carries the last factorial forward: in order, repeated,
    # backwards, and past gaps it must equal the closed form
    for k in (1, 2, 3, 3, 40, 41, 7, 0, 1, 500, 499, 501, 2, 1000, 1001):
        assert sequences._far_digit(k) == (k + 8**k * math.factorial(k + 1), 0)


def test_planar_family_level_one_exact():
    seq = builtin_sequence("example-2.6")
    assert seq.digits(1).vectors == ((0, 0), (0, 1), (1, 1), (17, 0))
    assert seq.spectrum_digits(1).vectors == ((-8, -8), (-8, 0), (0, -8), (0, 0))
    assert hadamard_check(*level_triple(seq, 1))


def test_planar_family_digit_order_is_sorted():
    seq = builtin_sequence("example-2.6")
    for k in (1, 2, 5):
        v = seq.digits(k).vectors
        assert list(v) == sorted(v)


def test_planar_family_spectra_are_unitary_through_k6():
    seq = builtin_sequence("example-2.6")
    for k in range(1, 7):
        assert hadamard_check(*level_triple(seq, k))


def test_planar_family_defect_metadata():
    seq = builtin_sequence("example-2.6")
    assert seq.defect_tail_bound(100) == Fraction(1, 100)


def test_reduced_planar_family_restores_grid():
    red = builtin_sequence("example-2.6").reduced()
    for k in (1, 2, 4):
        grid = tuple((x, y) for x in range(k + 1) for y in range(k + 1))
        assert red.digits(k).vectors == tuple(sorted(grid))
    assert red.name.endswith("+reduced")
    # reduced levels still pair with the same spectra
    assert hadamard_check(*level_triple(red, 2))


def test_bernoulli_family():
    seq = builtin_sequence("bernoulli-quarter")
    assert seq.digits(9).vectors == ((-1,), (1,))
    assert hadamard_check(*level_triple(seq, 9))
    assert seq.declared_contractivity == Fraction(1, 4)


def test_inline_levels_from_a_generator():
    ts = [
        (IntMatrix.diagonal([4]), DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (1,)])),
        (IntMatrix.diagonal([2]), DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), (1,)])),
    ]
    assert all(hadamard_check(*t) for t in ts)
    seq = from_generator(lambda k: ts[k - 1], 1, length=len(ts), name="two-step")
    assert seq.length == 2
    assert seq.matrix(2).rows == ((2,),)
    assert seq.prefix_matrix(2).rows == ((8,),)
    with pytest.raises(IndexOutOfRange):
        seq.digits(3)


def test_generator_validation():
    bad = from_generator(
        lambda k: (IntMatrix.diagonal([3]), DigitSet.of([(0,)]), None), 1
    )
    with pytest.raises(ValidationError):
        bad.digits(1)
    loose = from_generator(
        lambda k: (IntMatrix.diagonal([3]), DigitSet.of([(0,)]), DigitSet.of([(0,)])),
        1,
        validate_digits=False,
    )
    assert len(loose.digits(1)) == 1
    assert hadamard_check(*level_triple(loose, 1)) is True  # 1x1 identity is unitary

    singular = from_generator(
        lambda k: (IntMatrix(((0,),)), DigitSet.of([(0,), (1,)]), None), 1
    )
    with pytest.raises(ValidationError):
        singular.matrix(1)

    wrong_dim = from_generator(
        lambda k: (IntMatrix.diagonal([2, 2]), DigitSet.of([(0, 0), (1, 1)]), None), 1
    )
    with pytest.raises(ValidationError):
        wrong_dim.matrix(1)


def test_missing_spectrum_digits_raise_on_triple():
    seq = from_generator(
        lambda k: (IntMatrix.diagonal([4]), DigitSet.of([(0,), (2,)]), None), 1
    )
    assert seq.spectrum_digits(1) is None
    with pytest.raises(ValidationError, match="level 1 has no spectrum digit set"):
        build_spectrum(seq, [1])


def test_rebuilt_levels_keep_their_first_matrix_instance(monkeypatch):
    from convspectra import sequences

    monkeypatch.setattr(sequences, "_DIGIT_CACHE_LIMIT", 5)  # levels from 2 on are rebuilt
    seq = builtin_sequence("example-2.6")
    r2, b2 = seq.matrix(2), seq.digits(2)
    first = invert(r2)
    seq.digits(3)  # evicts level 2
    again = seq.digits(2)
    assert again is not b2 and again == b2
    assert seq.matrix(2) is r2 and invert(seq.matrix(2)) is first
