"""Level sequences (R_k, B_k, L_k) feeding the truncation machinery.

A TripleSequence hands out, for each level k ≥ 1, an expanding integer matrix
R_k, a digit set B_k, and (optionally) a spectrum digit set L_k.  Sequences
come from explicit lists, user generator functions, or the builtin registry.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import IndexOutOfRange, ValidationError
from .exactmat import IntMatrix
from .triples import DigitSet, mod_reduce

# Budget on the digits of all cached levels together: a level is cached only
# while it fits next to those already held, and every other level is rebuilt
# on demand, keeping just the most recent one.  Long sweeps (K ~ 1000 with
# #B_k ~ k^2) would otherwise pin gigabytes.
_DIGIT_CACHE_LIMIT = 10_000


class TripleSequence:
    """Lazy, cached view of a level sequence.

    Levels are 1-based.  Levels are cached in the order they are first built
    until their digits together would pass `_DIGIT_CACHE_LIMIT`; a level past
    that budget is held only until the next uncached level is built.
    `length` is None for unbounded generators.  `declared_contractivity` is
    an optional exact bound c < 1 with ‖R_k^{-1}‖₂ ≤ c for every k, declared
    by the generator for its tail.
    """

    def __init__(
        self,
        gen,
        dim: int,
        *,
        length: int | None = None,
        declared_contractivity: Fraction | None = None,
        name: str = "",
        validate_digits: bool = True,
        defect_tail_bound=None,
    ):
        self._gen = gen
        self.dim = dim
        self.length = length
        self.declared_contractivity = declared_contractivity
        self.name = name
        self.validate_digits = validate_digits
        self.defect_tail_bound = defect_tail_bound
        self._levels: dict = {}
        self._held = 0  # digits of the levels in _levels
        self._prefix: dict = {0: IntMatrix.identity(dim)}
        self._last_big = None  # (k, entry) for the most recent uncached level
        # validated R_k of every level built so far, cached or not
        self._matrices: dict = {}

    # -- level access --

    def _level(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise IndexOutOfRange(f"level index must be a positive int, got {k}")
        if self.length is not None and k > self.length:
            raise IndexOutOfRange(f"level {k} exceeds sequence length {self.length}")
        hit = self._levels.get(k)
        if hit is not None:
            return hit
        if self._last_big is not None and self._last_big[0] == k:
            return self._last_big[1]
        r, b, l = self._gen(k)
        # l may be a thunk so sweeps that never touch spectrum digits skip
        # building them; the dimension check happens on materialization.
        if r.dim != self.dim or b.dim != self.dim or (
            l is not None and not callable(l) and l.dim != self.dim
        ):
            raise ValidationError(f"level {k} does not match sequence dimension {self.dim}")
        if r.det() == 0:
            raise ValidationError(f"level {k} matrix is singular")
        if self.validate_digits and len(b) < 2:
            raise ValidationError(f"level {k} digit set must have at least 2 elements")
        # a rebuilt level keeps its first R_k instance, and with it the
        # inverse cached on that instance
        known = self._matrices.get(k)
        if known is not None and known == r:
            r = known
        entry = (r, b, l)
        self._matrices[k] = r
        if self._held + len(b) <= _DIGIT_CACHE_LIMIT:
            self._levels[k] = entry
            self._held += len(b)
        else:
            self._last_big = (k, entry)
        return entry

    def matrix(self, k: int) -> IntMatrix:
        hit = self._matrices.get(k)
        return hit if hit is not None else self._level(k)[0]

    def digits(self, k: int) -> DigitSet:
        return self._level(k)[1]

    def spectrum_digits(self, k: int):
        r, b, l = self._level(k)
        if callable(l):
            l = l()
            if l.dim != self.dim:
                raise ValidationError(
                    f"level {k} spectrum digits do not match dimension {self.dim}"
                )
            entry = (r, b, l)
            if k in self._levels:
                self._levels[k] = entry
            elif self._last_big is not None and self._last_big[0] == k:
                self._last_big = (k, entry)
        return l

    # -- products --

    def prefix_matrix(self, k: int) -> IntMatrix:
        """R_k · R_{k-1} · ... · R_1 (identity for k = 0), cached."""
        if k not in self._prefix:
            known = max(i for i in self._prefix if i <= k)
            acc = self._prefix[known]
            for j in range(known + 1, k + 1):
                acc = self.matrix(j).matmul(acc)
                self._prefix[j] = acc
        return self._prefix[k]

    # -- derived sequences --

    def reduced(self) -> "TripleSequence":
        """Same sequence with every digit set reduced into R_k·[-1/2,1/2)^d."""
        base = self

        def gen(k: int):
            r, b, l = base._level(k)
            return r, mod_reduce(b, r), l

        return TripleSequence(
            gen,
            base.dim,
            length=base.length,
            declared_contractivity=base.declared_contractivity,
            name=(base.name + "+reduced") if base.name else "reduced",
            validate_digits=base.validate_digits,
        )


def from_generator(fn, dim: int, **kwargs) -> TripleSequence:
    return TripleSequence(fn, dim, **kwargs)


# ===== builtin generators =====


def _jp_gen(k: int):
    r = IntMatrix.diagonal([4])
    b = DigitSet._product([[0, 2]])
    l = DigitSet._product([[0, 1]])
    return r, b, l


def _bernoulli_gen(k: int):
    r = IntMatrix.diagonal([4])
    b = DigitSet._product([[-1, 1]])
    l = DigitSet._product([[0, 1]])
    return r, b, l


# (k, (k + 1)!) of the last far digit: a walk asks for the levels in order,
# so the next factorial is one multiply from this one
_last_factorial = (0, 1)


def _far_digit(k: int) -> tuple:
    global _last_factorial
    last, f = _last_factorial
    if k == last + 1:
        f *= k + 1
    elif k != last:
        f = math.factorial(k + 1)
    _last_factorial = (k, f)
    return (k + (f << 3 * k), 0)


def _ex26_gen(k: int):
    r = IntMatrix.diagonal([8 * (k + 1), 8 * (k + 1)])
    # the grid {0..k}^2 with the corner (k, 0) replaced by the far digit,
    # which is congruent to it
    axis = np.arange(k + 1, dtype=np.int64)
    b = DigitSet._product((axis, axis), removed=[(k, 0)], added=[_far_digit(k)])

    def lazy_l():
        t = (k + 1) // 2 if k % 2 == 1 else k // 2
        return DigitSet._product((8 * (axis - t),) * 2)

    return r, b, lazy_l


def _make_jorgensen_pedersen(max_k: int | None = None) -> TripleSequence:
    """Constant quarter-scaling line sequence: R = 4, B = {0, 2}, L = {0, 1}."""
    return TripleSequence(
        _jp_gen,
        1,
        length=max_k,
        declared_contractivity=Fraction(1, 4),
        name="jorgensen-pedersen",
    )


def _make_bernoulli_quarter(max_k: int | None = None) -> TripleSequence:
    """Symmetric two-digit sequence R = 4, B = {-1, 1}: quarter-ratio random sums."""
    return TripleSequence(
        _bernoulli_gen,
        1,
        length=max_k,
        declared_contractivity=Fraction(1, 4),
        name="bernoulli-quarter",
    )


def _make_example_2_6(max_k: int | None = None) -> TripleSequence:
    """Planar family with one far digit per level.

    R_k = diag(8(k+1), 8(k+1)); B_k is the (k+1)×(k+1) grid {0..k}² with the
    corner (k, 0) replaced by the far digit (k + 8^k (k+1)!, 0), which is
    congruent to it mod R_k·Z²; L_k = 8·({0..k} − t_k)² with t_k = (k+1)/2 for
    odd k and k/2 for even k.  The reduced view restores the full grid, and
    the defect against it is exactly 1/(k+1)² per level.
    """
    return TripleSequence(
        _ex26_gen,
        2,
        length=max_k,
        declared_contractivity=Fraction(1, 16),
        name="example-2.6",
        defect_tail_bound=lambda start: Fraction(1, start),
    )


_BUILTINS = {
    "jorgensen-pedersen": _make_jorgensen_pedersen,
    "bernoulli-quarter": _make_bernoulli_quarter,
    "example-2.6": _make_example_2_6,
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin_sequence(name: str, **params) -> TripleSequence:
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin sequence {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return make(**params)
