"""Exact finitely-supported probability measures and their Fourier transforms.

Atoms are rational vectors, held as exact integer rows over one denominator;
weights are positive rationals summing to exactly one, held as integer
multiplicities.  Fourier evaluation reduces the phase mod 1 in exact integer arithmetic
before any floating-point call, so large integer atoms cost no accuracy.

The transforms (`fourier_many`, `tail_fourier_many`) are products over
per-level factors, evaluated by `_phases.product_transform`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from ._phases import (
    PointRows,
    _distinct_rows,
    _narrowest,
    product_transform,
    sum_rows,
)
from .errors import DimensionMismatch, TruncationTooLarge, ValidationError
from .exactmat import IntMatrix
from .triples import DigitSet, numerators

DEFAULT_ATOM_CAP = 1_000_000


def _as_frac_vec(v, dim=None):
    t = tuple(Fraction(x) for x in v)
    if dim is not None and len(t) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(t)}")
    return t


class DiscreteMeasure:
    """A finitely supported probability measure with rational atoms, held as
    exact integers: atom i is rows[i] / den, with weight counts[i] / Σ counts.

    rows are the distinct atoms' numerators, lexicographically sorted, over
    the least common denominator den; counts are positive integer
    multiplicities with gcd 1.  Both are int64 arrays when every entry lies
    below 2^62 and object arrays of Python ints otherwise, so the form is
    canonical and equality and hash are defined on it.  `atoms` (tuples of
    Fractions) and `weights` (Fractions) are built on first use only.
    """

    def __init__(self, rows: np.ndarray, den: int, counts: np.ndarray, factors: tuple = ()):
        self.rows = rows
        self.den = den
        self.counts = counts
        # measures whose convolution this is, recorded by `mu_truncate`; empty
        # when the measure is its own single factor.  Not part of equality.
        self.factors = factors

    @classmethod
    def make(cls, pairs, dim: int | None = None) -> "DiscreteMeasure":
        """The measure of (atom, weight) pairs: atoms are rational vectors,
        weights nonnegative rationals summing to exactly one; repeated atoms
        are merged and zero weights dropped."""
        acc: dict = {}
        for atom, w in pairs:
            a = _as_frac_vec(atom, dim)
            if dim is None:
                dim = len(a)
            w = Fraction(w)
            if w < 0:
                raise ValidationError(f"negative weight {w} at atom {a}")
            if w == 0:
                continue
            acc[a] = acc.get(a, Fraction(0)) + w
        if dim is None or not acc:
            raise ValidationError("a measure needs at least one weighted atom")
        total = sum(acc.values())
        if total != 1:
            raise ValidationError(f"weights sum to {total}, expected exactly 1")
        atoms = sorted(acc)
        den = lcm(*(x.denominator for a in atoms for x in a))
        scale = lcm(*(w.denominator for w in acc.values()))
        rows = [[x.numerator * (den // x.denominator) for x in a] for a in atoms]
        counts = [acc[a].numerator * (scale // acc[a].denominator) for a in atoms]
        return cls(_narrowest(rows).reshape(-1, dim), den, _narrowest(counts))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.den == other.den
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash((self.den, self.rows.shape, tuple(self.rows.ravel().tolist()), tuple(self.counts.tolist())))

    def __repr__(self) -> str:
        return f"DiscreteMeasure(rows={self.rows!r}, den={self.den!r}, counts={self.counts!r})"

    @cached_property
    def atoms(self) -> tuple:
        """The atoms as sorted tuples of Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows.tolist())

    @cached_property
    def weights(self) -> tuple:
        """The weights as Fractions summing to one, in atom order."""
        counts = self.counts.tolist()
        total = sum(counts)
        weight = {c: Fraction(c, total) for c in set(counts)}
        return tuple(weight[c] for c in counts)

    def convolution_factors(self) -> tuple:
        """Measures whose convolution is this one (at least the measure itself)."""
        return self.factors or (self,)

    @cached_property
    def _float_weights(self):
        total = int(self.counts.sum())
        if total < 2**53:
            return self.counts / total  # both exact in binary64: correctly rounded
        return np.array([float(Fraction(c, total)) for c in self.counts.tolist()])

    def phase_factors(self) -> list:
        """(rows, den, float weights) of each convolution factor, as the
        product and Gram kernels of `_phases` take them."""
        return [(f.rows, f.den, f._float_weights) for f in self.convolution_factors()]


# ===== truncations of the infinite convolution =====


def _check_cap(sizes, max_atoms: int) -> None:
    """Raise TruncationTooLarge once the running product of sizes passes the cap."""
    proj = 1
    for s in sizes:
        proj *= s
        if proj > max_atoms:
            raise TruncationTooLarge(
                f"projected support of {proj} atoms exceeds the cap of {max_atoms}"
            )


def _from_sums(rows: np.ndarray, den: int, factors=()) -> DiscreteMeasure:
    """The measure giving each integer row over den a weight proportional to
    how often it occurs: rows and den reduced by their common gcd, counts by
    theirs."""
    distinct, where = _distinct_rows(rows)
    counts = np.bincount(where)
    g = gcd(int(np.gcd.reduce(distinct, axis=None)), den)
    if g > 1:
        distinct, den = distinct // g, den // g
    return DiscreteMeasure(_narrowest(distinct), den, counts // np.gcd.reduce(counts), factors)


def mu_truncate(seq, k: int, *, max_atoms: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """Convolution of the first k scaled digit measures (k = 0 gives a point mass).

    Level j's atoms (R_j···R_1)^{-1} B_j are the rows of `tail_factors`,
    integer rows over one denominator; every atom of the convolution is an
    integer sum of one row per level over the lcm of those denominators, in
    int64 when the widest sum fits and exact Python ints otherwise.  Each
    sum carries weight 1/Π#B_j, so an atom's multiplicity among the sums is
    its count.  The per-level uniform measures are recorded as the factors.
    No Fraction is formed, and the cap is checked on the projected count
    Π#B_j before any sum is.
    """
    if k < 0:
        raise ValidationError(f"truncation level must be >= 0, got {k}")
    _check_cap((len(seq.digits(j)) for j in range(1, k + 1)), max_atoms)
    levels = tail_factors(seq, 0, k)
    den = lcm(*(d for _, d, _ in levels))
    sums = sum_rows([(rows, den // d) for rows, d, _ in levels]) if levels else np.zeros((1, seq.dim), np.int64)
    factors = (_from_sums(rows, d) for rows, d, _ in levels)
    factors = tuple(f for f in factors if len(f) > 1 or f.rows.any())  # the origin point mass is trivial
    return _from_sums(sums, den, factors)


# ===== Fourier transforms =====


def _points(xis, dim: int) -> PointRows:
    if isinstance(xis, PointRows):
        return xis
    return PointRows.of([_as_frac_vec(x, dim) for x in xis])


def fourier_many(m: DiscreteMeasure, xis) -> np.ndarray:
    """Transform at many rational frequencies (vectors or `PointRows`), as
    the product of the transforms of the convolution factors."""
    pts = _points(xis, m.dim)
    if not len(pts):
        return np.zeros(0, dtype=complex)
    return product_transform(pts, m.phase_factors())


def scaled_atom_rows(m: IntMatrix, digits: DigitSet):
    """(rows, den) with m^{-1} b = rows[i] / den for the i-th digit b in set
    order: the numerators of `triples.numerators`, reduced by their common
    gcd with |det m|, so den is the least common denominator of the atoms.
    rows is an (n, d) int64 array when every entry fits, and an object array
    of exact Python ints otherwise."""
    den, y_grid, y_wide = numerators(m, digits)
    rows = y_grid
    if len(y_wide):
        rows = np.array(digits.in_order(y_grid.tolist(), y_wide.tolist()), dtype=object)
    g = gcd(int(np.gcd.reduce(rows, axis=None)), den)
    if g > 1:
        rows = rows // g
    return _narrowest(rows), den // g


def tail_factors(seq, start: int, depth: int) -> list:
    """Per-level factors (rows, den, weights) of the depth-truncated tail
    after `start`: level j has the uniform atoms M_j^{-1} B_{start+j} with
    M_j = R_{start+j} ... R_{start+1}."""
    factors = []
    acc = None
    for j in range(1, depth + 1):
        r = seq.matrix(start + j)
        acc = r if acc is None else r.matmul(acc)
        digits = seq.digits(start + j)
        rows, den = scaled_atom_rows(acc, digits)
        factors.append((rows, den, np.full(len(rows), 1 / len(rows))))
    return factors


def tail_fourier_many(seq, start: int, depth: int, points) -> np.ndarray:
    """Truncated tail transform prod_j m_{B_{start+j}}(M_j^{-T} xi) at many
    rational frequencies (vectors or `PointRows`)."""
    pts = _points(points, seq.dim)
    return product_transform(pts, tail_factors(seq, start, depth))


def tail_fourier_product(seq, start: int, depth: int, xi) -> complex:
    """The truncated tail transform at one frequency: the one-point case of
    `tail_fourier_many`."""
    return complex(tail_fourier_many(seq, start, depth, [xi])[0])
