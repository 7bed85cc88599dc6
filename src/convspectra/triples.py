"""Digit sets and Hadamard triples.

A Hadamard triple (R, B, L) pairs an expanding integer matrix R with digit
sets B and L such that the matrix [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is unitary;
this is exactly the condition that makes the exponentials indexed by L an
orthonormal family for the uniform measure on R^{-1}B.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress

import numpy as np

from ._phases import _distinct_rows, _lex_order, difference_deviation
from .errors import (
    CongruentDigits,
    DimensionMismatch,
    EmptySet,
    SizeMismatch,
    TripleInvalid,
)
from .exactmat import IntMatrix, invert

DEFAULT_UNITARITY_TOL = 1e-9


# Digit entries below this in absolute value are stored as int64, the rest as
# exact Python ints; `numerators` decides per call whether int64 products of
# the stored entries stay exact.
_HEADROOM = 1 << 31
_INT64_SAFE = 1 << 62

# Digit rows are (n, d) arrays in column-major order: each kernel below walks
# the d columns, which are contiguous, rather than reducing along short rows.


def _every_column(rows: np.ndarray, test) -> np.ndarray:
    """Row mask: test(column) holds in every column."""
    mask = test(rows[:, 0])
    for j in range(1, rows.shape[1]):
        mask &= test(rows[:, j])
    return mask


def _fits(rows: np.ndarray) -> np.ndarray:
    """Row mask: every entry below the int64 headroom (int64 or object rows)."""
    return _every_column(rows, lambda c: np.abs(c) < _HEADROOM)


def _pick(rows: np.ndarray, index) -> np.ndarray:
    """rows[index] for an index or mask array, gathered column by column."""
    first = rows[:, 0][index]
    out = np.empty((len(first), rows.shape[1]), dtype=rows.dtype, order="F")
    out[:, 0] = first
    for j in range(1, rows.shape[1]):
        out[:, j] = rows[:, j][index]
    return out


def _times(rows: np.ndarray, m) -> np.ndarray:
    """rows @ m for a d×d list of Python ints, column by column; zero
    entries of m (most of a diagonal matrix) cost nothing."""
    out = np.zeros(rows.shape, dtype=rows.dtype, order="F")
    for i, col in enumerate(zip(*m)):
        for j, x in enumerate(col):
            if x:
                out[:, i] += rows[:, j] * x
    return out


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows = np.asfortranarray(rows)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False, repr=False)
class DigitSet:
    """A finite set of integer vectors, sorted and deduplicated, held by column.

    Digits whose entries all lie below 2^31 in absolute value form `grid`, a
    read-only, lexicographically sorted, column-major int64 (n, d) array;
    the others form `wide`, a sorted tuple of exact Python-int rows
    (example-2.6's far digit k + 8^k (k+1)! is one).  The split is fixed by
    the digits alone, so two sets are equal exactly when their parts are.
    `vectors`, the whole set as one sorted tuple, is built on first use only.
    """

    dim: int
    grid: np.ndarray
    wide: tuple = ()

    @classmethod
    def of(cls, vectors, dim: int | None = None) -> "DigitSet":
        vecs = [tuple(v) for v in vectors]
        if not vecs:
            raise EmptySet("digit set must be nonempty")
        d = dim if dim is not None else len(vecs[0])
        for v in vecs:
            if len(v) != d:
                raise DimensionMismatch(f"digit {v} does not have dimension {d}")
            for x in v:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"digit entries must be ints, got {x!r}")
        return cls._from_rows(d, np.empty((0, d), dtype=np.int64), vecs)

    @classmethod
    def _from_rows(cls, dim: int, rows: np.ndarray, extra=()) -> "DigitSet":
        """Internal constructor from validated integer rows in any order, with
        repeats: an int64 or object (n, dim) array plus Python-int tuples."""
        small, wide = [], set()
        for v in map(tuple, extra):
            if all(-_HEADROOM < x < _HEADROOM for x in v):
                small.append(v)
            else:
                wide.add(v)
        if len(rows):
            fits = _fits(rows)
            if not fits.all():
                wide.update(map(tuple, _pick(rows, ~fits).tolist()))
                rows = _pick(rows, fits)
        grid = np.asarray(rows, dtype=np.int64)
        if small:
            grid = np.concatenate([grid, np.array(small, dtype=np.int64)])
        return cls(dim, _frozen(_distinct_rows(grid)[0]), tuple(sorted(wide)))

    def _subset(self, grid_mask: np.ndarray, wide_mask) -> "DigitSet":
        """The digits picked by a mask over each part; order is kept."""
        return DigitSet(
            self.dim, _frozen(_pick(self.grid, grid_mask)), tuple(compress(self.wide, wide_mask))
        )

    def __len__(self) -> int:
        return len(self.grid) + len(self.wide)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitSet):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.wide == other.wide
            and np.array_equal(self.grid, other.grid)
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.wide, self.grid.tobytes()))

    def __repr__(self) -> str:
        return f"DigitSet(dim={self.dim}, vectors={self.vectors!r})"

    def _grid_row(self, i: int) -> tuple:
        return tuple(self.grid[i].tolist())

    def _rank(self, v: tuple) -> int:
        """Number of grid rows lexicographically below v."""
        return bisect_left(range(len(self.grid)), v, key=self._grid_row)

    @cached_property
    def _slots(self) -> tuple:
        """Position of each wide row in the merged sorted order."""
        return tuple(self._rank(w) + i for i, w in enumerate(self.wide))

    def in_order(self, grid_items, wide_items) -> list:
        """Per-digit items of the grid and wide parts, merged in set order."""
        out = list(grid_items)
        for slot, item in zip(self._slots, wide_items):
            out.insert(slot, item)
        return out

    @cached_property
    def vectors(self) -> tuple:
        return tuple(self.in_order(map(tuple, self.grid.tolist()), self.wide))

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, v) -> bool:
        v = tuple(v)
        if v in self.wide:
            return True
        i = self._rank(v)
        return i < len(self.grid) and self._grid_row(i) == v


def shared_masks(a: DigitSet, b: DigitSet):
    """Masks over the grid and wide parts of a and of b marking the digits
    the two sets share: (a_grid, a_wide, b_grid, b_wide)."""
    both = np.concatenate([a.grid, b.grid])
    order = _lex_order(both)  # stable: an a row precedes its b twin
    twin = _every_column(both, lambda c: c[order[1:]] == c[order[:-1]])
    a_grid = np.zeros(len(a.grid), dtype=bool)
    b_grid = np.zeros(len(b.grid), dtype=bool)
    a_grid[order[:-1][twin]] = True
    b_grid[order[1:][twin] - len(a.grid)] = True
    a_wide = [w in b.wide for w in a.wide]
    b_wide = [w in a.wide for w in b.wide]
    return a_grid, a_wide, b_grid, b_wide


# ===== unitarity check =====


@dataclass(frozen=True)
class HadamardCheckResult:
    ok: bool
    max_deviation: float
    size_mismatch: bool


def hadamard_check(r: IntMatrix, b: DigitSet, l: DigitSet, tol: float = DEFAULT_UNITARITY_TOL) -> HadamardCheckResult:
    """Measure how far [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is from unitary.

    The Gram matrix is G[b, b'] = F(R^{-1}(b - b')) with F the transform of
    the single factor with atoms L and weight 1/#B, evaluated by
    `_phases.difference_deviation` on the points R^{-1}B = y/den.  L is
    integer, so F(y/den) depends on y only mod den.  Distinct reduced rows
    are the one summand, or, when they form the product of their axis
    projections, those projections are, and B - B is the lattice of per-axis
    differences.  A size mismatch (#B ≠ #L) is reported in the result rather
    than raised: the matrix is then rectangular and cannot be unitary.
    """
    if r.dim != b.dim or r.dim != l.dim:
        raise DimensionMismatch("matrix and digit sets must share a dimension")
    den, y_grid, y_wide = numerators(r, b)
    # L's rows are exact Python ints: bench/tracer.py multiplies the two
    # operands' largest entries, which overflows when one is an int64 scalar
    # and the other is wide.
    y = np.concatenate([y_grid, y_wide]) if len(y_wide) else y_grid
    factors = [(np.concatenate(integer_rows(l)), 1, np.full(len(l), 1 / len(b)))]
    reduced = y % den
    axes = [_distinct_rows(reduced[:, [c]])[0] for c in range(b.dim)]
    distinct = len(_distinct_rows(reduced)[0]) == len(b)
    summands = [reduced if distinct else y]  # congruent digits: the rows y themselves
    if distinct and len(b) == math.prod(len(a) for a in axes):
        summands = [a * np.eye(b.dim, dtype=np.int64)[c] for c, a in enumerate(axes)]
    dev = difference_deviation(summands, den, factors)
    mismatch = len(b) != len(l)
    return HadamardCheckResult(ok=(not mismatch) and dev <= tol, max_deviation=dev, size_mismatch=mismatch)


@dataclass(frozen=True)
class HadamardTriple:
    r: IntMatrix
    b: DigitSet
    l: DigitSet
    deviation: float

    @classmethod
    def make(cls, r: IntMatrix, b: DigitSet, l: DigitSet, tol: float = DEFAULT_UNITARITY_TOL) -> "HadamardTriple":
        res = hadamard_check(r, b, l, tol)
        if res.size_mismatch:
            raise SizeMismatch(f"#B = {len(b)} but #L = {len(l)}")
        if not res.ok:
            raise TripleInvalid(
                f"unitarity deviation {res.max_deviation:.3e} exceeds tolerance {tol:.1e}"
            )
        return cls(r, b, l, res.max_deviation)

    @property
    def dim(self) -> int:
        return self.r.dim


# ===== reduction mod R·Z^d =====


def numerators(r: IntMatrix, b: DigitSet):
    """(den, y_grid, y_wide) with R⁻¹v = y/den for every digit v: the rows
    y = sign(det R)·adj(R)·v of the grid and wide parts, and den = |det R|.

    The grid rows come out as int64 when every quantity derived from them
    (2y + den, the l1 norm of y, and R·⌊(2y + den)/(2·den)⌋) stays below
    2^62; otherwise, and for the wide rows always, they are exact Python
    ints in object arrays.  Callers run the same numpy expressions on both.
    """
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    det, adj = invert(r)
    den, d = abs(det), r.dim
    adj_t = [[x if det > 0 else -x for x in col] for col in zip(*adj.rows)]
    y_max = d * max(abs(x) for row in adj.rows for x in row)
    y_max *= max(-int(b.grid.min()), int(b.grid.max())) if len(b.grid) else 0
    r_max = max(abs(x) for row in r.rows for x in row)
    fast = max(2 * d * y_max + den, d * r_max * (y_max // den + 1)) < _INT64_SAFE
    y_grid = _times(b.grid if fast else b.grid.astype(object), adj_t)
    return den, y_grid, _times(_wide_rows(b), adj_t)


def box_mask(y: np.ndarray, den: int) -> np.ndarray:
    """Rows with y/den in the half-open box [-1/2, 1/2)^d: -den <= 2y < den."""
    lo, hi = -(den // 2), (den - 1) // 2
    return _every_column(y, lambda c: (c >= lo) & (c <= hi))


def cone_mask(y: np.ndarray, den: int, thr: Fraction) -> np.ndarray:
    """Rows with |y/den|_1 < thr, that is |y|_1 < ⌈thr·den⌉ on integers."""
    bound = -(-thr.numerator * den // thr.denominator)
    norm = np.abs(y[:, 0])
    for j in range(1, y.shape[1]):
        norm += np.abs(y[:, j])
    return norm < bound


def integer_rows(b: DigitSet, m=None):
    """Exact rows m·v (or v) of the grid and wide parts, as object arrays of
    Python ints; m is a list of integer rows."""
    parts = (b.grid.astype(object), _wide_rows(b))
    if m is None:
        return parts
    m_t = [list(col) for col in zip(*m)]
    return tuple(_times(p, m_t) for p in parts)


def _wide_rows(b: DigitSet) -> np.ndarray:
    return np.array(b.wide, dtype=object).reshape(-1, b.dim)


def _representatives(r: IntMatrix, den: int, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows v - R·⌊(2y + den)/(2·den)⌋: the representatives in R·[-1/2, 1/2)^d
    of digit rows v with R⁻¹v = y/den."""
    r_t = [list(col) for col in zip(*r.rows)]
    return v.astype(y.dtype) - _times((2 * y + den) // (2 * den), r_t)


def check_reduction(r: IntMatrix, b: DigitSet, nums, inside) -> None:
    """Raise CongruentDigits, with mod_reduce's message, when two digits of b
    share a representative mod R·Z^d.

    Takes nums = numerators(r, b) and inside, the box_mask of its grid and
    wide rows.  A digit inside the box is its own representative and every
    representative lies in the box, so only the digits outside it are
    reduced, and their representatives are compared with each other and
    with b; the reduced set itself is never built.
    """
    den, y_grid, y_wide = nums
    out_grid, out_wide = ~inside[0], ~inside[1]
    moved = DigitSet._from_rows(
        b.dim,
        _representatives(r, den, _pick(b.grid, out_grid), _pick(y_grid, out_grid)),
        _representatives(r, den, _pick(_wide_rows(b), out_wide), _pick(y_wide, out_wide)).tolist(),
    )
    # b is sorted, so the grid rows that can equal a moved one form the run
    # whose first entries lie between the moved rows' first and last ones
    first = b.grid[:, 0]
    lo = np.searchsorted(first, moved.grid[0, 0], "left") if len(moved.grid) else 0
    hi = np.searchsorted(first, moved.grid[-1, 0], "right") if len(moved.grid) else 0
    hit_grid, hit_wide, _, _ = shared_masks(moved, DigitSet(b.dim, b.grid[lo:hi], b.wide))
    if len(moved) < int(out_grid.sum()) + int(out_wide.sum()) or hit_grid.any() or any(hit_wide):
        mod_reduce(b, r)  # names the first colliding pair


def mod_reduce(b: DigitSet, r: IntMatrix) -> DigitSet:
    """Reduce each digit to its representative in R·[-1/2, 1/2)^d.

    The representative of b is b - R·n where n_i = floor((R^{-1}b)_i + 1/2),
    that is n = ⌊(2y + den)/(2·den)⌋ for R^{-1}b = y/den; a coordinate
    exactly at 1/2 wraps to -1/2 (half-open convention).
    Raises CongruentDigits if two digits collide after reduction.
    """
    if b.dim != r.dim:
        raise DimensionMismatch("digit set and matrix dimensions differ")
    den, y_grid, y_wide = numerators(r, b)
    # a grid digit inside the box (n = 0) is its own representative
    inside = box_mask(y_grid, den)
    moved = _representatives(r, den, _pick(b.grid, ~inside), _pick(y_grid, ~inside))
    wide = _representatives(r, den, _wide_rows(b), y_wide).tolist()
    out = DigitSet._from_rows(b.dim, np.concatenate([_pick(b.grid, inside), moved]), wide)
    if len(out) != len(b):
        grid = list(map(tuple, b.grid.tolist()))
        for i, v in zip(np.flatnonzero(~inside).tolist(), moved.tolist()):
            grid[i] = tuple(v)
        seen = {}
        for src, tgt in zip(b.vectors, b.in_order(grid, map(tuple, wide))):
            if tgt in seen:
                raise CongruentDigits(
                    f"digits {seen[tgt]} and {src} are congruent mod R·Z^d (both reduce to {tgt})"
                )
            seen[tgt] = src
    return out
