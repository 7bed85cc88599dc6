"""Digit sets and Hadamard triples.

A Hadamard triple (R, B, L) pairs an expanding integer matrix R with digit
sets B and L such that the matrix [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is unitary;
this is exactly the condition that makes the exponentials indexed by L an
orthonormal family for the uniform measure on R^{-1}B.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

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


def _increasing(values) -> np.ndarray:
    """The distinct entries of a 1-D integer array, in increasing order, as
    np.unique gives them (without its first-call import of numpy.ma)."""
    a = np.asarray(values)
    if len(a) > 1 and not (a[1:] > a[:-1]).all():
        a = np.sort(a)
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a


def _holds(a: np.ndarray, x) -> bool:
    """Whether the increasing integer array a holds the int x."""
    i = np.searchsorted(a, x)
    return i < len(a) and a[i] == x


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows = np.asfortranarray(rows)
    rows.flags.writeable = False
    return rows


class Product:
    """The digits (A_0 × ... × A_{d-1} minus `removed`) plus `added`: `axes`
    holds per axis the increasing int64 values A_i, all below 2^31 in
    absolute value; `removed` the sorted rows of the product left out, and
    `added` the sorted exact-int rows outside the product put in."""

    def __init__(self, axes: tuple, removed: tuple = (), added: tuple = ()):
        self.axes = axes
        self.removed = removed
        self.added = added

    def __contains__(self, v) -> bool:
        """Whether the row v lies in the product of the axes."""
        return all(_holds(a, x) for a, x in zip(self.axes, v))

    @cached_property
    def size(self) -> int:
        return math.prod(map(len, self.axes))

    def ranks(self, rows) -> np.ndarray:
        """Lexicographic positions among the product rows of rows in it."""
        rank = np.zeros(len(rows), dtype=np.int64)
        for a, col in zip(self.axes, np.array(rows, dtype=np.int64).reshape(-1, len(self.axes)).T):
            rank = rank * len(a) + np.searchsorted(a, col)
        return rank


class DigitSet:
    """A finite set of integer vectors, sorted and deduplicated, held by column.

    Digits whose entries all lie below 2^31 in absolute value form `grid`, a
    read-only, lexicographically sorted, column-major int64 (n, d) array;
    the others form `wide`, a sorted tuple of exact Python-int rows
    (example-2.6's far digit k + 8^k (k+1)! is one).  The split is fixed by
    the digits alone, so two sets are equal exactly when their parts are.
    `vectors`, the whole set as one sorted tuple, is built on first use only.

    A set may instead be held in structured form, `product`: a product of
    per-axis values with a few removed and added rows (`Product`), as the
    builtin generators and `mod_reduce` give it.  `grid` and `wide` are then
    built on first use, by the kernels that need rows; the kernels that read
    `product` (see `axis_numerators`) never build them.  A structured set
    equals and hashes like its explicit twin.
    """

    def __init__(self, dim: int, grid: np.ndarray | None = None, wide=(), product: Product | None = None):
        self.dim = dim
        self.product = product
        if product is None:
            self.grid, self.wide = grid, tuple(wide)
            self._len = len(grid) + len(self.wide)
        else:
            self._len = product.size - len(product.removed) + len(product.added)

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

    @classmethod
    def _product(cls, axes, removed=(), added=()) -> "DigitSet":
        """Internal constructor of the structured set (A_0 × ... × A_{d-1}
        minus `removed`) plus `added`, from integer axis values in any order
        with repeats, all below the int64 headroom, and exact-int rows.  A
        removed row outside the product and an added row inside it are
        dropped, and a row both removed and added stays in."""
        p = Product(tuple(_frozen(_increasing(a).astype(np.int64)) for a in axes))
        out = {tuple(v) for v in removed if tuple(v) in p}
        extra = set()
        for v in map(tuple, added):
            if v in p:
                out.discard(v)
            else:
                extra.add(v)
        return cls(len(p.axes), product=Product(p.axes, tuple(sorted(out)), tuple(sorted(extra))))

    @cached_property
    def _rows(self) -> tuple:
        """(grid, wide) of a structured set: the product rows in
        lexicographic order, without the removed ones, with the added ones."""
        p, d = self.product, self.dim
        rows = np.empty((p.size, d), dtype=np.int64, order="F")
        outer = 1
        for j, a in enumerate(p.axes):
            inner = p.size // (outer * len(a))
            rows[:, j] = np.tile(np.repeat(a, inner), outer)
            outer *= len(a)
        if p.removed:
            keep = np.ones(p.size, dtype=bool)
            keep[p.ranks(p.removed)] = False
            rows = _pick(rows, keep)
        if any(all(-_HEADROOM < x < _HEADROOM for x in v) for v in p.added):
            merged = DigitSet._from_rows(d, rows, p.added)
            return merged.grid, merged.wide
        return _frozen(rows), p.added

    @cached_property
    def grid(self) -> np.ndarray:
        return self._rows[0]

    @cached_property
    def wide(self) -> tuple:
        return self._rows[1]

    def _subset(self, grid_mask: np.ndarray, wide_mask) -> "DigitSet":
        """The digits picked by a mask over each part; order is kept."""
        return DigitSet(
            self.dim, _frozen(_pick(self.grid, grid_mask)), tuple(compress(self.wide, wide_mask))
        )

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitSet):
            return NotImplemented
        return (
            self.dim == other.dim
            and len(self) == len(other)
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

    def _locate(self, positions: np.ndarray) -> list:
        """For a structured set with no added rows, per axis the index of the
        value of the digit at each set-order position (mixed radix)."""
        p = self.product
        # the q-th kept product row has rank q + #{i : removed_i - i <= q}
        gaps = p.ranks(p.removed) - np.arange(len(p.removed))
        rank = positions + np.searchsorted(gaps, positions, "right")
        index = []
        for a in reversed(p.axes):
            rank, i = np.divmod(rank, len(a))
            index.append(i)
        return index[::-1]


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


class HadamardCheckResult(NamedTuple):
    ok: bool
    max_deviation: float
    size_mismatch: bool


def hadamard_check(r: IntMatrix, b: DigitSet, l: DigitSet, tol: float = DEFAULT_UNITARITY_TOL) -> HadamardCheckResult:
    """Measure how far [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is from unitary.

    The Gram matrix is G[b, b'] = F(R^{-1}(b - b')) with F the transform of
    the single factor with atoms L and weight 1/#B, evaluated by
    `_phases.difference_deviation` on the points R^{-1}B = y/den.  When L is
    the product of its axis sets L_c, F is the product of the transforms of
    the uniform measures on the L_c, the first scaled by #L/#B, and those
    are the factors: their tables hold #L_c atoms, not #L.  L is integer, so
    F(y/den) depends on y only mod den.  The distinct reduced rows are the
    one summand, or, when they form the product of their axis sets, those
    sets are, and B - B is the lattice of per-axis differences.  Structured
    sets under a diagonal R give their axis sets as they are; explicit ones
    are tested for a product form on their rows.  A size mismatch (#B ≠ #L)
    is reported in the result rather than raised: the matrix is then
    rectangular and cannot be unitary.
    """
    if r.dim != b.dim or r.dim != l.dim:
        raise DimensionMismatch("matrix and digit sets must share a dimension")
    l_axes = _product_axes(l)
    if l_axes is None:
        # L's rows are exact Python ints: bench/tracer.py multiplies the two
        # operands' largest entries, which overflows when one is an int64
        # scalar and the other is wide.
        factors = [(np.concatenate(integer_rows(l)), 1, np.full(len(l), 1 / len(b)))]
    else:
        # the uniform measure on L = L_0 x ... x L_{d-1} is the convolution of
        # those on the L_c, and F carries the mass #L/#B
        weights = [len(l) / (len(b) * len(a)) if c == 0 else 1 / len(a) for c, a in enumerate(l_axes)]
        factors = [
            (a * np.eye(l.dim, dtype=object)[c], 1, np.full(len(a), w))
            for c, (a, w) in enumerate(zip(l_axes, weights))
        ]
    den, summands = _reduced_summands(r, b)
    dev = difference_deviation(summands, den, factors)
    mismatch = len(b) != len(l)
    return HadamardCheckResult(ok=(not mismatch) and dev <= tol, max_deviation=dev, size_mismatch=mismatch)


def _product_axes(l: DigitSet):
    """The axis sets of l as (n_c, 1) columns when l is their product, else None."""
    p = l.product
    if p is not None and not p.removed and not p.added:
        return [a[:, None] for a in p.axes]
    axes = [_distinct_rows(l.grid[:, [c]])[0] for c in range(l.dim)]
    return axes if not l.wide and len(l) == math.prod(map(len, axes)) else None


def _reduced_summands(r: IntMatrix, b: DigitSet) -> tuple:
    """(den, summands) for `hadamard_check`: R⁻¹B = y/den, and integer rows
    whose collision-free Minkowski sum is {y mod den}, or [y] itself when
    two digits are congruent."""
    eye = np.eye(b.dim, dtype=np.int64)
    an = axis_numerators(r, b)
    if an is not None:
        den = an.den
        axes = [_increasing(y % den) for y in an.axes]
        removed, added = ({tuple(v) for v in (y % den).tolist()} for y in (an.removed, an.added))
        # every added digit lands on a removed one: the reduced rows are the
        # whole product of the reduced axes
        distinct = all(len(a) == len(y) for a, y in zip(axes, an.axes)) and len(added) == len(an.added)
        if distinct and added == removed:
            return den, [a[:, None] * eye[c] for c, a in enumerate(axes)]
    den, y_grid, y_wide = numerators(r, b)
    y = np.concatenate([y_grid, y_wide]) if len(y_wide) else y_grid
    reduced = y % den
    if len(_distinct_rows(reduced)[0]) < len(b):
        return den, [y]  # congruent digits: the rows y themselves
    axes = [_distinct_rows(reduced[:, [c]])[0] for c in range(b.dim)]
    if len(b) == math.prod(len(a) for a in axes):
        return den, [a * eye[c] for c, a in enumerate(axes)]
    return den, [reduced]


class HadamardTriple(NamedTuple):
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


class AxisNumerators(NamedTuple):
    """`numerators` of a structured digit set under a diagonal R, by axis.

    R⁻¹v = y/den with y_i = c_i·v_i, so the numerators of the product rows
    are the product of `axes`, the per-axis numerators c_i·A_i (int64 under
    the bounds `numerators` keeps for its int64 rows, exact Python ints
    otherwise); `removed` and `added` are the rows y of the exceptions, as
    object arrays."""

    den: int
    axes: tuple
    removed: np.ndarray
    added: np.ndarray


def axis_numerators(r: IntMatrix, b: DigitSet) -> AxisNumerators | None:
    """The numerators of b under r by axis when b is structured and r is
    diagonal, else None."""
    p = b.product
    if p is None or not r.is_diagonal():
        return None
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    det, adj = invert(r)
    den, d = abs(det), r.dim
    c = [adj.rows[i][i] if det > 0 else -adj.rows[i][i] for i in range(d)]
    y_max = max(abs(ci) * max(-int(a[0]), int(a[-1])) for a, ci in zip(p.axes, c))
    r_max = max(abs(x) for row in r.rows for x in row)
    fast = max(2 * d * y_max + den, d * r_max * (y_max // den + 1), *map(abs, c)) < _INT64_SAFE
    axes = [a * ci if fast else a.astype(object) * ci for a, ci in zip(p.axes, c)]
    c_row = np.array(c, dtype=object)
    return AxisNumerators(
        den,
        tuple(axes),
        *(np.array(rows, dtype=object).reshape(-1, d) * c_row for rows in (p.removed, p.added)),
    )


def box_count(nums) -> int:
    """Digits with R⁻¹v in [-1/2, 1/2)^d, for nums from `numerators` or
    `axis_numerators`: the box is the product of its per-axis intervals."""
    if not isinstance(nums, AxisNumerators):
        return sum(int(box_mask(y, nums[0]).sum()) for y in nums[1:])
    den = nums.den
    inside = math.prod(int(box_mask(y[:, None], den).sum()) for y in nums.axes)
    return inside - int(box_mask(nums.removed, den).sum()) + int(box_mask(nums.added, den).sum())


def cone_count(nums, thr: Fraction) -> int:
    """Digits with |R⁻¹v|_1 < thr, for nums from `numerators` or
    `axis_numerators`: on the axes, each sum of the first coordinates
    leaves the last ones one interval of the sorted last axis."""
    if not isinstance(nums, AxisNumerators):
        return sum(int(cone_mask(y, nums[0], thr).sum()) for y in nums[1:])
    den = nums.den
    bound = -(-thr.numerator * den // thr.denominator)
    # int64 axes keep d·max|y| and den below 2^62 (see axis_numerators)
    *heads, last = (np.abs(y) for y in nums.axes)
    sums = np.zeros(1, dtype=last.dtype)
    for y in heads:
        sums = np.add.outer(sums, y).ravel()
    near = int(np.searchsorted(np.sort(last), bound - sums).sum())
    return near - sum(int(cone_mask(y, den, thr).sum()) * s for y, s in ((nums.removed, 1), (nums.added, -1)))


def _reduce_product(r: IntMatrix, b: DigitSet, an: AxisNumerators) -> DigitSet | None:
    """mod_reduce(b, r) for a structured b under a diagonal r, from the axes
    and the exceptions alone, structured again; None when two digits may be
    congruent: two values of an axis are, or a reduced added row lands on a
    digit; and None when a reduced axis passes the int64 headroom."""
    p, den = b.product, an.den
    axes = []
    for i, (a, y) in enumerate(zip(p.axes, an.axes)):
        rep = _increasing(a - r.rows[i][i] * ((2 * y + den) // (2 * den)))
        if len(rep) < len(a) or rep[0] <= -_HEADROOM or rep[-1] >= _HEADROOM:
            return None
        axes.append(rep)
    removed, added = (
        _representatives(r, den, np.array(rows, dtype=object).reshape(-1, b.dim), y).tolist()
        for rows, y in ((p.removed, an.removed), (p.added, an.added))
    )
    removed = set(map(tuple, removed))
    seen = set()
    for w in map(tuple, added):
        if w in seen or (w not in removed and all(map(_holds, axes, w))):
            return None
        seen.add(w)
    return DigitSet._product(axes, removed, seen)


def check_reduction(r: IntMatrix, b: DigitSet, nums) -> None:
    """Raise CongruentDigits, with mod_reduce's message, when two digits of b
    share a representative mod R·Z^d.

    Takes nums = numerators(r, b), or axis_numerators(r, b), which reduces
    the axes and the exceptions alone.  On rows, a digit inside the box is
    its own representative and every representative lies in the box, so
    only the digits outside it are reduced, and their representatives are
    compared with each other and with b; the reduced set itself is never
    built.
    """
    if isinstance(nums, AxisNumerators):
        if _reduce_product(r, b, nums) is None:
            mod_reduce(b, r)  # names the first colliding pair, if any
        return
    den, y_grid, y_wide = nums
    out_grid, out_wide = ~box_mask(y_grid, den), ~box_mask(y_wide, den)
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
    an = axis_numerators(r, b)
    out = _reduce_product(r, b, an) if an is not None else None
    if out is not None:
        return out
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
