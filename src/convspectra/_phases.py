"""Exact phase reduction shared by the Fourier and Gram kernels.

A phase is a rational number (a·b)/(den_a·den_b) that only matters mod 1.
Reduction happens in exact integer arithmetic *before* any float conversion,
so digits as large as 8^k (k+1)! cost no precision.  An int64 numpy fast path
covers the common case.  When the operands are too large for it but the
modulus is small, both are first reduced mod the modulus, which leaves every
phase unchanged; Python big ints cover only what is left.

Points and atoms are held as exact integer rows over one positive
denominator.  Every dense kernel works under one byte budget, checked before
it allocates.

The Gram kernel walks factor groups: runs of adjacent convolution factors
merged into one factor whose atoms are the exact integer sums of theirs, up
to _MERGED_ATOMS atoms.  Its Gram is the entrywise product of theirs, so each
tile needs one matrix product per group instead of one per factor.  The
budget counts the merged tables; when they do not fit, the walk falls back
to the unmerged factors before it reports the budget exceeded.

The sum-set kernel evaluates a product transform at every sum u + v of two
point sets from one table per summand, since e(-(u + v)·a) = e(-u·a)·e(-v·a):
each factor is one matrix product instead of one exponential per sum and
atom.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import WorkingSetTooLarge

_INT64_SAFE = 2**62

# Byte budget shared by the dense kernels: a Gram walk's factor tables plus
# one tile, or one chunk of phase rows in a Q scan.
DENSE_BYTE_BUDGET = 256 << 20
# Peak bytes per entry while one phase table is built: int64 product and
# residue, float phases, complex exponentials.
PHASE_ENTRY_BYTES = 32
COMPLEX_BYTES = 16
# Per Gram tile entry: the complex product and one complex factor, whose
# bytes the float modulus reuses.  Tiles of about 4 MiB stay cache-resident;
# on a 2-CPU EPYC they ran the n = 4096 Jorgensen-Pedersen Gram about twice
# as fast as 64 MiB tiles.
_TILE_ENTRY_BYTES = 32
_TILE_TARGET_BYTES = 4 << 20
# Most atoms of a merged Gram factor group.  On a 2-CPU Xeon with OpenBLAS at
# two threads, the n = 4096 Jorgensen-Pedersen Gram (twelve rank-2 factors)
# took 0.355 s unmerged, 0.20 s at rank 4, 0.155 s at rank 8 and 0.14 s at
# rank 16; rank 16 held 1.6 MB more peak RSS than rank 8.
_MERGED_ATOMS = 8


def common_denominator(vectors):
    """(den, rows): den > 0 and rows[i] = den * vectors[i] as exact int tuples."""
    den = 1
    for v in vectors:
        for x in v:
            q = x.denominator if isinstance(x, Fraction) else 1
            den = den * q // gcd(den, q)
    rows = []
    for v in vectors:
        rows.append(tuple(int(x * den) if isinstance(x, Fraction) else int(x) * den for x in v))
    return den, rows


@dataclass(frozen=True)
class PointRows:
    """Rational points rows[i] / den over one den > 0: rows are exact int
    tuples or an (n, d) integer array, as `exact_phase_matrix` takes them."""

    rows: list
    den: int

    @classmethod
    def of(cls, vectors) -> "PointRows":
        den, rows = common_denominator(vectors)
        return cls(rows, den)

    def __len__(self) -> int:
        return len(self.rows)


def _int_rows(nums) -> np.ndarray:
    """nums as a 2-D integer array: int64 when every entry fits, object
    (Python ints) otherwise.  Arrays pass through unchanged."""
    if isinstance(nums, np.ndarray):
        return nums
    try:
        return np.array(nums, dtype=np.int64)
    except OverflowError:
        return np.array(nums, dtype=object)


def _peak(a: np.ndarray) -> int:
    """max |a| as a Python int (0 for an empty array)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _rescaled(parts, widest: int) -> list:
    """[a * s for (a, s) in parts] in one integer dtype: int64 when `widest`,
    a bound on every entry and every sum of entries the caller forms, is
    below 2^62, exact Python ints otherwise.  A scale past int64 can then
    meet only zero entries."""
    if widest >= _INT64_SAFE:
        return [a.astype(object) * s for a, s in parts]
    return [
        a.astype(np.int64) * s if s < _INT64_SAFE else np.zeros(a.shape, np.int64)
        for a, s in parts
    ]


def exact_phase_matrix(nums_a, den_a: int, nums_b, den_b: int) -> np.ndarray:
    """Float matrix of frac((a_i · b_j) / (den_a · den_b)) with exact reduction.

    nums_* are sequences of equal-length int tuples or (n, d) integer arrays
    (int64 or object); den_* are positive ints.  Entries of the result lie in
    (-1, 1); only their value mod 1 is meaningful.
    """
    assert den_a > 0 and den_b > 0
    na, nb = len(nums_a), len(nums_b)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=np.float64)
    a, b = _int_rows(nums_a), _int_rows(nums_b)
    modulus = den_a * den_b
    max_a, max_b = _peak(a), _peak(b)
    d = a.shape[1]
    bound = d * max_a * max_b
    if bound >= _INT64_SAFE and d * (modulus - 1) ** 2 < _INT64_SAFE:
        # only a·b mod m matters: operands reduced into [0, m) fit the int64 path
        a, b = a % modulus, b % modulus
        bound = d * (modulus - 1) ** 2
    if bound < _INT64_SAFE:
        prod = a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False).T
        if modulus < _INT64_SAFE:
            return np.mod(prod, modulus).astype(np.float64) / float(modulus)
        # |prod| < 2^62 <= modulus: the value is already in (-1, 1).
        if modulus.bit_length() > 1020:
            # beyond double range; true phases are below double resolution
            return np.zeros((na, nb), dtype=np.float64)
        return prod.astype(np.float64) / float(modulus)
    out = np.empty((na, nb), dtype=np.float64)
    rows_b = b.tolist()
    for i, ra in enumerate(a.tolist()):
        for j, rb in enumerate(rows_b):
            n = sum(x * y for x, y in zip(ra, rb)) % modulus
            out[i, j] = n / modulus  # int/int true division is correctly rounded
    return out


def unit_exponentials(phases: np.ndarray) -> np.ndarray:
    """exp(-2πi · phases), vectorized."""
    out = phases * (-2j * np.pi)
    return np.exp(out, out=out)


def budget_rows(row_bytes: int, fixed_bytes: int, what: str) -> int:
    """How many rows of `row_bytes` fit in the budget next to `fixed_bytes`.

    Raises WorkingSetTooLarge when not even one row fits.
    """
    rows = (DENSE_BYTE_BUDGET - fixed_bytes) // max(1, row_bytes)
    if rows < 1:
        raise WorkingSetTooLarge(
            f"{what} needs {fixed_bytes + row_bytes} bytes at least; "
            f"the dense byte budget is {DENSE_BYTE_BUDGET}"
        )
    return rows


def within_budget(nbytes: int) -> bool:
    return nbytes <= DENSE_BYTE_BUDGET


def budget_largest(cost, most: int, what: str) -> int:
    """The largest n in [1, most] whose cost(n) bytes fit the budget; cost
    must not decrease in n.

    Raises WorkingSetTooLarge when not even cost(1) fits.
    """
    if not within_budget(cost(1)):
        raise WorkingSetTooLarge(
            f"{what} needs {cost(1)} bytes at least; "
            f"the dense byte budget is {DENSE_BYTE_BUDGET}"
        )
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if within_budget(cost(mid)):
            lo = mid
        else:
            hi = mid - 1
    return lo


def product_transform(points: PointRows, factors) -> np.ndarray:
    """Π_j Σ_b w_jb exp(-2πi x_i · a_jb) at every point x_i.

    Each factor is (rows, den, weights): atoms a_b = rows[b] / den carrying
    float weights w_b.  For a convolution of the factors this is its
    transform, at points · Σ#atoms exact exponentials instead of
    points · Π#atoms: `sum_set_transform` with the points alone, walked in
    chunks of points that fit DENSE_BYTE_BUDGET next to the result.
    """
    n = len(points)
    out = np.ones(n, dtype=complex)
    if n == 0 or not factors:
        return out
    rows = _int_rows(points.rows)
    axes = list(range(rows.shape[1]))
    rank = max(len(atoms) for atoms, _, _ in factors)
    chunk = budget_rows(
        2 * COMPLEX_BYTES + PHASE_ENTRY_BYTES * rank, COMPLEX_BYTES * n,
        f"a {n}-point transform over factors of up to {rank} atoms",
    )
    for s in range(0, n, chunk):
        out[s : s + chunk] = sum_set_transform((axes, rows[s : s + chunk]), [], points.den, factors)[:, 0]
    return out


def _factor_groups(sizes, cap: int) -> list:
    """Runs of adjacent factor indices whose atom counts multiply to at most
    `cap`; a factor over the cap stays alone."""
    groups, atoms = [], 0
    for i, size in enumerate(sizes):
        if groups and atoms * size <= cap:
            groups[-1].append(i)
            atoms *= size
        else:
            groups.append([i])
            atoms = size
    return groups


def _merged_factor(group):
    """One factor (rows, den, weights) for a run of factors: its atoms are the
    exact integer sums of one atom of each, over the lcm of their
    denominators, and its weights the products of theirs.  The rows are int64
    when every sum fits, exact Python ints otherwise."""
    if len(group) == 1:
        return group[0]
    den = lcm(*(d for _, d, _ in group))
    parts = [(_int_rows(rows), den // d) for rows, d, _ in group]
    steps = _rescaled(parts, sum(_peak(a) * s for a, s in parts))
    rows = steps[0]
    weights = np.asarray(group[0][2], dtype=float)
    for step, (_, _, w) in zip(steps[1:], group[1:]):
        rows = (rows[:, None, :] + step[None, :, :]).reshape(-1, rows.shape[1])
        weights = np.outer(weights, w).ravel()
    return rows, den, weights


def merged_factors(factors) -> list:
    """The factors with runs of adjacent ones merged into groups of at most
    _MERGED_ATOMS atoms, each one factor (rows, den, weights)."""
    sizes = [len(rows) for rows, _, _ in factors]
    return [_merged_factor([factors[i] for i in g]) for g in _factor_groups(sizes, _MERGED_ATOMS)]


def _distinct_rows(a: np.ndarray):
    """(distinct, inverse): the sorted distinct rows of an integer array and
    the index of each row among them."""
    if a.dtype != object:
        distinct, inverse = np.unique(a, axis=0, return_inverse=True)
        return distinct, inverse.reshape(-1)
    keys = np.empty(len(a), dtype=object)
    keys[:] = list(map(tuple, a.tolist()))
    distinct, inverse = np.unique(keys, return_inverse=True)
    rows = np.array([list(t) for t in distinct], dtype=object).reshape(-1, a.shape[1])
    return rows, inverse.reshape(-1)


def _summand_table(block, den: int, rows: np.ndarray, rden: int):
    """e(-v·a) for the points v of a block against a factor's atoms a,
    computed over the distinct projections of the atoms onto the block's
    axes only: (table of shape (#projections, #points), the index of each
    atom's projection)."""
    cols, nums = block
    distinct, inverse = _distinct_rows(rows[:, cols])
    if (distinct.dtype == object) != (nums.dtype == object):
        # one operand dtype: bench/tracer.py multiplies the operands' largest
        # entries, which overflows when an int64 one meets a wide Python int
        distinct, nums = distinct.astype(object), nums.astype(object)
    return unit_exponentials(exact_phase_matrix(distinct, rden, nums, den)), inverse


def sum_set_transform(left, right, den: int, factors) -> np.ndarray:
    """Π_j Σ_b w_jb e(-(u + v)·a_jb) at every sum u + v, shape (#u, #v): u
    runs over the points of the block `left` and v over the product of the
    blocks in `right`, in lexicographic order.

    A block (cols, nums) holds the points whose coordinates on the axes
    `cols` are the rows of the integer array nums over den, and 0 on the
    other axes.  Each factor is (rows, rden, weights): atoms a_b =
    rows[b] / rden carrying float weights w_b.  Since e(-(u + v)·a) =
    e(-u·a)·e(-v·a), a factor is Σ_α e(-u·α) Σ_b w_b e(-v·a_b), the inner
    sum over the atoms whose projection onto the left axes is α: one matrix
    product over the distinct projections α.  Each block's table is
    computed over the distinct projections of the atoms onto its own axes
    and gathered; the right blocks' tables are joined atom by atom (a
    Khatri-Rao product).  `sum_set_rows` sizes the left block.
    """
    n_right = prod(len(nums) for _, nums in right)
    acc = np.ones((len(left[1]), n_right), dtype=complex)
    level = np.empty_like(acc)
    for rows, rden, weights in factors:
        rows = _int_rows(rows)
        table, where = _summand_table(left, den, rows, rden)
        order = np.argsort(where, kind="stable")
        joined = np.asarray(weights, dtype=complex)[order, None]
        for block in right:
            t, at = _summand_table(block, den, rows, rden)
            joined = (joined[:, :, None] * t[at[order]][:, None, :]).reshape(len(order), -1)
        starts = np.flatnonzero(np.diff(where[order], prepend=-1))
        np.matmul(table.T, np.add.reduceat(joined, starts, axis=0), out=level)
        acc *= level
    return acc


def sum_set_rows(n_right: int, rank: int, what: str) -> int:
    """How many left points one `sum_set_transform` call with one right
    block of n_right points may take when no factor has more than `rank`
    atoms: per left point, its rows of the product, of one level and of the
    left table; once, the right table's build, gathered copy and group sums.

    Raises WorkingSetTooLarge when not even one left point fits.
    """
    return budget_rows(
        2 * COMPLEX_BYTES * n_right + PHASE_ENTRY_BYTES * rank,
        (PHASE_ENTRY_BYTES + 2 * COMPLEX_BYTES) * rank * n_right,
        what,
    )


def _gram_plan(n: int, sizes) -> tuple:
    """(factor groups, tile rows) for an n-point Gram over factors of the
    given atom counts: merged groups when their tables fit the budget,
    otherwise the factors alone.  Raises WorkingSetTooLarge when neither fits."""
    for cap in (_MERGED_ATOMS, 1):
        groups = _factor_groups(sizes, cap)
        ranks = [prod(sizes[i] for i in g) for g in groups]
        table_bytes = COMPLEX_BYTES * n * sum(ranks)
        build_bytes = (PHASE_ENTRY_BYTES - COMPLEX_BYTES) * n * max(ranks)
        row_bytes = max(_TILE_ENTRY_BYTES * n, build_bytes)
        if cap == 1 or within_budget(table_bytes + row_bytes):
            rows = budget_rows(row_bytes, table_bytes, f"a {n}-point Gram over {sizes} atoms")
            return groups, rows


def gram_deviation(x_rows, x_den: int, factors) -> float:
    """max |G - I| for the Hermitian Gram matrix G = ∘_j U_j diag(w_j) U_j^H.

    U_j[i, b] = exp(-2πi x_i · a_b) with points x_i = x_rows[i] / x_den, and
    each factor is (rows, den, weights): atoms a_b = rows[b] / den carrying
    float weights w_b.  G is the entrywise product of the factors' Grams,
    so with one factor per convolution level it costs n · Σ#atoms
    exponentials, each reduced exactly, instead of n².  Adjacent factors are
    merged into groups of up to _MERGED_ATOMS atoms first, which leaves G
    unchanged and cuts the matrix products per tile.  G is never held whole:
    its upper triangle is walked in row tiles.  The group tables plus one
    tile row are checked against DENSE_BYTE_BUDGET before anything is
    allocated.
    """
    n = len(x_rows)
    if n == 0:
        return 0.0
    groups, rows = _gram_plan(n, [len(rows) for rows, _, _ in factors])
    # tile entries: cache-sized, at least one full row, inside the budget
    tile = min(max(n, _TILE_TARGET_BYTES // COMPLEX_BYTES), rows * n)

    # tables[j][b, k] = conj(U_j[k, b]) for the j-th group
    tables = []
    for group in groups:
        rows, den, weights = _merged_factor([factors[i] for i in group])
        phases = exact_phase_matrix(rows, den, x_rows, x_den)
        np.negative(phases, out=phases)
        tables.append((unit_exponentials(phases), np.asarray(weights)[:, None]))
    prod_buf = np.empty(tile, dtype=complex)
    factor_buf = np.empty(tile, dtype=complex)
    mod_buf = factor_buf.view(np.float64)  # the modulus pass reuses the factor tile
    dev = 0.0
    s = 0
    while s < n:
        cols = n - s
        m = min(cols, tile // cols)
        g = prod_buf[: m * cols].reshape(m, cols)
        t = factor_buf[: m * cols].reshape(m, cols)
        for j, (table, w) in enumerate(tables):
            left = (table[:, s : s + m].conj() * w).T
            np.matmul(left, table[:, s:], out=t if j else g)
            if j:
                g *= t
        diag = np.arange(m)
        g[diag, diag] -= 1
        dev = max(dev, float(np.abs(g, out=mod_buf[: m * cols].reshape(m, cols)).max()))
        s += m
    return dev
