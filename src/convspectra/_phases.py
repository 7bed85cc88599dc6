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
    max_a = max(int(a.max()), -int(a.min()))
    max_b = max(int(b.max()), -int(b.min()))
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
    points · Π#atoms.  The factors' atoms share one phase table, built for
    chunks of points that fit DENSE_BYTE_BUDGET next to the result.
    """
    n = len(points)
    out = np.ones(n, dtype=complex)
    if n == 0 or not factors:
        return out
    den = lcm(*(d for _, d, _ in factors))
    atoms = [tuple(x * (den // d) for x in row) for rows, d, _ in factors for row in rows]
    chunk = budget_rows(
        PHASE_ENTRY_BYTES * len(atoms), COMPLEX_BYTES * n,
        f"a {n}-point transform over {len(atoms)} factor atoms",
    )
    for s in range(0, n, chunk):
        phases = exact_phase_matrix(points.rows[s : s + chunk], points.den, atoms, den)
        table = unit_exponentials(phases)
        col = 0
        for rows, _, weights in factors:
            out[s : s + chunk] *= table[:, col : col + len(rows)] @ np.asarray(weights)
            col += len(rows)
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
    widest = sum(s * max(int(a.max()), -int(a.min())) for a, s in parts)
    dtype = np.int64 if widest < _INT64_SAFE else object
    rows = np.zeros((1, parts[0][0].shape[1]), dtype=dtype)
    weights = np.ones(1)
    for (a, s), (_, _, w) in zip(parts, group):
        step = a.astype(dtype) * s
        rows = (rows[:, None, :] + step[None, :, :]).reshape(-1, rows.shape[1])
        weights = np.outer(weights, w).ravel()
    return rows, den, weights


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
