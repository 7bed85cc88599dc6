"""Exact phase reduction shared by the Fourier and unitarity kernels.

A phase is a rational number (a·b)/(den_a·den_b) that only matters mod 1.
Reduction happens in exact integer arithmetic *before* any float conversion,
so digits as large as 8^k (k+1)! cost no precision.  An int64 numpy fast path
covers the common case.  When the operands are too large for it but the
modulus is small, both are first reduced mod the modulus, which leaves every
phase unchanged; Python big ints cover only what is left.

Points and atoms are held as exact integer rows over one positive
denominator.  Every dense kernel works under one byte budget, checked before
it allocates.

The sum-set kernel, `sum_set_runs`, evaluates a product transform at every
sum u + v of two point sets from one table per summand, since e(-(u + v)·a)
= e(-u·a)·e(-v·a): each factor is one matrix product instead of one
exponential per sum and atom.  It walks the left points in runs, which its
callers write into their results.  Unitarity is the same kernel on a
difference set: a Gram matrix G[i, k] = F(x_i - x_k) gives max |G - I| =
max |F(δ) - [δ = 0]| over the differences δ of the points.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import WorkingSetTooLarge

_INT64_SAFE = 2**62

# Byte budget shared by the dense kernels: one run of the sum-set kernel with
# its tables.
DENSE_BYTE_BUDGET = 256 << 20
# Peak bytes per entry while one phase table is built: int64 product and
# residue, float phases, complex exponentials.
PHASE_ENTRY_BYTES = 32
COMPLEX_BYTES = 16
# Target bytes of one run of `sum_set_runs` (its product, level and modulus
# buffers), of the left tables of a span of runs and of one run of the
# Khatri-Rao join.  On a 2-CPU machine with OpenBLAS at two threads, runs of
# 1 MiB against 4 MiB: the bench `qscan` child (512 x 256 sums) peaked at
# 31.9 against 34.0 MB RSS; the example-2.6 level-300 Gram deviation held
# 6.3 against 14.7 MB (tracemalloc) in 11-12 against 13-15 ms; Q at 262 144
# frequencies over the level-8 Jorgensen-Pedersen spectrum held 4.3 against
# 10.4 MB and took 0.27-0.28 s, 5% less than at 4 MiB without spans.  At
# times when that machine was loaded, matrix products of 2e5 complex
# multiply-adds, as in those runs, went at a third of their speed, and the Q
# took 0.61-0.65 s against 0.45-0.47 s at 4 MiB without spans.
_RUN_TARGET_BYTES = 1 << 20
# Most atoms of a merged factor group.  On a 2-CPU Xeon with OpenBLAS at two
# threads, the n = 4096 Jorgensen-Pedersen Gram (twelve rank-2 factors) took
# 0.355 s unmerged, 0.20 s at rank 4, 0.155 s at rank 8 and 0.14 s at rank
# 16; rank 16 held 1.6 MB more peak RSS than rank 8.
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


class PointRows:
    """Rational points rows[i] / den over one den > 0: rows are exact int
    tuples or an (n, d) integer array, as `exact_phase_matrix` takes them."""

    def __init__(self, rows, den: int):
        self.rows = rows
        self.den = den

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


def _narrowest(a, bound: int = _INT64_SAFE) -> np.ndarray:
    """Integers (an array, or nested lists of ints) as int64 when every entry
    lies below `bound` (by default 2^62) in absolute value, as exact Python
    ints otherwise: one dtype per set of values."""
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    return a.astype(np.int64 if _peak(a) < bound else object, copy=False)


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
    if max_a == 0 or max_b == 0:
        # every product is 0; the int64 path below would cast an operand past int64
        return np.zeros((na, nb), dtype=np.float64)
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


def within_budget(nbytes: int) -> bool:
    return nbytes <= DENSE_BYTE_BUDGET


def check_budget(nbytes: int, what: str) -> None:
    """Raise WorkingSetTooLarge when `nbytes` do not fit the budget."""
    if not within_budget(nbytes):
        raise WorkingSetTooLarge(
            f"{what} needs {nbytes} bytes at least; "
            f"the dense byte budget is {DENSE_BYTE_BUDGET}"
        )


def budget_rows(row_bytes: int, fixed_bytes: int, what: str) -> int:
    """How many rows of `row_bytes` fit in the budget next to `fixed_bytes`.

    Raises WorkingSetTooLarge when not even one row fits.
    """
    row_bytes = max(1, row_bytes)
    check_budget(fixed_bytes + row_bytes, what)
    return (DENSE_BYTE_BUDGET - fixed_bytes) // row_bytes


def budget_largest(cost, most: int, what: str) -> int:
    """The largest n in [1, most] whose cost(n) bytes fit the budget; cost
    must not decrease in n.

    Raises WorkingSetTooLarge when not even cost(1) fits.
    """
    check_budget(cost(1), what)
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
    points · Π#atoms: the runs of `sum_set_runs` with the points alone.  The
    result, 16 bytes per point, is checked against DENSE_BYTE_BUDGET with
    the kernel's run, before either is allocated.
    """
    n = len(points)
    if n == 0 or not factors:
        return np.ones(n, dtype=complex)
    rows = _int_rows(points.rows)
    runs = sum_set_runs((list(range(rows.shape[1])), rows), [], points.den, factors, held=COMPLEX_BYTES * n)
    out = np.empty(n, dtype=complex)
    for s, values in runs:
        out[s : s + len(values)] = values[:, 0]
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
    weights = np.asarray(group[0][2], dtype=float)
    for _, _, w in group[1:]:
        weights = np.outer(weights, w).ravel()
    return sum_rows([(rows, den // d) for rows, d, _ in group]), den, weights


def merged_factors(factors) -> list:
    """The factors with runs of adjacent ones merged into groups of at most
    _MERGED_ATOMS atoms, each one factor (rows, den, weights)."""
    sizes = [len(rows) for rows, _, _ in factors]
    return [_merged_factor([factors[i] for i in g]) for g in _factor_groups(sizes, _MERGED_ATOMS)]


def _lex_key(rows: np.ndarray):
    """One order-preserving int64 key per int64 row, or None when the rows'
    bounding box has 2^63 points or more."""
    lo = [int(rows[:, j].min()) for j in range(rows.shape[1])]
    span = [int(rows[:, j].max()) - x + 1 for j, x in enumerate(lo)]
    if prod(span) >= _INT64_SAFE * 2:
        return None
    key = rows[:, 0] - lo[0]
    for j in range(1, rows.shape[1]):
        key = key * span[j] + (rows[:, j] - lo[j])
    return key


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic argsort of int64 rows: a stable sort of their
    keys runs in linear time on the few presorted runs the kernels produce
    (a sorted set plus a handful of moved digits, or two sorted sets)."""
    key = _lex_key(rows) if len(rows) > 1 else np.arange(len(rows))
    return np.argsort(key, kind="stable") if key is not None else np.lexsort(rows.T[::-1])


def _distinct_order(a: np.ndarray):
    """(order, new) for the rows of an integer array: the order that sorts
    them, and in that order a mask of the first row of each run of equal
    rows; None when they are already sorted and distinct.  Rows with an int64
    key sort by it, the rest (object rows, or a box of 2^63 points or more)
    by np.lexsort over their columns; both keep np.unique's first
    occurrences, without its first-call import of numpy.ma."""
    key = _lex_key(a) if a.dtype != object and len(a) else None
    if key is not None and bool((key[1:] > key[:-1]).all()):
        return None
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    if key is not None:
        order = np.argsort(key, kind="stable")
        key = key[order]
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
    else:
        order = np.lexsort(a.T[::-1])
        rows = a[order]
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
        del rows
    return order, new


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct rows of an integer array: `_distinct_rows`
    without the inverse and its cumsum, which hold one index per row each."""
    found = _distinct_order(a)
    return a if found is None else a[found[0][found[1]]]


def _distinct_rows(a: np.ndarray):
    """(distinct, inverse): the sorted distinct rows of an integer array and
    the index of each row among them."""
    found = _distinct_order(a)
    if found is None:
        return a, np.arange(len(a))
    order, new = found
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


def _axis_sets(rows: np.ndarray):
    """Per axis the sorted distinct values of integer rows, as one-column
    arrays, when the rows are distinct and make up exactly the product of
    those values; None otherwise (and for no rows)."""
    rows = _int_rows(rows)
    if not len(rows):
        return None
    axes = [_distinct(rows[:, [c]]) for c in range(rows.shape[1])]
    return axes if prod(map(len, axes)) == len(rows) == len(_distinct(rows)) else None


def _block_table(block, den: int, distinct: np.ndarray, rden: int) -> np.ndarray:
    """e(-v·α) for the points v of a block against the distinct projections
    α of a factor's atoms onto the block's axes, shape (#α, #points)."""
    nums = block[1]
    if (distinct.dtype == object) != (nums.dtype == object):
        # one operand dtype: bench/tracer.py multiplies the operands' largest
        # entries, which overflows when an int64 one meets a Python int past int64
        distinct, nums = distinct.astype(object), nums.astype(object)
    return unit_exponentials(exact_phase_matrix(distinct, rden, nums, den))


def _group_sums(weights, tables, lo: int, hi: int, starts, den: int, rden: int, picks=None) -> np.ndarray:
    """Σ_b w_b Π_k e(-v_k·a_b) over the atoms b of each group of lo..hi (the
    groups start at the offsets `starts`) at every point v of the right
    product, in lexicographic order, or with `picks`, one index array per
    right block, at the points (picks[0][c], picks[1][c], ...) only: each
    product is taken in the same order, and each group summed over the
    same atoms, as at every point."""
    joined = weights[lo:hi, None]
    for k, (block, t, at) in enumerate(tables):
        if picks is None:
            t = t[at[lo:hi]] if at is not None else _block_table(block, den, t[lo:hi], rden)
            joined = (joined[:, :, None] * t[:, None, :]).reshape(hi - lo, -1)
            continue
        if at is not None:
            t = t[at[lo:hi, None], picks[k]]
        else:  # the atoms' own table, on the points picked
            seen = np.zeros(len(block[1]), dtype=bool)
            seen[picks[k]] = True
            need = (block[0], block[1][seen])
            t = _block_table(need, den, t[lo:hi], rden)[:, np.cumsum(seen)[picks[k]] - 1]
        joined = joined * t
    return np.add.reduceat(joined, starts, axis=0)


def _right_sums(groups, right, den: int, factors):
    """Per factor (rows, rden, weights) with its groups (the distinct
    projections α of its atoms onto the left axes and the index of each
    atom's α): α, rden, and Σ_b w_b e(-v·a_b) over the atoms projecting to
    α at every point v of the right product, (#α, #v).

    The right blocks' tables are joined atom by atom (a Khatri-Rao product)
    in runs of at most `_join_step` atoms that end where a group of atoms
    with one α ends; a group of more atoms is joined alone, in runs of right
    points.  Each group is summed by one `np.add.reduceat` over all its
    atoms, whose order along the atoms is the same in every run of right
    points, so the sums do not depend on the runs."""
    sizes = [len(block[1]) for block in right]
    n_right = prod(sizes)
    step = _join_step(n_right)
    for (rows, rden, weights), (distinct, where) in zip(factors, groups):
        rows = _int_rows(rows)
        order = np.argsort(where, kind="stable")
        group = where[order]
        weights = np.asarray(weights, dtype=complex)[order]
        tables = []
        for block in right:
            projections, at = _distinct_rows(rows[:, block[0]])
            if len(projections) * len(block[1]) > step * n_right:
                # past one run: each run tables its own atoms' projections
                tables.append((block, projections[at[order]], None))
            else:
                tables.append((block, _block_table(block, den, projections, rden), at[order]))
        bounds = np.flatnonzero(np.diff(group, prepend=-1, append=len(distinct)))
        grouped, lo = None, 0
        while lo < len(order):
            hi = int(bounds[bounds <= lo + step][-1])
            if hi - lo == len(order):  # one run
                grouped = _group_sums(weights, tables, lo, hi, bounds[:-1], den, rden)
                break
            if grouped is None:
                grouped = np.empty((len(distinct), n_right), dtype=complex)
            if hi > lo:  # whole groups, at most step atoms
                starts = np.flatnonzero(np.diff(group[lo:hi], prepend=-1))
                grouped[group[lo + starts]] = _group_sums(weights, tables, lo, hi, starts, den, rden)
            else:  # one group of more atoms, in runs of right points
                hi = int(bounds[bounds > lo][0])
                width = max(1, step * n_right // (hi - lo))
                for c in range(0, n_right, width):
                    points = np.arange(c, min(c + width, n_right))
                    picks = np.unravel_index(points, sizes) if sizes else ()
                    grouped[group[lo], points] = _group_sums(weights, tables, lo, hi, [0], den, rden, picks)[0]
            lo = hi
        yield distinct, rden, grouped


def _join_step(n_right: int) -> int:
    """Atoms per run of the Khatri-Rao join over n_right right points."""
    return max(1, _RUN_TARGET_BYTES // (COMPLEX_BYTES * n_right))


def sum_set_sizes(right_sizes, ranks, group: int = 1) -> tuple:
    """(bytes per left point, bytes once) of `sum_set_runs` with right blocks
    of these sizes and factors of these atom counts, at most `group` atoms of
    a factor sharing one projection onto the left axes: per left point, its
    rows of the product, of one level and of a float modulus, and its row of
    the left table; once, the right tables as built, one run of the
    Khatri-Rao join (min(rank, step) rows: it is formed in runs of
    `_join_step` atoms, and a larger group in runs of as many entries, or of
    one right point, group / #v rows, when that holds more) with its group
    sums (at most rank rows), and every factor's group sums, kept across
    runs."""
    n_right, rank = prod(right_sizes), max(ranks, default=0)
    join = rank + min(rank, max(_join_step(n_right), -(-group // n_right)))
    once = PHASE_ENTRY_BYTES * rank * sum(right_sizes) + COMPLEX_BYTES * n_right * (join + sum(ranks))
    return (2 * COMPLEX_BYTES + 8) * n_right + PHASE_ENTRY_BYTES * rank, once


def sum_set_runs(left, right, den: int, factors, upper: bool = False, held: int = 0):
    """Π_j Σ_b w_jb e(-(u + v)·a_jb) at every sum u + v, in runs of left
    points: an iterator of (start, values of the run), shape (#run, #v),
    where u runs over the points of the block `left` and v over the product
    of the blocks in `right`, in lexicographic order.

    A block (cols, nums) holds the points whose coordinates on the axes
    `cols` are the rows of the integer array nums over den, and 0 on the
    other axes.  Each factor is (rows, rden, weights): atoms a_b =
    rows[b] / rden carrying float weights w_b.  Since e(-(u + v)·a) =
    e(-u·a)·e(-v·a), a factor is Σ_α e(-u·α) Σ_b w_b e(-v·a_b), the inner
    sum over the atoms whose projection onto the left axes is α: one matrix
    product over the distinct projections α.

    A run holds about _RUN_TARGET_BYTES of the per-point bytes
    `sum_set_sizes` counts, and every factor's right group sums are formed
    once.  One run's bytes, together with the `held` bytes of the caller's
    result, are checked against DENSE_BYTE_BUDGET by this call, before
    anything is allocated (WorkingSetTooLarge).  Past one run, the left
    tables of a span of runs are built at once when they fit in
    _RUN_TARGET_BYTES and in what the budget leaves next to one run.

    With `upper`, the right is one block whose points pair with the left
    points in order, and the run from left point s takes only the right
    points from s on: its values start at column s."""
    n, sizes = len(left[1]), [len(b[1]) for b in right]
    ranks = [len(rows) for rows, _, _ in factors]
    groups = [_distinct_rows(_int_rows(rows)[:, left[0]]) for rows, _, _ in factors]
    group = max((int(np.bincount(where).max()) for _, where in groups if len(where)), default=1)
    row, fixed = sum_set_sizes(sizes, ranks, group)
    what = f"a sum set of {n} x {prod(sizes)} points over factors of up to {max(ranks, default=0)} atoms"
    if held:
        what += f", next to a {held}-byte result"
    count = min(budget_rows(row, fixed + held, what), max(1, _RUN_TARGET_BYTES // row))
    span = count
    if count < n:
        # a span's tables: every factor's, complex, with one of them being built
        table = COMPLEX_BYTES * sum(ranks) + PHASE_ENTRY_BYTES * max(ranks)
        room = min(_RUN_TARGET_BYTES, DENSE_BYTE_BUDGET - fixed - held - count * row)
        span = max(1, room // (table * count)) * count
    return _runs(left, right, den, factors, groups, upper, count, span)


def _runs(left, right, den: int, factors, groups, upper: bool, count: int, span: int):
    """The runs of `sum_set_runs`, `count` left points each.  When a span of
    `span` left points holds more than one run, every factor's left table is
    built once per span and each run reads its columns.  A run's values
    start as its first factor's level, a fresh array, and take the other
    levels from one scratch buffer of the call."""
    cols, nums = left
    n, width = len(nums), prod(len(b[1]) for b in right)
    sums = _right_sums(groups, right, den, factors)
    sums = list(sums) if count < n else sums
    level = np.empty(min(count, n) * width, dtype=complex)  # one scratch for every run
    for lo in range(0, max(n, 1), span):
        block = (cols, nums[lo : lo + span])
        tables = [_block_table(block, den, d, rden) for d, rden, _ in sums] if span > count else None
        for s in range(lo, min(lo + span, max(n, 1)), count):
            run = (cols, nums[s : s + count])
            first = s if upper else 0
            shape = (len(run[1]), width - first)
            acc, out = None, level[: prod(shape)].reshape(shape)
            for j, (distinct, rden, grouped) in enumerate(sums):
                if tables is None:
                    table = _block_table(run, den, distinct, rden)
                else:
                    table = tables[j][:, s - lo : s - lo + shape[0]]
                if acc is None:
                    acc = np.matmul(table.T, grouped[:, first:])
                else:
                    np.matmul(table.T, grouped[:, first:], out=out)
                    acc *= out
                del table  # a run's own table goes before the next is built
            yield s, acc if acc is not None else np.ones(shape, dtype=complex)


def sum_rows(parts) -> np.ndarray:
    """Every sum of one row a·s of each (integer rows a, scale s), in
    lexicographic order of the picks: int64 when the widest sum fits, exact
    Python ints otherwise (a scale past int64 then meets only zeros)."""
    parts = [(_int_rows(a), s) for a, s in parts]
    if sum(_peak(a) * s for a, s in parts) >= _INT64_SAFE:
        steps = [a.astype(object) * s for a, s in parts]
    else:
        steps = [a.astype(np.int64) * s if s < _INT64_SAFE else 0 * a.astype(np.int64) for a, s in parts]
    rows = steps[0]
    for step in steps[1:]:
        rows = (rows[:, None, :] + step[None, :, :]).reshape(-1, rows.shape[1])
    return rows


def difference_deviation(summands, den: int, factors) -> float:
    """max |G - I| for the Gram G[i, k] = F(x_i - x_k) over the points x of
    the collision-free Minkowski sum X of the summands (integer rows over
    den), F the product transform of the factors, merged first.

    G - I is F(δ) - [δ = 0] over the differences δ, and X - X is the sum set
    Σ_j (M_j - M_j): the distinct differences of a low run of summands go on
    the left of `sum_set_runs` and those of the high run on the right, each
    on the axes where they are not all zero, so a sum is 0 only where both
    parts are.  F is the transform of a probability measure, so |F(-δ)| =
    |F(δ)|, and both sides are symmetric: the left rows from the zero row on
    (u >= 0 in lexicographic order), with every right point, cover every
    |F|.  When a summand's pairwise differences do not fit the budget, X
    goes on the left and -X on the right, and each x_i meets only the x_k
    with k >= i."""
    # all pairs of a summand at 32 bytes per coordinate: the differences,
    # their sorted copy and the sort's index arrays
    upper = not all(within_budget(32 * len(m) * np.size(m)) for m in summands)
    if not upper:
        diffs = []
        for m in map(_int_rows, summands):
            m = m.astype(object) if _peak(m) >= _INT64_SAFE else m
            # the pairs differ only on the summand's nonzero axes
            cols = [c for c in range(m.shape[1]) if m[:, c].any()] or [0]
            d = _distinct(sum_rows([(m[:, cols], 1), (-m[:, cols], 1)]))
            diffs.append(np.zeros((len(d), m.shape[1]), dtype=d.dtype))
            diffs[-1][:, cols] = d
        sizes = [len(d) for d in diffs]
        k = min(range(1, len(diffs) + 1), key=lambda k: max(prod(sizes[:k]), prod(sizes[k:])))
        blocks = []
        for run in (diffs[:k], diffs[k:] or [np.zeros_like(diffs[0][:1])]):
            rows = _distinct(sum_rows([(d, 1) for d in run]))
            cols = [c for c in range(rows.shape[1]) if rows[:, c].any()] or [0]
            at = int(np.flatnonzero((rows == 0).all(axis=1))[0])
            blocks.append(((cols, rows[:, cols]), at))
        ((cols, rows), left_at), (right, right_at) = blocks
        left = (cols, rows[left_at:])  # u >= 0: the zero row and those after it
        zero = np.full(len(left[1]), -1)
        zero[0] = right_at  # the index of the right point v with u + v = 0, or -1
    else:
        x = sum_rows([(m, 1) for m in summands])
        axes = list(range(x.shape[1]))
        left, right, zero = (axes, x), (axes, -x), np.arange(len(x))
    dev = 0.0
    for s, values in sum_set_runs(left, [right], den, merged_factors(factors), upper):
        hit = np.flatnonzero(zero[s : s + len(values)] >= 0)
        values[hit, zero[s + hit] - s * upper] -= 1  # upper runs start at column s
        dev = max(dev, float(np.abs(values).max(initial=0.0)))
    return dev
