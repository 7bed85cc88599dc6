"""Digit sets and Hadamard triples.

A digit set is one sorted array of integer rows (`DigitSet.rows`), or a
product of per-axis values with a few exceptions that builds those rows on
first use.  A Hadamard triple (R, B, L) pairs an expanding integer matrix R
with digit sets B and L such that the matrix [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ]
is unitary; this is exactly the condition that makes the exponentials
indexed by L an orthonormal family for the uniform measure on R^{-1}B.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np

from ._phases import (
    _INT64_SAFE,
    _RUN_TARGET_BYTES,
    _axis_sets,
    _distinct,
    _int_rows,
    _lex_order,
    _narrowest,
    _peak,
    check_budget,
    sum_rows,
)
from .errors import (
    CongruentDigits,
    DimensionMismatch,
    EmptySet,
)
from .exactmat import IntMatrix, invert

# A digit set's rows are int64 when every entry lies below this in absolute
# value, and exact Python ints otherwise; `numerators` decides per call
# whether int64 products of the entries stay exact.
_HEADROOM = 1 << 31

# Digit rows are (n, d) arrays in column-major order: each kernel below walks
# the d columns, which are contiguous, rather than reducing along short rows.


def _every_column(rows: np.ndarray, test) -> np.ndarray:
    """Row mask: test(column) holds in every column."""
    mask = test(rows[:, 0])
    for j in range(1, rows.shape[1]):
        mask &= test(rows[:, j])
    return mask


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

    @cached_property
    def spans(self) -> tuple:
        """Per axis (first value, last value, whether the values between run
        without gaps), as Python ints; an empty axis spans nothing."""
        return tuple(
            (int(a[0]), int(a[-1]), int(a[-1]) - int(a[0]) == len(a) - 1) if len(a) else (1, 0, False)
            for a in self.axes
        )

    def __contains__(self, v) -> bool:
        """Whether the row v lies in the product of the axes: every entry
        lies between its axis' ends and, on an axis with gaps, is one of
        its values."""
        return all(
            lo <= x <= hi and (whole or _holds(a, x)) for a, (lo, hi, whole), x in zip(self.axes, self.spans, v)
        )

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

    `rows` is a read-only, lexicographically sorted, column-major (n, d)
    array: int64 when every entry lies below 2^31 in absolute value, and
    exact Python ints in an object array otherwise (example-2.6's far digit
    k + 8^k (k+1)! makes its level's rows object).  The dtype is fixed by
    the digits alone, so two sets are equal exactly when their rows are.
    `vectors`, the whole set as one sorted tuple, is built on first use only.

    A set may instead be held in structured form, `product`: a product of
    per-axis values with a few removed and added rows (`Product`), as the
    builtin generators and `mod_reduce` give it.  `rows` is then built on
    first use, by the same rule, by the kernels that need rows; the kernels
    that read `product` (see `axis_numerators`) never build it.  A
    structured set equals and hashes like its explicit twin.
    """

    def __init__(self, dim: int, rows: np.ndarray | None = None, product: Product | None = None):
        self.dim = dim
        self.product = product
        if product is None:
            self.rows = rows
            self._len = len(rows)
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
        return cls._from_rows(d, vecs)

    @classmethod
    def _from_rows(cls, dim: int, rows) -> "DigitSet":
        """Internal constructor from validated integer rows in any order, with
        repeats: an int64 or object (n, dim) array, or a list of int tuples."""
        rows = _narrowest(_int_rows(rows).reshape(-1, dim), _HEADROOM)
        if len(rows) > 1:
            rows = _distinct(rows)
        return cls(dim, _frozen(rows))

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
        p.removed, p.added = tuple(sorted(out)), tuple(sorted(extra))
        return cls(len(p.axes), product=p)

    @cached_property
    def rows(self) -> np.ndarray:
        """The rows of a structured set: the product rows in lexicographic
        order, without the removed ones, with the added ones."""
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
        if p.added:  # rows outside the product: no two rows are equal
            rows = np.concatenate([rows, _int_rows(p.added)])
            rows = _narrowest(_pick(rows, _lex_order(rows)), _HEADROOM)
        return _frozen(rows)

    def _subset(self, mask: np.ndarray) -> "DigitSet":
        """The digits picked by a mask; order is kept."""
        return DigitSet(self.dim, _frozen(_narrowest(_pick(self.rows, mask), _HEADROOM)))

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitSet):
            return NotImplemented
        return self.dim == other.dim and len(self) == len(other) and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        rows = self.rows
        return hash((self.dim, rows.tobytes() if rows.dtype != object else tuple(rows.ravel().tolist())))

    def __repr__(self) -> str:
        return f"DigitSet(dim={self.dim}, vectors={self.vectors!r})"

    def _row(self, i: int) -> tuple:
        return tuple(self.rows[i].tolist())

    @cached_property
    def vectors(self) -> tuple:
        return tuple(map(tuple, self.rows.tolist()))

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, v) -> bool:
        v = tuple(v)
        i = bisect_left(range(len(self)), v, key=self._row)
        return i < len(self) and self._row(i) == v

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
    """Masks over the rows of a and of b marking the digits the two sets
    share: (a_mask, b_mask)."""
    both = np.concatenate([a.rows, b.rows])
    order = _lex_order(both)  # stable: an a row precedes its b twin
    twin = _every_column(both, lambda c: c[order[1:]] == c[order[:-1]])
    a_mask = np.zeros(len(a), dtype=bool)
    b_mask = np.zeros(len(b), dtype=bool)
    a_mask[order[:-1][twin]] = True
    b_mask[order[1:][twin] - len(a)] = True
    return a_mask, b_mask


# ===== unitarity check =====


def hadamard_check(r: IntMatrix, b: DigitSet, l: DigitSet) -> bool:
    """Decide exactly whether [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is unitary.

    Write R⁻¹b = y/den with den = |det R|.  The Gram entry of b ≠ b' is
    (1/#B) Σ_ℓ ζ^{(y_b − y_b')·ℓ} with ζ = e^{-2πi/den}, a sum of den-th
    roots of unity with integer weights, so `_gram_is_identity` decides in
    integers whether every one vanishes: per axis when the reduced rows
    y mod den and L are both products of their axis sets, over the distinct
    reduced differences otherwise.  A sum of k terms needs only the primes
    p <= k of den, found by trial division (`_small_primes`).  No float Gram
    is formed.  A size mismatch (#B ≠ #L) gives False rather than raising:
    the matrix is then rectangular and cannot be unitary.
    """
    if r.dim != b.dim or r.dim != l.dim:
        raise DimensionMismatch("matrix and digit sets must share a dimension")
    return len(b) == len(l) and _gram_is_identity(r, b, l)


def _reduced_rows(r: IntMatrix, b: DigitSet) -> tuple:
    """(den, axes, reduced) for `hadamard_check`: R⁻¹B = y/den, and the rows
    y mod den.  When those rows are the product of their axis sets, `axes`
    holds the sets as increasing 1-D arrays and `reduced` is None; otherwise
    `axes` is None and `reduced` holds the rows.  Structured sets under a
    diagonal R give their axis sets without building rows; explicit ones
    are tested for a product form by `_phases._axis_sets`."""
    an = axis_numerators(r, b)
    if an is not None:
        den = an.den
        axes = [_increasing(y % den) for y in an.axes]
        removed, added = ({tuple(x % den for x in y) for y in rows} for rows in (an.removed, an.added))
        # every added digit lands on a removed one: the reduced rows are the
        # whole product of the reduced axes
        distinct = all(len(a) == len(y) for a, y in zip(axes, an.axes)) and len(added) == len(an.added)
        if distinct and added == removed:
            return den, axes, None
    den, y = numerators(r, b)
    reduced = y % den
    axes = _axis_sets(reduced)
    return (den, None, reduced) if axes is None else (den, [a[:, 0] for a in axes], None)


# ----- exact vanishing sums of roots of unity -----


def _small_primes(n: int, k: int) -> tuple:
    """The primes p <= k of n >= 1, increasing, by trial division up to
    min(k, √m), m the part of n not yet divided out; a part 1 < m <= k left
    over has no factor below its square root, so it is prime."""
    primes, m, p = [], n, 2
    while p <= k and p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if 1 < m <= k:
        primes.append(m)
    return tuple(primes)


def _vanishes(terms: dict, n: int, primes) -> bool:
    """Whether Σ w·ζ_n^e over terms {e: w} is 0, for distinct exponents e in
    [0, n), nonzero integer weights w and `primes` holding every prime
    p <= #terms of n (`_small_primes`).

    Mann (1965): a vanishing sum of k roots of unity with rational weights
    and no vanishing proper subsum has, once rotated, only roots whose order
    divides the product of the primes <= k.  A vanishing sum splits into such
    minimal ones, so with g the product of the primes p <= k of n, it
    vanishes exactly when every class of its exponents mod n/g does, as
    Σ w·ζ_g^{⌊e/(n/g)⌋}; every modulus after that divides the squarefree g.
    De Bruijn (1953): when n = g = p·m with p prime, the CRT writes the sum,
    up to an automorphism of Q(ζ_n), as Σ_a ζ_p^a A_a with A_a the terms
    e ≡ a mod p at exponents e mod m in Q(ζ_m), and it vanishes exactly
    when every A_a is the same: all of them 0 when a class is empty, every
    A_a − A_r against the smallest class A_r otherwise.  One nonzero term
    never vanishes."""
    stack = [(terms, n)]
    while stack:
        terms, n = stack.pop()
        if len(terms) < 2:
            if terms:
                return False
            continue
        g = 1
        for p in primes:
            if p <= len(terms) and n % p == 0:
                g *= p
        if g < n:
            m = n // g
            groups = {}
            for e, w in terms.items():
                groups.setdefault(e % m, {})[e // m] = w
            stack.extend((group, g) for group in groups.values())
            continue
        q = max(p for p in primes if n % p == 0)
        m = n // q
        parts = {}
        for e, w in terms.items():
            parts.setdefault(e % q, {})[e % m] = w
        if len(parts) < q:
            stack.extend((part, m) for part in parts.values())
            continue
        ref = min(parts.values(), key=len)
        for part in parts.values():
            if part is not ref:
                diff = dict(part)
                for e, w in ref.items():
                    diff[e] = diff.get(e, 0) - w
                stack.append(({e: w for e, w in diff.items() if w}, m))
    return True


def _axis_is_orthogonal(y: np.ndarray, ls: np.ndarray, den: int, primes) -> bool:
    """Whether Σ_{ℓ ∈ ls} ζ^{δℓ} = 0, ζ = e^{-2πi/den}, for every difference
    δ ≠ 0 of the distinct 1-D values y.

    With h the gcd of the ℓ − ℓ_0 and v = (ℓ − ℓ_0)/h, the sum is ζ^{δℓ_0}
    Σ_v ζ^{δhv}.  With g = gcd(den, δ), ζ^{δh} has order n = (den/g) /
    gcd(den/g, h) and is ζ_n^u for a unit u mod n, so the sum vanishes
    exactly when Σ_v ζ_n^v does (the automorphism ζ_n -> ζ_n^u): one test
    per distinct g, not per δ, the g found pair by pair in Python ints."""
    if len(y) < 2:
        return True
    ls = ls.tolist()
    h = 0
    for x in ls:
        h = gcd(h, x - ls[0])
    if h == 0:  # one ℓ: every sum is a single root of unity
        return False
    v = [(x - ls[0]) // h for x in ls]
    y, orders = y.tolist(), set()
    for g in {gcd(den, a - b) for i, a in enumerate(y) for b in y[:i]}:
        n = den // g
        orders.add(n // gcd(n, h))
    for n in sorted(orders):
        counts = {}
        for x in v:
            counts[x % n] = counts.get(x % n, 0) + 1
        if not _vanishes(counts, n, primes):
            return False
    return True


def _sums_vanish(e: np.ndarray, den: int, primes) -> bool:
    """Whether Σ_j ζ^{e_j} = 0, ζ = e^{-2πi/den}, for every row of the
    exponent table e (int64 or exact ints in [0, den), overwritten), with
    `primes` holding every prime p <= e.shape[1] of den (`_small_primes`).

    With g the product of those primes and m = den/g, a row's sum vanishes
    exactly when each class of its exponents mod m does, as Σ c_t ζ_g^t over
    t = ⌊e/m⌋ with counts c_t (Mann 1965, see `_vanishes`).  Q(ζ_g) is the
    tensor product of the Q(ζ_p), p | g, and the one relation of 1, ζ_p,
    ..., ζ_p^{p-1} over Q is their sum.  So with a class's counts laid out as
    a p_1 × ... × p_k tensor by t -> (t mod p_i)_i (the CRT), it vanishes
    exactly when the tensor is 0 once the mean is taken out along every
    axis, which p·c − Σ_axis c does in integers: each axis scales the
    counts by at most 2p, to below #L·g·2^k, which the budget of
    `_rows_are_orthogonal` keeps under 2^56.  Each row is sorted by the key
    (e mod m)·g + ⌊e/m⌋, so that a class is a run of equal key // g."""
    g = math.prod(primes)
    m = den // g
    t = e // m
    e %= m
    e *= g
    e += t
    e.sort(axis=1)
    key = e // g
    new = np.ones(e.shape, dtype=bool)
    new[:, 1:] = key[:, 1:] != key[:, :-1]
    del key
    cls = np.cumsum(new, axis=None) - 1
    t = (e % g).astype(np.int64).ravel()
    at = np.zeros(len(t), dtype=np.int64)
    for p in primes:
        at = at * p + t % p
    counts = np.bincount(cls * g + at, minlength=(int(cls[-1]) + 1) * g).reshape(-1, *primes)
    for axis, p in enumerate(primes, start=1):
        counts = p * counts - counts.sum(axis=axis, keepdims=True)
    return not counts.any()


def _rows_are_orthogonal(den: int, axes, reduced, l_rows: np.ndarray) -> bool:
    """Whether Σ_ℓ ζ^{δ·ℓ} = 0, ζ = e^{-2πi/den}, for every distinct
    difference δ ≠ 0 mod den of the reduced rows: the product of `axes` when
    they are given, the distinct rows `reduced` otherwise.  Only one δ of
    each pair {δ, −δ} is tested.

    The differences are the distinct ones of each axis joined, or those of
    all pairs of rows, at 32 bytes per coordinate of each one formed: the
    differences, their reduced or filtered copy and a sort's keys and index
    arrays.  Each table of them, with one run of the tables of
    `_sums_vanish`, is charged against the budget before it is formed.  The #δ × #L table of exponents δ·ℓ mod den goes to
    `_sums_vanish` in runs of about _RUN_TARGET_BYTES."""
    n_l, d = l_rows.shape
    primes = _small_primes(den, n_l)
    g = math.prod(primes)
    # per row: the exponents, their class starts and ids and tensor indices
    # with their temporaries, 56 bytes an entry; per class (at most
    # min(#L, den/g) in a row) g counts and the projection's copy
    row_bytes = 56 * n_l + 16 * min(n_l, den // g) * g
    step = max(1, _RUN_TARGET_BYTES // row_bytes)
    what = f"the exact test of {n_l} spectrum digits against {d}-D differences"
    if axes is None:
        check_budget(32 * d * len(reduced) ** 2 + step * row_bytes, what)
        deltas = _distinct(sum_rows([(reduced, 1), (-reduced, 1)]) % den)
    else:
        check_budget(32 * max(map(len, axes)) ** 2 + step * row_bytes, what)  # one axis's pairs
        diffs = [_increasing(np.subtract.outer(a, a).ravel() % den) for a in axes]
        check_budget(32 * d * math.prod(map(len, diffs)) + step * row_bytes, what)  # their join
        eye = np.eye(d, dtype=np.int64)
        deltas = sum_rows([(x[:, None] * eye[c], 1) for c, x in enumerate(diffs)])
    deltas = deltas[~_every_column(deltas, lambda c: c == 0)]
    # the sum at −δ is the conjugate of the sum at δ: keep one δ of each pair
    # {δ, −δ mod den}, the one whose first coordinate off {0, den/2} lies
    # below den/2, or δ itself when 2δ ≡ 0
    keep = np.zeros(len(deltas), dtype=bool)
    tie = ~keep
    for c in range(d):
        col = deltas[:, c]
        rest = den - col
        keep |= tie & (col > 0) & (col < rest)
        tie &= (col == 0) | (col == rest)
    deltas = deltas[keep | tie]
    wide = object in (deltas.dtype, l_rows.dtype) or d * den * den >= _INT64_SAFE
    dtype = object if wide else np.int64
    deltas, ls = deltas.astype(dtype, copy=False), l_rows.astype(dtype) % den
    for lo in range(0, len(deltas), step):
        run = deltas[lo : lo + step]
        e = np.zeros((len(run), n_l), dtype=dtype)
        for c in range(d):
            e += np.multiply.outer(run[:, c], ls[:, c])
        e %= den
        if not _sums_vanish(e, den, primes):
            return False
    return True


def _gram_is_identity(r: IntMatrix, b: DigitSet, l: DigitSet) -> bool:
    """Whether `hadamard_check`'s Gram is exactly I, for #B = #L.

    When the reduced rows and L are the products of their axis sets, a Gram
    entry is the product of per-axis sums S_c(δ_c), and S_c(0) = #L_c: every
    entry off the diagonal vanishes exactly when each axis's sums vanish at
    its differences δ_c ≠ 0 (`_axis_is_orthogonal`; an axis equal to an
    earlier one is not tested again).  Otherwise the test runs over the
    distinct differences of the reduced rows (`_rows_are_orthogonal`), and
    two congruent digits give an entry of #L/#B.  Each sum has at most
    max #L_c or #L terms, and only the primes of den up to that count enter
    the test."""
    p = l.product
    if p is not None and not (p.removed or p.added):
        l_axes = list(p.axes)
    else:
        l_axes = _axis_sets(l.rows)
        l_axes = None if l_axes is None else [a[:, 0] for a in l_axes]
    den, axes, reduced = _reduced_rows(r, b)
    if axes is not None and l_axes is not None:
        primes = _small_primes(den, max(map(len, l_axes)))
        done = []
        for y, ls in zip(axes, l_axes):
            if any(np.array_equal(y, y2) and np.array_equal(ls, l2) for y2, l2 in done):
                continue
            if not _axis_is_orthogonal(y, ls, den, primes):
                return False
            done.append((y, ls))
        return True
    if axes is None and len(_distinct(reduced)) < len(reduced):
        return False  # congruent digits
    return _rows_are_orthogonal(den, axes, reduced, l.rows)


# ===== reduction mod R·Z^d =====


def numerators(r: IntMatrix, b: DigitSet):
    """(den, y) with R⁻¹v = y/den for every digit v: the rows
    y = sign(det R)·adj(R)·v in set order, and den = |det R|.

    y comes out as int64 when every quantity derived from it (2y + den, the
    l1 norm of y, and R·⌊(2y + den)/(2·den)⌋) stays below 2^62; otherwise
    it holds exact Python ints in an object array.  Callers run the same
    numpy expressions on both.
    """
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    det, adj = invert(r)
    den, d = abs(det), r.dim
    adj_t = [[x if det > 0 else -x for x in col] for col in zip(*adj.rows)]
    y_max = d * max(abs(x) for row in adj.rows for x in row)
    y_max *= _peak(b.rows)
    r_max = max(abs(x) for row in r.rows for x in row)
    fast = max(2 * d * y_max + den, d * r_max * (y_max // den + 1)) < _INT64_SAFE
    return den, _times(b.rows.astype(np.int64 if fast else object, copy=False), adj_t)


def _box(den: int) -> tuple:
    """(lo, hi): y/den lies in [-1/2, 1/2) exactly when lo <= y <= hi."""
    return -(den // 2), (den - 1) // 2


def box_mask(y: np.ndarray, den: int) -> np.ndarray:
    """Rows with y/den in the half-open box [-1/2, 1/2)^d: -den <= 2y < den."""
    lo, hi = _box(den)
    return _every_column(y, lambda c: (c >= lo) & (c <= hi))


def _cone_bound(den: int, thr: Fraction) -> int:
    """⌈thr·den⌉: |y/den|_1 < thr exactly when |y|_1 is below it."""
    return -(-thr.numerator * den // thr.denominator)


def cone_mask(y: np.ndarray, den: int, thr: Fraction) -> np.ndarray:
    """Rows with |y/den|_1 < thr, that is |y|_1 < ⌈thr·den⌉ on integers."""
    bound = _cone_bound(den, thr)
    norm = np.abs(y[:, 0])
    for j in range(1, y.shape[1]):
        norm += np.abs(y[:, j])
    return norm < bound


def integer_rows(b: DigitSet, m=None) -> np.ndarray:
    """Exact rows m·v (or v) of the digits in set order, as an object array
    of Python ints; m is a list of integer rows."""
    rows = b.rows.astype(object)
    return rows if m is None else _times(rows, [list(col) for col in zip(*m)])


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
    otherwise); `ends` holds per axis the least and the greatest of them,
    and `removed` and `added` the rows y of the exceptions, as tuples of
    Python ints."""

    den: int
    axes: tuple
    ends: tuple
    removed: tuple
    added: tuple


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
    ends = tuple(tuple(sorted((ci * lo, ci * hi))) for (lo, hi, _), ci in zip(p.spans, c))
    y_max = max(max(-lo, hi) for lo, hi in ends)
    r_max = max(abs(x) for row in r.rows for x in row)
    fast = max(2 * d * y_max + den, d * r_max * (y_max // den + 1), *map(abs, c)) < _INT64_SAFE
    axes = [a * ci if fast else a.astype(object) * ci for a, ci in zip(p.axes, c)]
    return AxisNumerators(
        den,
        tuple(axes),
        ends,
        *(tuple(tuple(ci * x for ci, x in zip(c, v)) for v in rows) for rows in (p.removed, p.added)),
    )


def box_count(nums) -> int:
    """Digits with R⁻¹v in [-1/2, 1/2)^d, for nums from `numerators` or
    `axis_numerators`: the box is the product of its per-axis intervals,
    and an axis whose ends lie in its interval lies in it whole."""
    if not isinstance(nums, AxisNumerators):
        return int(box_mask(nums[1], nums[0]).sum())
    den = nums.den
    lo, hi = _box(den)
    inside = math.prod(
        len(y) if lo <= least and most <= hi else int(box_mask(y[:, None], den).sum())
        for y, (least, most) in zip(nums.axes, nums.ends)
    )
    out, put = (sum(all(lo <= x <= hi for x in y) for y in rows) for rows in (nums.removed, nums.added))
    return inside - out + put


def cone_count(nums, thr: Fraction) -> int:
    """Digits with |R⁻¹v|_1 < thr, for nums from `numerators` or
    `axis_numerators`.  On the axes, the product rows all lie in the cone
    when their largest norm, the sum of the axes' largest |y|, does;
    otherwise each sum of the first coordinates leaves the last ones one
    interval of the sorted last axis."""
    if not isinstance(nums, AxisNumerators):
        return int(cone_mask(nums[1], nums[0], thr).sum())
    bound = _cone_bound(nums.den, thr)
    if sum(max(-least, most) for least, most in nums.ends) < bound:
        near = math.prod(map(len, nums.axes))
    else:
        # int64 axes keep d·max|y| and den below 2^62 (see axis_numerators)
        *heads, last = (np.abs(y) for y in nums.axes)
        sums = np.zeros(1, dtype=last.dtype)
        for y in heads:
            sums = np.add.outer(sums, y).ravel()
        near = int(np.searchsorted(np.sort(last), bound - sums).sum())
    out, put = (sum(sum(map(abs, y)) < bound for y in rows) for rows in (nums.removed, nums.added))
    return near - out + put


def _reduced_parts(r: IntMatrix, b: DigitSet, an: AxisNumerators):
    """(axes, removed, added) of mod_reduce(b, r) for a structured b under a
    diagonal r, from the axes and the exceptions alone, as
    `DigitSet._product` takes them; None when two digits may be congruent:
    two values of an axis are, or a reduced added row lands on a digit; and
    None when a reduced axis passes the int64 headroom.  When every axis
    lies in the box, the product rows are their own representatives and
    only the added rows are reduced."""
    p, den = b.product, an.den
    lo, hi = _box(den)
    diag = [r.rows[i][i] for i in range(b.dim)]

    def reduce(v, y):
        return tuple(x - ri * ((2 * yi + den) // (2 * den)) for x, ri, yi in zip(v, diag, y))

    if all(lo <= least and most <= hi for least, most in an.ends):
        q, removed = p, set(p.removed)
    else:
        axes = []
        for a, ri, y in zip(p.axes, diag, an.axes):
            rep = _increasing(a - ri * ((2 * y + den) // (2 * den)))
            if len(rep) < len(a) or rep[0] <= -_HEADROOM or rep[-1] >= _HEADROOM:
                return None
            axes.append(rep)
        q, removed = Product(tuple(axes)), set(map(reduce, p.removed, an.removed))
    seen = set()
    for w in map(reduce, p.added, an.added):
        if w in seen or (w not in removed and w in q):
            return None
        seen.add(w)
    return q.axes, removed, seen


def check_reduction(r: IntMatrix, b: DigitSet, nums) -> None:
    """Raise CongruentDigits, with mod_reduce's message, when two digits of b
    share a representative mod R·Z^d.

    Takes nums = numerators(r, b), or axis_numerators(r, b), which reduces
    the axes and the exceptions alone (`_reduced_parts`).  On rows, a digit
    inside the box is its own representative and every representative lies
    in the box, so only the digits outside it are reduced, and their
    representatives are compared with each other and with b; the reduced
    set itself is never built.
    """
    if isinstance(nums, AxisNumerators):
        if _reduced_parts(r, b, nums) is None:
            mod_reduce(b, r)  # names the first colliding pair, if any
        return
    den, y = nums
    out = ~box_mask(y, den)
    moved = DigitSet._from_rows(b.dim, _representatives(r, den, _pick(b.rows, out), _pick(y, out)))
    # b is sorted, so the rows that can equal a moved one form the run whose
    # first entries lie between the moved rows' first and last ones
    first = b.rows[:, 0]
    lo = np.searchsorted(first, moved.rows[0, 0], "left") if len(moved) else 0
    hi = np.searchsorted(first, moved.rows[-1, 0], "right") if len(moved) else 0
    hit, _ = shared_masks(moved, DigitSet(b.dim, b.rows[lo:hi]))
    if len(moved) < int(out.sum()) or hit.any():
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
    parts = _reduced_parts(r, b, an) if an is not None else None
    if parts is not None:
        return DigitSet._product(*parts)
    den, y = numerators(r, b)
    # a digit inside the box (n = 0) is its own representative
    inside = box_mask(y, den)
    moved = _representatives(r, den, _pick(b.rows, ~inside), _pick(y, ~inside))
    out = DigitSet._from_rows(b.dim, np.concatenate([_pick(b.rows, inside), moved]))
    if len(out) != len(b):
        reps = list(b.vectors)
        for i, v in zip(np.flatnonzero(~inside).tolist(), moved.tolist()):
            reps[i] = tuple(v)
        seen = {}
        for src, tgt in zip(b.vectors, reps):
            if tgt in seen:
                raise CongruentDigits(
                    f"digits {seen[tgt]} and {src} are congruent mod R·Z^d (both reduce to {tgt})"
                )
            seen[tgt] = src
    return out
