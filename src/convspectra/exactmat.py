"""Exact integer linear algebra for small expanding matrices.

Everything in this module is exact and integer.  The inverse of a matrix M
is the pair (det M, adj M) with adj·M = det·I, from one fraction-free
elimination cached on the matrix, so no rational matrix is ever formed.
The certified spectral_norm_upper of N/D bisects on the largest eigenvalue
of the integer Gram NᵀN, deciding each step by the signs of leading
principal minors, all taken from one fraction-free elimination
(Sylvester's criterion), so the float it returns carries a genuine
one-sided guarantee.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

IntVector = tuple  # tuple[int, ...]

DEFAULT_NORM_TOL = 1e-12


# ===== matrices =====


class IntMatrix:
    """Square matrix with integer entries, stored as a tuple of row tuples."""

    def __init__(self, rows):
        d = len(rows)
        if d == 0:
            raise DimensionMismatch("matrix must have at least one row")
        norm = []
        for row in rows:
            if len(row) != d:
                raise DimensionMismatch("matrix must be square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("IntMatrix entries must be ints")
            norm.append(tuple(row))
        self.rows = tuple(norm)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows!r})"

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        e = tuple(entries)
        return cls(tuple(tuple(e[i] if i == j else 0 for j in range(len(e))) for i in range(len(e))))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def matvec(self, v) -> IntVector:
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != matrix dimension")
        return tuple(sum(r[j] * v[j] for j in range(self.dim)) for r in self.rows)

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def det(self) -> int:
        return self._det_adj[0]

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j)

    @cached_property
    def _det_adj(self) -> tuple:
        """(det, adj) for `det` and `invert`, kept on the instance."""
        return _bareiss(self.rows)


def _bareiss(rows) -> tuple:
    """(det, adj) of an integer matrix by fraction-free Gauss-Jordan (Bareiss).

    Each step replaces every row but the pivot row by (p·row - f·pivot row)
    divided by the previous pivot, which is exact: every entry is then a
    minor of [M | I].  The walk ends at [det(PM)·I | det(PM)·M⁻¹] for the
    row swaps P, so only their sign is left to apply.  A singular matrix
    gives (0, None).
    """
    d = len(rows)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            aug[pivot], aug[col] = aug[col], aug[pivot]
            sign = -sign
        p = aug[col][col]
        for r in range(d):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], aug[col])]
        prev = p
    return sign * prev, IntMatrix(tuple(tuple(sign * x for x in row[d:]) for row in aug))


def invert(m: IntMatrix) -> tuple:
    """The exact inverse of m as the integer pair (det, adj), adj·m = det·I,
    so m⁻¹ = adj/det; computed once per matrix instance.  Raises
    SingularMatrix."""
    pair = m._det_adj
    if pair[0] == 0:
        raise SingularMatrix("matrix has determinant zero")
    return pair


def product_range(seq, p: int, q: int) -> IntMatrix:
    """R_q · R_{q-1} · ... · R_{p+1} for any object exposing matrix(k); p == q gives I."""
    if not (0 <= p <= q):
        raise IndexOutOfRange(f"need 0 <= p <= q, got p={p}, q={q}")
    length = getattr(seq, "length", None)
    if length is not None and q > length:
        raise IndexOutOfRange(f"q={q} exceeds sequence length {length}")
    if p == q:
        dim = getattr(seq, "dim", None)
        if dim is None:
            dim = seq.matrix(1).dim
        return IntMatrix.identity(dim)
    acc = seq.matrix(p + 1)
    for k in range(p + 2, q + 1):
        acc = seq.matrix(k).matmul(acc)
    return acc


# ===== certified spectral norm upper bound =====


def _gershgorin_upper(g: IntMatrix) -> int:
    return max(sum(abs(x) for x in row) for row in g.rows)


def _positive_definite(t) -> bool:
    """Sylvester's criterion for a symmetric integer matrix (a list of row
    lists, consumed): every leading principal minor is > 0.  One
    fraction-free elimination without row swaps gives them all: while the
    pivots so far are nonzero, the k-th pivot is the k-th leading principal
    minor, so the walk stops at the first pivot <= 0."""
    prev = 1
    for k, pivot_row in enumerate(t):
        p = pivot_row[k]
        if p <= 0:
            return False
        for row in t[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])]
        prev = p
    return True


def spectral_norm_upper(n: IntMatrix, d: int = 1, tol: float = DEFAULT_NORM_TOL) -> float:
    """Certified upper bound u for the spectral norm of n/d, for an integer
    matrix n and a nonzero integer d: ‖n/d‖₂ ≤ u ≤ ‖n/d‖₂ + tol.

    The Gram matrix of n/d is G = nᵀn/d², with nᵀn formed exactly in
    integers.  The largest eigenvalue λ of G is bracketed by bisection: with
    mid = a/b, λ < mid iff the integer matrix a·d²·I − b·nᵀn is positive
    definite, decided by Sylvester's criterion on its leading principal
    minors, the pivots of one elimination.  The returned float is the
    upward-rounded square root of the upper end.  With (n, d) = (adj R,
    det R) from `invert` this bounds ‖R⁻¹‖₂.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if d == 0:
        raise ValueError("denominator must be nonzero")
    top = max(abs(x) for row in n.rows for x in row)
    if top == 0:
        return 0.0
    if n.is_diagonal():
        return math.nextafter(float(Fraction(top, abs(d))), math.inf)
    g = n.transpose().matmul(n)
    s = d * d
    hi = Fraction(_gershgorin_upper(g), s) + 1  # strictly above every eigenvalue
    lo = Fraction(-1)  # strictly below (G is PSD)
    s_lo, s_hi = 0.0, math.sqrt(float(hi))
    for _ in range(300):
        if s_hi - s_lo <= tol / 2:
            break
        mid = (lo + hi) / 2
        a, b = mid.numerator * s, mid.denominator
        t = [[a * (i == j) - b * x for j, x in enumerate(row)] for i, row in enumerate(g.rows)]
        if _positive_definite(t):
            hi = mid
        else:
            lo = mid
        s_lo = math.sqrt(max(float(lo), 0.0))
        s_hi = math.sqrt(float(hi))
    u = math.sqrt(float(hi))
    return math.nextafter(math.nextafter(u, math.inf), math.inf)
