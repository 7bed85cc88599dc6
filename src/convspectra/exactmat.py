"""Exact integer linear algebra for small expanding matrices.

Everything in this module is exact and integer.  The inverse of a matrix M
is the pair (det M, adj M) with adj·M = det·I, from one fraction-free
elimination cached on the matrix, so no rational matrix is ever formed.
The certified spectral_norm_upper of N/D reduces to counting real roots of
the exact characteristic polynomial of the integer Gram NᵀN with Sturm
chains, so the float it returns carries a genuine one-sided guarantee.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

IntVector = tuple  # tuple[int, ...]

DEFAULT_NORM_TOL = 1e-12


# ===== matrices =====


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with integer entries, stored as a tuple of row tuples."""

    rows: tuple

    def __post_init__(self):
        d = len(self.rows)
        if d == 0:
            raise DimensionMismatch("matrix must have at least one row")
        norm = []
        for row in self.rows:
            if len(row) != d:
                raise DimensionMismatch("matrix must be square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("IntMatrix entries must be ints")
            norm.append(tuple(row))
        object.__setattr__(self, "rows", tuple(norm))

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


# ===== rational polynomial toolkit (ascending coefficient lists) =====


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if not p:
        return [Fraction(0)]
    return p


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:] or [Fraction(0)])


def poly_divmod(a, b):
    a = list(a)
    b = poly_trim(list(b))
    if b == [Fraction(0)] or b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = [Fraction(f) for f in a]
    dlead = Fraction(b[-1])
    while len(poly_trim(r)) >= len(b) and poly_trim(r) != [Fraction(0)]:
        r = poly_trim(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        f = r[-1] / dlead
        q[shift] += f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = r[:-1]
    return poly_trim(q), poly_trim([Fraction(c) for c in r])


def poly_gcd(a, b):
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while poly_trim(b) != [Fraction(0)] and poly_trim(b) != [0]:
        _, r = poly_divmod(a, b)
        a, b = b, r
    a = poly_trim(a)
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


def make_squarefree(p):
    g = poly_gcd(p, poly_deriv(p))
    if len(g) == 1:
        return poly_trim(list(p))
    q, r = poly_divmod(p, g)
    assert poly_trim(r) == [Fraction(0)]
    return q


def sturm_chain(p):
    chain = [poly_trim(list(p)), poly_deriv(p)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = poly_trim(r)
        if r == [Fraction(0)] or r == [0]:
            break
        chain.append([-c for c in r])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of squarefree p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0.
    """
    if poly_eval(p, a) == 0 or poly_eval(p, b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    chain = sturm_chain(p)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def charpoly(n: IntMatrix) -> list:
    """Monic characteristic polynomial det(λI − n), ascending Fraction
    coefficients, for an integer matrix n.

    Faddeev–LeVerrier: the coefficient c_k of λ^{dim−k} is an integer, so
    each division by k is exact.
    """
    size = n.dim
    mk = IntMatrix(((0,) * size,) * size)
    coeffs = [1]  # coefficient of λ^size
    for k in range(1, size + 1):
        mk = n.matmul(mk)
        mk = IntMatrix(
            tuple(
                tuple(x + coeffs[-1] if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(mk.rows)
            )
        )
        am = n.matmul(mk)
        ck, rest = divmod(-sum(am.rows[i][i] for i in range(size)), k)
        assert rest == 0
        coeffs.append(ck)
    return [Fraction(c) for c in reversed(coeffs)]


# ===== certified spectral norm upper bound =====


def _gershgorin_upper(g: IntMatrix) -> int:
    return max(sum(abs(x) for x in row) for row in g.rows)


def spectral_norm_upper(n: IntMatrix, d: int = 1, tol: float = DEFAULT_NORM_TOL) -> float:
    """Certified upper bound u for the spectral norm of n/d, for an integer
    matrix n and a nonzero integer d: ‖n/d‖₂ ≤ u ≤ ‖n/d‖₂ + tol.

    The Gram matrix of n/d is G = nᵀn/d², with nᵀn formed exactly in
    integers.  The largest eigenvalue λ of G is bracketed by Sturm-count
    bisection, each count taken on the characteristic polynomial of nᵀn at
    d²·λ, and the returned float is the upward-rounded square root of the
    upper end.  With (n, d) = (adj R, det R) from `invert` this bounds
    ‖R⁻¹‖₂.
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
    s = d * d  # the eigenvalue λ of G is a root of p at s·λ
    p = make_squarefree(charpoly(g))
    hi = Fraction(_gershgorin_upper(g), s) + 1  # strictly above every eigenvalue
    lo = Fraction(-1)  # strictly below (G is PSD)
    s_lo, s_hi = 0.0, math.sqrt(float(hi))
    for _ in range(300):
        if s_hi - s_lo <= tol / 2:
            break
        mid = (lo + hi) / 2
        if poly_eval(p, s * mid) == 0:
            # mid is a simple root (p squarefree); divide it out to ask
            # whether any root lies above it.
            q, _ = poly_divmod(p, [-s * mid, Fraction(1)])
            if len(q) > 1 and count_real_roots(q, s * mid, s * hi) >= 1:
                lo = mid
            else:
                lo = hi = mid
                break
        elif count_real_roots(p, s * mid, s * hi) >= 1:
            lo = mid
        else:
            hi = mid
        s_lo = math.sqrt(max(float(lo), 0.0))
        s_hi = math.sqrt(float(hi))
    u = math.sqrt(float(hi))
    return math.nextafter(math.nextafter(u, math.inf), math.inf)
