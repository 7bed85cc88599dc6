"""Exact integer/rational linear algebra for small expanding matrices.

Everything in this module is exact: matrices are tuples of Fractions or ints,
inverses come from Gauss-Jordan elimination over Q, and the certified
spectral_norm_upper reduces to counting real roots of an exact
characteristic polynomial with Sturm chains, so the float it returns
carries a genuine one-sided guarantee.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

IntVector = tuple  # tuple[int, ...]
RatVector = tuple  # tuple[Fraction, ...]

DEFAULT_NORM_TOL = 1e-12


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


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
        d = _rat_det([[Fraction(x) for x in row] for row in self.rows])
        assert d.denominator == 1
        return d.numerator

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j)

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(x) for x in row) for row in self.rows))

    def inverse(self) -> "RatMatrix":
        """The exact inverse adj/det, from the adjugate cached on the instance."""
        det, adj = self._adjugate
        return RatMatrix(tuple(tuple(Fraction(x, det) for x in row) for row in adj.rows))

    @cached_property
    def _adjugate(self) -> tuple:
        """(det, adj) for `adjugate`, kept on the instance."""
        return _fraction_free_adjugate(self.rows)


@dataclass(frozen=True)
class RatMatrix:
    """Square matrix with Fraction entries."""

    rows: tuple

    def __post_init__(self):
        d = len(self.rows)
        if d == 0:
            raise DimensionMismatch("matrix must have at least one row")
        norm = []
        for row in self.rows:
            if len(row) != d:
                raise DimensionMismatch("matrix must be square")
            norm.append(tuple(_as_fraction(x) for x in row))
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int) -> "RatMatrix":
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.rows)))

    def matvec(self, v) -> RatVector:
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != matrix dimension")
        w = tuple(_as_fraction(x) for x in v)
        return tuple(sum(r[j] * w[j] for j in range(self.dim)) for r in self.rows)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        cols = other.transpose().rows
        return RatMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def det(self) -> Fraction:
        return _rat_det([list(row) for row in self.rows])

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)


def _coerce_rat(m) -> RatMatrix:
    if isinstance(m, IntMatrix):
        return m.to_rat()
    if isinstance(m, RatMatrix):
        return m
    raise TypeError(f"expected IntMatrix or RatMatrix, got {type(m).__name__}")


def _rat_det(rows) -> Fraction:
    """Determinant by fraction Gaussian elimination (exact)."""
    d = len(rows)
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[pivot], rows[col] = rows[col], rows[pivot]
            det = -det
        det *= rows[col][col]
        inv = 1 / Fraction(rows[col][col])
        for r in range(col + 1, d):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def invert(m) -> RatMatrix:
    """Exact inverse over Q via Gauss-Jordan; raises SingularMatrix."""
    rm = _coerce_rat(m)
    d = rm.dim
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(d)] for i, row in enumerate(rm.rows)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix has determinant zero")
        aug[pivot], aug[col] = aug[col], aug[pivot]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return RatMatrix(tuple(tuple(row[d:]) for row in aug))


def _fraction_free_adjugate(rows) -> tuple:
    """(det, adj) of an integer matrix by fraction-free Gauss-Jordan (Bareiss).

    Each step replaces every row but the pivot row by (p·row - f·pivot row)
    divided by the previous pivot, which is exact: every entry is then a
    minor of [M | I].  The walk ends at [det(PM)·I | det(PM)·M⁻¹] for the
    row swaps P, so only their sign is left to apply.  Raises SingularMatrix.
    """
    d = len(rows)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix has determinant zero")
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


def adjugate(m: IntMatrix) -> tuple:
    """(det, adj) with adj·m = det·I, both exact integers; computed once per
    matrix instance."""
    return m._adjugate


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


def charpoly(m) -> list:
    """Monic characteristic polynomial det(λI − m), ascending Fraction coefficients.

    Faddeev–LeVerrier over exact rationals.
    """
    a = _coerce_rat(m)
    n = a.dim
    ident = RatMatrix.identity(n)
    mk = RatMatrix(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)))
    coeffs = [Fraction(1)]  # coefficient of λ^n
    for k in range(1, n + 1):
        mk = a.matmul(mk)
        mk = RatMatrix(
            tuple(
                tuple(mk.rows[i][j] + coeffs[-1] * ident.rows[i][j] for j in range(n))
                for i in range(n)
            )
        )
        am = a.matmul(mk)
        ck = -sum(am.rows[i][i] for i in range(n)) / k
        coeffs.append(ck)
    # det(λI − A) = Σ_k coeffs[k] λ^{n−k}; convert to ascending order
    return list(reversed(coeffs))


# ===== certified spectral norm upper bound =====


def _gershgorin_upper(g: RatMatrix) -> Fraction:
    return max(sum(abs(x) for x in row) for row in g.rows)


def spectral_norm_upper(m, tol: float = DEFAULT_NORM_TOL) -> float:
    """Certified upper bound u for the spectral norm: ‖m‖₂ ≤ u ≤ ‖m‖₂ + tol.

    The Gram matrix G = mᵀm is formed exactly; the largest eigenvalue of G is
    bracketed by Sturm-count bisection on the exact characteristic polynomial,
    and the returned float is the upward-rounded square root of the upper end.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    rm = _coerce_rat(m)
    if rm.is_zero():
        return 0.0
    if rm.is_diagonal():
        top = max(abs(x) for row in rm.rows for x in row)
        return math.nextafter(float(top), math.inf)
    g = rm.transpose().matmul(rm)
    p = make_squarefree(charpoly(g))
    hi = _gershgorin_upper(g) + 1  # strictly above every eigenvalue
    lo = Fraction(-1)  # strictly below (G is PSD)
    s_lo, s_hi = 0.0, math.sqrt(float(hi))
    for _ in range(300):
        if s_hi - s_lo <= tol / 2:
            break
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0:
            # mid is a simple root (p squarefree); divide it out to ask
            # whether any root lies above it.
            q, _ = poly_divmod(p, [-mid, Fraction(1)])
            if len(q) > 1 and count_real_roots(q, mid, hi) >= 1:
                lo = mid
            else:
                lo = hi = mid
                break
        elif count_real_roots(p, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
        s_lo = math.sqrt(max(float(lo), 0.0))
        s_hi = math.sqrt(float(hi))
    u = math.sqrt(float(hi))
    return math.nextafter(math.nextafter(u, math.inf), math.inf)
