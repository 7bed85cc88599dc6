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
from fractions import Fraction

import numpy as np

from ._phases import gram_deviation
from .errors import (
    CongruentDigits,
    DimensionMismatch,
    EmptySet,
    SizeMismatch,
    TripleInvalid,
)
from .exactmat import IntMatrix, adjugate, invert

DEFAULT_UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class DigitSet:
    """A finite set of integer vectors, stored sorted and deduplicated."""

    dim: int
    vectors: tuple

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
        vecs = sorted(set(vecs))
        return cls(d, tuple(vecs))

    @classmethod
    def _trusted(cls, dim: int, vectors: tuple) -> "DigitSet":
        """Internal constructor: caller guarantees sorted, unique int tuples."""
        return cls(dim, vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, v) -> bool:
        v = tuple(v)
        i = bisect_left(self.vectors, v)
        return i < len(self.vectors) and self.vectors[i] == v

    def translate(self, v) -> "DigitSet":
        v = tuple(v)
        if len(v) != self.dim:
            raise DimensionMismatch("translation vector has wrong dimension")
        return DigitSet.of([tuple(x + y for x, y in zip(w, v)) for w in self.vectors], self.dim)

    def as_set(self) -> frozenset:
        return frozenset(self.vectors)


def minkowski_sum(a: DigitSet, b: DigitSet) -> DigitSet:
    if a.dim != b.dim:
        raise DimensionMismatch("digit sets live in different dimensions")
    return DigitSet.of(
        [tuple(x + y for x, y in zip(u, v)) for u in a.vectors for v in b.vectors], a.dim
    )


def map_digits(m: IntMatrix, b: DigitSet) -> DigitSet:
    if m.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    return DigitSet.of([m.matvec(v) for v in b.vectors], b.dim)


# ===== unitarity check =====


@dataclass(frozen=True)
class HadamardCheckResult:
    ok: bool
    max_deviation: float
    size_mismatch: bool


def hadamard_check(r: IntMatrix, b: DigitSet, l: DigitSet, tol: float = DEFAULT_UNITARITY_TOL) -> HadamardCheckResult:
    """Measure how far [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is from unitary.

    The Gram matrix is G[b, b'] = (1/#B) Σ_ℓ e^{-2πi (R^{-1}(b - b'))·ℓ}: the
    single factor with points R^{-1}B, atoms L and weight 1/#B, computed in
    tiles under the dense byte budget.  A size mismatch (#B ≠ #L) is reported
    in the result rather than raised: the matrix is then rectangular and
    cannot be unitary.
    """
    if r.dim != b.dim or r.dim != l.dim:
        raise DimensionMismatch("matrix and digit sets must share a dimension")
    det, adj = adjugate(r)
    sign = 1 if det > 0 else -1
    nums = [tuple(sign * x for x in adj.matvec(v)) for v in b.vectors]
    weights = np.full(len(l), 1 / len(b))
    dev = gram_deviation(nums, abs(det), [(list(l.vectors), 1, weights)])
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


def shift_spectrum(t: HadamardTriple, l0) -> HadamardTriple:
    """Translate the spectrum digit set; unitarity is preserved exactly."""
    return HadamardTriple.make(t.r, t.b, t.l.translate(l0))


# ===== reduction mod R·Z^d =====


def mod_reduce(b: DigitSet, r: IntMatrix) -> DigitSet:
    """Reduce each digit to its representative in R·[-1/2, 1/2)^d.

    The representative of b is b - R·n where n_i = floor((R^{-1}b)_i + 1/2);
    a coordinate exactly at 1/2 wraps to -1/2 (half-open convention).
    Raises CongruentDigits if two digits collide after reduction.
    """
    if b.dim != r.dim:
        raise DimensionMismatch("digit set and matrix dimensions differ")
    diag_pos = r.is_diagonal() and all(r.rows[i][i] > 0 for i in range(r.dim))
    reduced = []
    if diag_pos:
        ds = [r.rows[i][i] for i in range(r.dim)]
        for v in b.vectors:
            reduced.append(tuple(x - d * ((2 * x + d) // (2 * d)) for x, d in zip(v, ds)))
    else:
        inv = invert(r)
        half = Fraction(1, 2)
        for v in b.vectors:
            c = inv.matvec(v)
            n = tuple(math.floor(x + half) for x in c)
            rn = r.matvec(n)
            reduced.append(tuple(x - y for x, y in zip(v, rn)))
    if len(set(reduced)) != len(reduced):
        seen = {}
        for src, tgt in zip(b.vectors, reduced):
            if tgt in seen:
                raise CongruentDigits(
                    f"digits {seen[tgt]} and {src} are congruent mod R·Z^d (both reduce to {tgt})"
                )
            seen[tgt] = src
    return DigitSet.of(reduced, b.dim)


# ===== composition =====


def compose_triples(triples) -> HadamardTriple:
    """Collapse consecutive triples (R_1,B_1,L_1),...,(R_n,B_n,L_n) into one.

    R = R_n···R_1,  B = R_n···R_2 B_1 + ··· + B_n (Horner form),
    L = L_1 + R_1ᵀ L_2 + ··· + (R_{n-1}···R_1)ᵀ L_n.
    Digit collisions cannot happen for genuine triples and are reported.
    """
    ts = list(triples)
    if not ts:
        raise EmptySet("need at least one triple to compose")
    dim = ts[0].dim
    for t in ts:
        if t.dim != dim:
            raise DimensionMismatch("triples live in different dimensions")
    r_acc = ts[0].r
    b_acc = ts[0].b
    expected_b = len(ts[0].b)
    for t in ts[1:]:
        r_acc = t.r.matmul(r_acc)
        b_acc = minkowski_sum(map_digits(t.r, b_acc), t.b)
        expected_b *= len(t.b)
        if len(b_acc) != expected_b:
            raise TripleInvalid("composed digit sets collided; inputs are not a Hadamard chain")
    l_acc = ts[0].l
    m_acc = IntMatrix.identity(dim)
    expected_l = len(ts[0].l)
    for j in range(1, len(ts)):
        m_acc = m_acc.matmul(ts[j - 1].r.transpose())
        l_acc = minkowski_sum(l_acc, map_digits(m_acc, ts[j].l))
        expected_l *= len(ts[j].l)
        if len(l_acc) != expected_l:
            raise TripleInvalid("composed spectra collided; inputs are not a Hadamard chain")
    return HadamardTriple.make(r_acc, b_acc, l_acc)
