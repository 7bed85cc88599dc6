"""Reference implementations the tests check the library against.

Each is the plain definition in Fraction arithmetic, slow and independent of
the integer kernels: Gauss-Jordan inversion over Q, the dense scalar Fourier
sum, the convolution of uniform digit measures and the tail truncation built
from it, composition of Hadamard triples, the pointwise interval coupling,
and ball clipping with exact moments.  The `sample` CSV is written here in
one pass, where the library writes it in blocks, and the `qscan` CSV from
Fraction points, where the library formats integer rows.  None of it is
library code.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from convspectra.conditions import _aligned_tables
from convspectra.errors import (
    DimensionMismatch,
    EmptySet,
    SingularMatrix,
    TripleInvalid,
    TruncationTooLarge,
    ValidationError,
)
from convspectra.exactmat import IntMatrix, product_range
from convspectra.measures import DiscreteMeasure
from convspectra.triples import DigitSet, HadamardTriple

_TWO_PI = 2.0 * math.pi


# ===== Fraction matrices =====


@dataclass(frozen=True)
class FractionMatrix:
    """Square matrix with Fraction entries."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(Fraction(x) for x in r) for r in self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int) -> "FractionMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    def transpose(self) -> "FractionMatrix":
        return FractionMatrix(tuple(zip(*self.rows)))

    def matvec(self, v) -> tuple:
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != matrix dimension")
        return tuple(sum(r[j] * Fraction(v[j]) for j in range(self.dim)) for r in self.rows)

    def matmul(self, other) -> "FractionMatrix":
        cols = list(zip(*other.rows))
        return FractionMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )


def fraction_det(m) -> Fraction:
    """Determinant by fraction Gaussian elimination (exact)."""
    rows = [[Fraction(x) for x in row] for row in m.rows]
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
        inv = 1 / rows[col][col]
        for r in range(col + 1, d):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def fraction_inverse(m) -> FractionMatrix:
    """Exact inverse over Q via Gauss-Jordan; raises SingularMatrix."""
    d = m.dim
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
        for i, row in enumerate(m.rows)
    ]
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
    return FractionMatrix(tuple(tuple(row[d:]) for row in aug))


def over_common_denominator(m: FractionMatrix):
    """(n, d) with m = n/d: an IntMatrix n and d the lcm of the denominators."""
    d = math.lcm(*(x.denominator for row in m.rows for x in row))
    return IntMatrix(tuple(tuple(int(x * d) for x in row) for row in m.rows)), d


# ===== measures =====


def point_mass(atom, dim: int | None = None) -> DiscreteMeasure:
    return DiscreteMeasure.make([(atom, Fraction(1))], dim)


def uniform_on(digits: DigitSet, transform: FractionMatrix | None = None) -> DiscreteMeasure:
    """Equal weights on a digit set, optionally mapped through a rational matrix."""
    n = len(digits)
    w = Fraction(1, n)
    if transform is None:
        pairs = [(v, w) for v in digits.vectors]
    else:
        pairs = [(transform.matvec(v), w) for v in digits.vectors]
    return DiscreteMeasure.make(pairs, digits.dim)


def pushed(m: DiscreteMeasure, transform: FractionMatrix) -> DiscreteMeasure:
    """The image of m under a rational matrix."""
    return DiscreteMeasure.make((transform.matvec(a), w) for a, w in zip(m.atoms, m.weights))


def convolve(a: DiscreteMeasure, b: DiscreteMeasure) -> DiscreteMeasure:
    if a.dim != b.dim:
        raise DimensionMismatch("cannot convolve measures of different dimensions")
    acc: dict = {}
    for xa, wa in zip(a.atoms, a.weights):
        for xb, wb in zip(b.atoms, b.weights):
            key = tuple(p + q for p, q in zip(xa, xb))
            prev = acc.get(key)
            acc[key] = wa * wb if prev is None else prev + wa * wb
    factors = tuple(
        f
        for f in a.convolution_factors() + b.convolution_factors()
        if len(f) > 1 or any(f.atoms[0])  # the origin point mass is trivial
    )
    return replace(DiscreteMeasure.make(acc.items(), a.dim), factors=factors)


@dataclass(frozen=True)
class TailTruncation:
    start: int  # tail begins after this level
    depth: int  # number of tail levels included
    measure: DiscreteMeasure


def nu_tail_truncate(seq, start: int, depth: int, *, max_atoms: int = 1_000_000) -> TailTruncation:
    """Finite stretch of the tail measure after `start`, rescaled to start at level 1."""
    if start < 0 or depth < 0:
        raise ValidationError("tail start and depth must be >= 0")
    result = point_mass((0,) * seq.dim)
    proj = 1
    for j in range(1, depth + 1):
        d = seq.digits(start + j)
        proj *= len(d)
        if proj > max_atoms:
            raise TruncationTooLarge(
                f"projected support of {proj} atoms exceeds the cap of {max_atoms}"
            )
        scale = fraction_inverse(product_range(seq, start, start + j))
        result = convolve(result, uniform_on(d, scale))
    return TailTruncation(start=start, depth=depth, measure=result)


def fourier(m: DiscreteMeasure, xi) -> complex:
    """Fourier transform at one rational frequency, phases reduced exactly.

    Atoms whose phase is an exact integer contribute through a rational
    subtotal, so e.g. the transform at zero frequency is exactly 1.
    """
    x = tuple(Fraction(c) for c in xi)
    if len(x) != m.dim:
        raise DimensionMismatch(f"expected a vector of length {m.dim}, got {len(x)}")
    exact = Fraction(0)
    rest = 0j
    for a, w in zip(m.atoms, m.weights):
        dot = sum(p * q for p, q in zip(a, x))
        t = dot - math.floor(dot)
        if t == 0:
            exact += w
        else:
            rest += float(w) * cmath.exp(-1j * _TWO_PI * float(t))
    return complex(float(exact)) + rest


# ===== ball clipping and moments =====


def mass_outside_ball(m: DiscreteMeasure, radius) -> Fraction:
    """Exact mass carried by atoms with |x|_2 > radius (strict)."""
    r2 = Fraction(radius) ** 2
    return sum(
        (w for a, w in zip(m.atoms, m.weights) if sum(x * x for x in a) > r2),
        Fraction(0),
    )


def clip_to_ball(m: DiscreteMeasure, radius) -> DiscreteMeasure:
    """Move all mass outside the closed ball of the given radius to the origin."""
    r2 = Fraction(radius) ** 2
    zero = tuple(Fraction(0) for _ in range(m.dim))
    pairs = []
    moved = Fraction(0)
    for a, w in zip(m.atoms, m.weights):
        if sum(x * x for x in a) > r2:
            moved += w
        else:
            pairs.append((a, w))
    if moved:
        pairs.append((zero, moved))
    return DiscreteMeasure.make(pairs, m.dim)


def mean(m: DiscreteMeasure) -> tuple:
    out = [Fraction(0)] * m.dim
    for a, w in zip(m.atoms, m.weights):
        for i in range(m.dim):
            out[i] += w * a[i]
    return tuple(out)


def second_moment(m: DiscreteMeasure) -> Fraction:
    return sum((w * sum(x * x for x in a) for a, w in zip(m.atoms, m.weights)), Fraction(0))


def variance_total(m: DiscreteMeasure) -> Fraction:
    """Trace of the covariance: E|X|^2 - |EX|^2 (always >= 0)."""
    return second_moment(m) - sum(x * x for x in mean(m))


# ===== triple composition =====


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


# ===== candidate spectra =====


def tuple_spectrum(seq, milestones, k_choices=None, delta0=None):
    """(milestones used, levels) of `build_spectrum` by its definition, on
    sets of tuples: level j adds P_p^T (λ + W^T k) to level j - 1 for every λ
    of the window's composed spectrum digits L_{p+1} + R_{p+1}^T L_{p+2} +
    ..., W = R_q ... R_{p+1}, P_p the prefix product, and k taken from
    k_choices {(j, λ): k} (0 where absent, and always at λ = 0).  With delta0, each milestone is
    advanced until every vector of the level before maps strictly inside
    the radius-delta0/2 ball under P_q^{-T}."""
    dim = seq.dim
    zero = (0,) * dim
    k_choices = k_choices or {}
    level, p = {zero}, 0
    used, levels = [], []
    for j, q in enumerate(milestones, start=1):
        q = max(q, p + 1)
        if delta0 is not None:
            r2 = (Fraction(delta0) / 2) ** 2
            while any(
                sum(x * x for x in fraction_inverse(seq.prefix_matrix(q)).transpose().matvec(lam)) >= r2
                for lam in level
            ):
                q += 1
        block, mt = [zero], IntMatrix.identity(dim)
        for i in range(p + 1, q + 1):
            if i > p + 1:
                mt = mt.matmul(seq.matrix(i - 1).transpose())
            step = [mt.matvec(v) for v in seq.spectrum_digits(i).vectors]
            block = [tuple(a + b for a, b in zip(u, v)) for u in block for v in step]
        w_t = mt.matmul(seq.matrix(q).transpose())
        p_t = seq.prefix_matrix(p).transpose()
        mapped = []
        for lam in block:
            shift = w_t.matvec(zero if lam == zero else k_choices.get((j, lam), zero))
            mapped.append(p_t.matvec(tuple(a + b for a, b in zip(lam, shift))))
        new = {tuple(a + b for a, b in zip(u, v)) for u in level for v in mapped}
        if len(new) != len(level) * len(mapped):
            raise TripleInvalid(f"level {j} collided")
        level, p = new, q
        used.append(q)
        levels.append(tuple(sorted(new)))
    return tuple(used), tuple(levels)


# ===== the interval coupling at one point =====


def coupling_eval(a: DigitSet, b: DigitSet, x: Fraction):
    """Exact evaluation of the coupled pair (X, Y) at one rational x in [0,1).

    Mirrors the integer sampler arithmetic, so tests can integrate the
    construction exhaustively over a midpoint grid."""
    if not 0 <= x < 1:
        raise ValidationError("x must lie in [0, 1)")
    ax, ay, s, swapped = _aligned_tables(a, b)
    ax, ay = (ax[0].vectors + ax[1].vectors), (ay[0].vectors + ay[1].vectors)
    m, n = len(ax), len(ay)
    i0 = math.floor(x * m)
    aligned = (x - Fraction(i0, m)) < Fraction(1, n)
    xv = ax[i0]
    if aligned:
        yv = ay[i0]
    else:
        yv = ay[m + math.floor(x * n) - i0 - 1]
    return (yv, xv) if swapped else (xv, yv)


def sample_csv(x_sums, y_sums) -> str:
    """The `sample` artifact written in one pass: a header, then each draw's
    x and y partial sums to 17 significant digits."""
    dim = len(x_sums[0])
    header = ["draw"] + [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
    lines = [",".join(header)]
    for i, (x, y) in enumerate(zip(x_sums.tolist(), y_sums.tolist())):
        lines.append(",".join([str(i)] + [format(v, ".17g") for v in x + y]))
    return "\n".join(lines) + "\n"


# ===== spectrum levels and the Q scan artifact =====


def level_tuples(level) -> tuple:
    """A spectrum level's integer rows as a sorted tuple of int tuples."""
    return tuple(map(tuple, level.tolist()))


def qscan_csv(pitch, dim: int, values) -> tuple:
    """The `qscan` artifact written in one pass over Fraction points: the
    grid pitch·Z^d ∩ [0, 1)^d in lexicographic order, each point with its q
    to 17 significant digits; and the "at" cells of the first minimum and
    the first maximum of the values."""
    pitch = Fraction(pitch)
    axis = []
    while len(axis) * pitch < 1:
        axis.append(len(axis) * pitch)
    points = list(itertools.product(axis, repeat=dim))
    assert len(points) == len(values)
    lines = [",".join([f"xi{i + 1}" for i in range(dim)] + ["q"])]
    for x, q in zip(points, values):
        lines.append(",".join([str(c) for c in x] + [f"{q:.17g}"]))
    lo = min(range(len(values)), key=values.__getitem__)
    hi = max(range(len(values)), key=values.__getitem__)
    at = lambda x: "(" + ", ".join(str(c) for c in x) + ")"
    return "\n".join(lines) + "\n", at(points[lo]), at(points[hi])
