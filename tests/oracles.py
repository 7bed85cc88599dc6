"""Reference implementations the tests check the library against.

Each is the plain definition in Fraction arithmetic, slow and independent of
the integer kernels: Gauss-Jordan inversion over Q, the dense scalar Fourier
sum, the Q functional (its phases in Fractions, its sums in mpmath), the
convolution of uniform digit measures and the tail truncation built from it,
composition of Hadamard triples, vanishing sums of roots of unity as the
divisibility of an integer polynomial by the cyclotomic Φ_n, the pointwise interval coupling, ball
clipping with exact moments, the Philox4x64-10 cipher in Python integers,
and the argparse parser of the command line.  The `sample` CSV is written here in one pass, where the library
writes it in blocks, and the `qscan` CSV from Fraction points, where the
library formats integer rows.  None of it is library code.
"""
from __future__ import annotations

import argparse
import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from convspectra.cli import _COMMANDS
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
from convspectra.triples import DigitSet, hadamard_check

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
    m = DiscreteMeasure.make(acc.items(), a.dim)
    return DiscreteMeasure(m.rows, m.den, m.counts, factors)


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


def mp_q(seq, depth: int, lams, xi, dps: int = 40):
    """Q_depth(xi) = Σ_λ Π_j |m_{B_j}((R_j···R_1)⁻ᵀ(xi + λ))|² in mpmath at
    `dps` digits: each atom (R_j···R_1)⁻¹b and its phase in Fractions,
    reduced mod 1 before the exponential."""
    import mpmath

    inverses = [fraction_inverse(product_range(seq, 0, j)) for j in range(1, depth + 1)]
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for lam in lams:
            x = tuple(Fraction(a) + b for a, b in zip(xi, lam))
            term = mpmath.mpf(1)
            for j, inv in enumerate(inverses, start=1):
                digits = seq.digits(j)
                s = mpmath.mpc(0)
                for b in digits.vectors:
                    t = sum(p * q for p, q in zip(inv.matvec(b), x)) % 1
                    s += mpmath.expjpi(-2 * mpmath.mpf(t.numerator) / t.denominator)
                term *= abs(s / len(digits)) ** 2
            total += term
        return total


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


def level_triple(seq, k: int) -> tuple:
    """(R_k, B_k, L_k) of a sequence, with L_k built."""
    return seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)


def compose_triples(triples) -> tuple:
    """Collapse consecutive triples (R_1,B_1,L_1),...,(R_n,B_n,L_n) into one
    (R, B, L), which `hadamard_check` must certify.

    R = R_n···R_1,  B = R_n···R_2 B_1 + ··· + B_n (Horner form),
    L = L_1 + R_1ᵀ L_2 + ··· + (R_{n-1}···R_1)ᵀ L_n.
    Digit collisions cannot happen for genuine triples and are reported.
    """
    ts = list(triples)
    if not ts:
        raise EmptySet("need at least one triple to compose")
    dim = ts[0][0].dim
    for r, _, _ in ts:
        if r.dim != dim:
            raise DimensionMismatch("triples live in different dimensions")
    r_acc, b_acc, _ = ts[0]
    expected_b = len(b_acc)
    for r, b, _ in ts[1:]:
        r_acc = r.matmul(r_acc)
        b_acc = minkowski_sum(map_digits(r, b_acc), b)
        expected_b *= len(b)
        if len(b_acc) != expected_b:
            raise TripleInvalid("composed digit sets collided; inputs are not a Hadamard chain")
    l_acc = ts[0][2]
    m_acc = IntMatrix.identity(dim)
    expected_l = len(l_acc)
    for j in range(1, len(ts)):
        m_acc = m_acc.matmul(ts[j - 1][0].transpose())
        l_acc = minkowski_sum(l_acc, map_digits(m_acc, ts[j][2]))
        expected_l *= len(ts[j][2])
        if len(l_acc) != expected_l:
            raise TripleInvalid("composed spectra collided; inputs are not a Hadamard chain")
    if not hadamard_check(r_acc, b_acc, l_acc):
        raise TripleInvalid("the composed triple is not a Hadamard triple")
    return r_acc, b_acc, l_acc


# ===== vanishing sums of roots of unity =====


def _mobius(m: int) -> int:
    """μ(m) by trial division."""
    sign, p = 1, 2
    while m > 1:
        if p * p > m:
            return -sign
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


_COFACTORS = {}


def cofactor(n: int) -> list:
    """The coefficients of Ψ_n = (x^n − 1)/Φ_n, lowest first, from its
    Möbius form Π_{d | n, d < n} (x^d − 1)^{−μ(n/d)}: every factor with
    μ(n/d) = −1 multiplied in first, then every one with μ(n/d) = 1 divided
    out, which is exact since the result is a polynomial."""
    if n not in _COFACTORS:
        mu = {d: _mobius(n // d) for d in range(1, n) if n % d == 0}
        poly = [1]
        for d in (d for d, s in mu.items() if s == -1):  # poly·(x^d − 1)
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0) for i in range(len(poly) + d)]
        for d in (d for d, s in mu.items() if s == 1):  # poly/(x^d − 1): poly[i] = q[i - d] − q[i]
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            assert all(c == (q[i - d] if i >= d else 0) for i, c in enumerate(poly[len(q):], len(q)))
            poly = q
        _COFACTORS[n] = poly
    return _COFACTORS[n]


def sum_vanishes(terms, n: int) -> bool:
    """Whether Σ w·ζ_n^e = 0 over (e, w) pairs.  Φ_n is the minimal
    polynomial of ζ_n, so the sum vanishes exactly when Φ_n divides
    P = Σ w·x^(e mod n), that is when x^n − 1 = Φ_n·Ψ_n divides P·Ψ_n: when
    the cyclic convolution of P and Ψ_n (`cofactor`) is 0."""
    psi = [(i, c) for i, c in enumerate(cofactor(n)) if c]
    acc = [0] * n
    for e, w in terms:
        for i, c in psi:
            acc[(e + i) % n] += w * c
    return not any(acc)


def gram_is_identity(r: IntMatrix, b: DigitSet, l: DigitSet) -> bool:
    """Whether [ (1/√#B) e^{-2πi (R^{-1}b)·ℓ} ] is unitary: #B = #L and, for
    every pair of digits, the sum over L of the roots of unity of order N,
    N the common denominator of R^{-1}, vanishes."""
    if len(b) != len(l):
        return False
    inv, n = over_common_denominator(fraction_inverse(r))
    y = [inv.matvec(v) for v in b.vectors]
    for i, j in itertools.combinations(range(len(y)), 2):
        delta = [a - c for a, c in zip(y[i], y[j])]
        if not sum_vanishes([(sum(a * x for a, x in zip(delta, v)), 1) for v in l.vectors], n):
            return False
    return True


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


# ===== the Philox4x64-10 block function =====


def philox4x64(counter, key) -> tuple:
    """Philox4x64-10 of one counter (four words) under one key (two words),
    from the specification in Python integers (Salmon et al., SC'11): ten
    rounds of full 128-bit products, the key bumped between rounds."""
    mask = (1 << 64) - 1
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & mask, (k1 + 0xBB67AE8584CAA73B) & mask
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & mask, (p0 >> 64) ^ c3 ^ k1, p0 & mask
    return c0, c1, c2, c3


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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")
    common.add_argument("--out", help="write the artifact (or report) to this path")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--max-atoms", type=int, dest="max_atoms", help="override the spectrum level cap")
    common.add_argument(
        "--grid-pitch", dest="grid_pitch", help="override the scan pitch (p/q)"
    )

    parser = argparse.ArgumentParser(
        prog="convspectra",
        description="finite truncations of infinite digit convolutions: "
        "checks, candidate spectra, and scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "run the requested convergence and admissibility checks",
        "spectrum": "build candidate spectrum levels and verify exactness",
        "qscan": "evaluate the completeness functional on a grid (CSV)",
        "sample": "draw coupled random partial sums (CSV)",
        "equipos": "scan tail transforms for a positive lower bound",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser
