"""Hypothesis checkers: defect/remainder/concentration series, contraction
margins, three-series diagnostics, and the interval coupling sampler.

Series terms are exact rationals; only the convergence verdicts are
heuristic (and say so).  A caller who owns an analytic tail bound can pass
it in to upgrade the verdict to "certified".
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from itertools import product as cartesian
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    ValidationError,
)
from .exactmat import DEFAULT_NORM_TOL, IntMatrix, invert, spectral_norm_upper
from .triples import (
    AxisNumerators,
    DigitSet,
    axis_numerators,
    box_count,
    box_mask,
    check_reduction,
    cone_count,
    cone_mask,
    integer_rows,
    numerators,
    shared_masks,
)

VERDICT_CONVERGED = "converged-numerically"
VERDICT_CERTIFIED = "certified"
VERDICT_DIVERGING = "diverging"
VERDICT_INCONCLUSIVE = "inconclusive"

# A series holds the partial sums that a report prints: the first
# _PARTIALS_HEAD and the last (the CLI clips a long table to its head and
# its final row).  Exact sums' denominators grow with the level, so holding
# them all would cost memory quadratic in the levels.
_PARTIALS_HEAD = 23


class SeriesDiagnostics(NamedTuple):
    name: str
    indices: tuple  # the level indices the terms belong to
    terms: tuple  # exact rationals (or rational vectors)
    partial_sums: tuple  # same kind, cumulative: see _held_partials
    verdict: str
    bound_used: str
    tail_bound: float | None = None


class PccSeriesDiagnostics(NamedTuple):
    """A SeriesDiagnostics' fields, in its order, then the margin's (a
    NamedTuple cannot add fields in a subclass)."""

    name: str
    indices: tuple
    terms: tuple
    partial_sums: tuple
    verdict: str
    bound_used: str
    tail_bound: float | None = None
    min_margin: float = 0.0
    margin_ok: bool = False


class RbcSplit(NamedTuple):
    b1: DigitSet  # digits landing inside R[-1/2,1/2)^d
    b2: DigitSet  # the remainder


class ContractivityReport(NamedTuple):
    max_norm_upper: float
    at_level: int
    declared: Fraction | None
    verdict: str  # verified | unverified-tail | fails
    detail: str


# ===== generic series plumbing =====


def _digits_provider(s):
    """Accept a TripleSequence, a callable k -> DigitSet, or a plain list."""
    digits = getattr(s, "digits", None)
    if callable(digits):
        return digits
    if callable(s):
        return s
    items = list(s)

    def at(k: int) -> DigitSet:
        if not 1 <= k <= len(items):
            raise IndexOutOfRange(f"level {k} outside explicit list of {len(items)}")
        return items[k - 1]

    return at


def _loglog_slope(points):
    n = len(points)
    mx = sum(p[0] for p in points) / n
    my = sum(p[1] for p in points) / n
    sxx = sum((p[0] - mx) ** 2 for p in points)
    if sxx == 0:
        return None
    return sum((p[0] - mx) * (p[1] - my) for p in points) / sxx


def _scalar_verdict(indices, fterms):
    """Heuristic read of finitely many nonnegative terms.  Not a proof."""
    n = len(fterms)
    tail = fterms[n // 2 :]
    if all(t == 0.0 for t in tail):
        return VERDICT_CONVERGED, "tail terms identically zero"
    ratios = [
        tail[i + 1] / tail[i]
        for i in range(len(tail) - 1)
        if tail[i] > 0 and tail[i + 1] > 0
    ]
    if len(ratios) >= 3 and max(ratios) <= 0.95:
        return VERDICT_CONVERGED, f"geometric tail, ratio <= {max(ratios):.3f}"
    pts = [
        (math.log(k), math.log(t))
        for k, t in zip(indices[n // 2 :], tail)
        if t > 0 and k > 0
    ]
    if len(pts) >= 4:
        slope = _loglog_slope(pts)
        if slope is not None:
            if slope < -1.05:
                return VERDICT_CONVERGED, f"power-law tail fit, slope {slope:.2f}"
            if slope > -0.95:
                return VERDICT_DIVERGING, f"tail decays too slowly, slope {slope:.2f}"
    return VERDICT_INCONCLUSIVE, "no tail pattern recognised"


def _held_partials(terms, add, acc) -> tuple:
    """The partial sums after the first _PARTIALS_HEAD terms, then, when
    there are more terms, the sum of all of them; add(acc, t) adds a term."""
    held = []
    for i, t in enumerate(terms):
        acc = add(acc, t)
        if i < _PARTIALS_HEAD:
            held.append(acc)
    if len(terms) > _PARTIALS_HEAD:
        held.append(acc)
    return tuple(held)


def _finish_scalar_series(name, indices, terms, tail_bound):
    if tail_bound is not None:
        nxt = (indices[-1] + 1) if indices else 1
        tb = float(tail_bound(nxt)) if callable(tail_bound) else float(tail_bound)
        verdict, used = VERDICT_CERTIFIED, f"declared tail bound {tb:.3e} beyond level {nxt - 1}"
    else:
        tb = None
        verdict, used = _scalar_verdict(indices, [float(t) for t in terms])
    return SeriesDiagnostics(
        name=name,
        indices=tuple(indices),
        terms=tuple(terms),
        partial_sums=_held_partials(terms, operator.add, Fraction(0)),
        verdict=verdict,
        bound_used=used,
        tail_bound=tb,
    )


# ===== equivalence defect (symmetric-difference series) =====


def defect_term(a: DigitSet, b: DigitSet) -> Fraction:
    """max{ #(B\\A)/#B, #(A\\B)/#A } for one pair of digit sets."""
    shared = int(shared_masks(a, b)[0].sum())
    return max(
        Fraction(len(b) - shared, len(b)), Fraction(len(a) - shared, len(a))
    )


def equivalence_defect(s1, s2, upto: int, tail_bound=None) -> SeriesDiagnostics:
    """Per-level normalized symmetric-difference terms between two digit
    sequences, with exact partial sums and a heuristic tail verdict."""
    if upto < 1:
        raise ValidationError("need upto >= 1")
    f1, f2 = _digits_provider(s1), _digits_provider(s2)
    indices = list(range(1, upto + 1))
    terms = []
    for k in indices:
        a, b = f1(k), f2(k)
        if a.dim != b.dim:
            raise DimensionMismatch(f"level {k}: dimensions {a.dim} vs {b.dim}")
        terms.append(defect_term(a, b))
    return _finish_scalar_series("equivalence-defect", indices, terms, tail_bound)


# ===== remainder split: digits outside R[-1/2,1/2)^d =====


def rbc_split(r: IntMatrix, b: DigitSet) -> RbcSplit:
    """Partition digits by whether R^{-1}b lands in [-1/2,1/2)^d (half-open)."""
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    den, y = numerators(r, b)
    inside = box_mask(y, den)
    return RbcSplit(b1=b._subset(inside), b2=b._subset(~inside))


def rbc_series(seq, upto: int, tail_bound=None) -> SeriesDiagnostics:
    """Terms #B_{k,2}/#B_k, the fraction of digits outside R_k[-1/2,1/2)^d."""
    indices = _levels_to(upto)
    terms = _walk(seq, {"rbc": indices})["rbc"]
    return _finish_scalar_series("rbc", indices, terms, tail_bound)


# ===== concentration margin and split =====


def _pcc_sup_sq(r: IntMatrix) -> Fraction:
    """Exact square of the cube sup: max over vertices xi of d * |R^{-T}xi|_2^2,
    enumerated on integers as R^{-T}xi = adj(R)^T xi / det R from the
    inverse cached on r; under a diagonal R, d·Σ adj_ii² / det²."""
    d = r.dim
    if d > 20:
        raise DimensionTooLarge(f"vertex enumeration needs 2^{d} points")
    det, adj = invert(r)
    if r.is_diagonal():
        # R^{-T} = diag(adj)/det: every vertex has the same image norm
        return Fraction(d * sum(adj.rows[i][i] ** 2 for i in range(d)), det * det)
    adj_t = adj.transpose()
    best = max(
        sum(x * x for x in adj_t.matvec(signs)) for signs in cartesian((1, -1), repeat=d)
    )
    return Fraction(d * best, det * det)


def pcc_sup(r: IntMatrix) -> float:
    """sup over unit-cube frequencies and the radius-sqrt(d)/2 ball of the
    contracted pairing; equals the vertex maximum of sqrt(d)*|R^{-T}xi|_2."""
    return math.sqrt(float(_pcc_sup_sq(r)))


def _pcc_level(l) -> Fraction:
    lf = Fraction(l)
    if not 0 < lf < 1:
        raise ValidationError(f"need 0 < l < 1, got {lf}")
    return lf


def pcc_split(r: IntMatrix, b: DigitSet, l) -> tuple[DigitSet, DigitSet]:
    """Split digits by the strict criterion |R^{-1}b|_1 < (1-l)/2.

    The cube sup of (R^{-1}b).xi over xi in [-1,1]^d is exactly the l1 norm,
    so this single inequality decides membership for every xi at once.
    """
    lf = _pcc_level(l)
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    den, y = numerators(r, b)
    near = cone_mask(y, den, (1 - lf) / 2)
    return b._subset(near), b._subset(~near)


def pcc_series(seq, l, subseq=None, upto: int | None = None, tail_bound=None) -> PccSeriesDiagnostics:
    """Far-digit fraction series along a subsequence, plus the uniform margin
    min_k (1 - l - pcc_sup(R_k)), which must stay positive."""
    lf = _pcc_level(l)
    if subseq is not None:
        indices = list(subseq)
        if not indices or any(
            indices[i] >= indices[i + 1] for i in range(len(indices) - 1)
        ):
            raise ValidationError("subsequence must be nonempty and increasing")
    else:
        if upto is None or upto < 1:
            raise ValidationError("need upto >= 1 when no subsequence is given")
        indices = list(range(1, upto + 1))
    terms = _walk(seq, {"pcc": indices}, pcc_l=lf)["pcc"]
    return _finish_pcc(lf, indices, terms, tail_bound)


def _finish_pcc(lf: Fraction, indices, terms, tail_bound) -> PccSeriesDiagnostics:
    """Diagnostics from per-level (far fraction, squared cube sup) pairs."""
    one_minus_sq = (1 - lf) ** 2
    min_margin = math.inf
    margin_ok = True
    for _, sup_sq in terms:
        if sup_sq >= one_minus_sq:  # exact comparison of squares
            margin_ok = False
        min_margin = min(min_margin, 1.0 - float(lf) - math.sqrt(float(sup_sq)))
    base = _finish_scalar_series(f"pcc[l={lf}]", indices, [t for t, _ in terms], tail_bound)
    return PccSeriesDiagnostics(*base, min_margin, margin_ok)


# ===== uniform contractivity =====


def contractivity_report(seq, upto: int, tol: float = DEFAULT_NORM_TOL) -> ContractivityReport:
    """Scan max_k ||R_k^{-1}||_2 (certified upper bounds) and combine with the
    sequence's declared tail bound."""
    indices = _levels_to(upto)
    norms = _walk(seq, {"contractivity": indices}, tol=tol)["contractivity"]
    return _finish_contractivity(seq, norms, tol)


def _finish_contractivity(seq, norms, tol: float) -> ContractivityReport:
    """The report for the norm upper bounds of levels 1..len(norms)."""
    worst, at = -math.inf, 0
    for k, u in enumerate(norms, 1):
        if u > worst:
            worst, at = u, k
    declared = seq.declared_contractivity
    if worst >= 1.0:
        verdict, detail = "fails", f"level {at} has ||R^{-1}|| upper bound {worst}"
    elif declared is None:
        verdict, detail = (
            "unverified-tail",
            f"scan of {len(norms)} levels < 1 but no declared bound for the tail",
        )
    elif declared >= 1:
        verdict, detail = "fails", f"declared bound {declared} is not < 1"
    elif worst > float(declared) + tol:
        verdict, detail = (
            "fails",
            f"scan max {worst} exceeds declared bound {float(declared)}",
        )
    else:
        verdict, detail = "verified", f"scan max {worst} <= declared {float(declared)}"
    return ContractivityReport(
        max_norm_upper=worst, at_level=at, declared=declared, verdict=verdict, detail=detail
    )


# ===== one walk over the levels =====

SERIES_CHECKS = ("equivalence", "rbc", "pcc", "contractivity")


def _levels_to(upto: int) -> list:
    if upto < 1:
        raise ValidationError("need upto >= 1")
    return list(range(1, upto + 1))


def _walk(seq, want: dict, pcc_l: Fraction | None = None, tol: float = DEFAULT_NORM_TOL) -> dict:
    """Per-level terms of the series in `want` (a name in SERIES_CHECKS ->
    increasing level indices), from one walk over the union of the levels:
    each level's R_k and B_k are fetched once and its numerators are formed
    at most once, by axis for a structured B_k under a diagonal R_k.  pcc
    terms are (far fraction, squared cube sup) pairs at cone level pcc_l,
    contractivity terms norm upper bounds."""
    levels = {name: set(ks) for name, ks in want.items()}
    out = {name: [] for name in want}
    for k in sorted(set().union(*levels.values())):
        at = {name for name, ks in levels.items() if k in ks}
        r = seq.matrix(k)
        if at - {"contractivity"}:
            b = seq.digits(k)
            nums = axis_numerators(r, b) or numerators(r, b)
        if at & {"equivalence", "rbc"}:
            outside = Fraction(len(b) - box_count(nums), len(b))
        if "equivalence" in at:
            # B_k against its own reduction: a digit inside the box is its own
            # representative and every representative lies in the box, so the
            # shared digits are the inside ones, and both sets have #B_k
            # digits unless two are congruent, which raises CongruentDigits
            check_reduction(r, b, nums)
            out["equivalence"].append(outside)
        if "rbc" in at:
            out["rbc"].append(outside)
        if "pcc" in at:
            near = cone_count(nums, (1 - pcc_l) / 2)
            out["pcc"].append((Fraction(len(b) - near, len(b)), _pcc_sup_sq(r)))
        if "contractivity" in at:
            det, adj = invert(r)
            out["contractivity"].append(spectral_norm_upper(adj, det, tol=tol))
    return out


def check_series(
    seq, names, upto: int, equivalence_upto: int | None = None, pcc_l="1/4"
) -> dict:
    """The series checks `names` (a subset of SERIES_CHECKS) in one walk over
    the levels, as a name -> diagnostics dict.

    Equivalence runs to `equivalence_upto` (default `upto`) against the
    sequence's own reduction, with its declared defect tail bound; the
    others run to `upto`.  The results equal those of
    equivalence_defect(seq, seq.reduced(), ...), rbc_series,
    pcc_series(seq, pcc_l, upto=upto) and contractivity_report, but every
    level is built once and the reduced digit sets are never formed.
    """
    eq_upto = upto if equivalence_upto is None else equivalence_upto
    want = {name: _levels_to(eq_upto if name == "equivalence" else upto) for name in names}
    lf = _pcc_level(pcc_l) if "pcc" in want else None
    terms = _walk(seq, want, pcc_l=lf)
    out = {}
    for name, ts in terms.items():
        if name == "equivalence":
            out[name] = _finish_scalar_series(
                "equivalence-defect", want[name], ts, seq.defect_tail_bound
            )
        elif name == "rbc":
            out[name] = _finish_scalar_series("rbc", want[name], ts, None)
        elif name == "pcc":
            out[name] = _finish_pcc(lf, want[name], ts, None)
        else:
            out[name] = _finish_contractivity(seq, ts, DEFAULT_NORM_TOL)
    return out


# ===== three-series diagnostics =====


def three_series(seq, r, upto: int):
    """Tail-mass / truncated-mean / truncated-variance terms for the level
    measures eta_k (uniform on the k-th scaled digit set), truncated to the
    closed ball of radius r with outside mass moved to the origin.

    Level k's atoms P_k^{-1}b (P_k the prefix product) are written y_b / D
    with integer numerators y_b = sign(det)·adj(P_k)·b and D = |det P_k|
    (`triples.numerators`, or `axis_numerators` for a structured B_k under
    a diagonal P_k), so the ball test and the moment sums run on integers;
    each term becomes an exact Fraction once per level.
    """
    radius = Fraction(r)
    if radius <= 0:
        raise ValidationError("truncation radius must be positive")
    if upto < 1:
        raise ValidationError("need upto >= 1")
    indices = list(range(1, upto + 1))
    mass_terms, mean_terms, var_terms = [], [], []
    for k in indices:
        digits = seq.digits(k)
        n = len(digits)
        m = seq.prefix_matrix(k)
        nums = axis_numerators(m, digits) or numerators(m, digits)
        den = nums.den if isinstance(nums, AxisNumerators) else nums[0]
        # |y/D| <= p/q  <=>  |y|^2 q^2 <= p^2 D^2
        inside, sq_sum, sums = _ball_moments(nums, radius.denominator**2, (radius.numerator * den) ** 2)
        mean = tuple(Fraction(s, n * den) for s in sums)
        mass_terms.append(Fraction(n - inside, n))
        mean_terms.append(mean)
        var_terms.append(Fraction(sq_sum, n * den * den) - sum(x * x for x in mean))

    s1 = _finish_scalar_series("tail-mass", indices, mass_terms, None)
    s3 = _finish_scalar_series("truncated-variance", indices, var_terms, None)

    # vector series: cumulative sums, Cauchy increments in l2 over last quarter
    partials = _held_partials(mean_terms, lambda acc, t: tuple(map(operator.add, acc, t)), (Fraction(0),) * seq.dim)
    incs = [math.sqrt(float(sum(x * x for x in t))) for t in mean_terms]
    quarter = incs[(3 * len(incs)) // 4 :]
    if all(i < 1e-10 for i in quarter):
        verdict, used = VERDICT_CONVERGED, "l2 increments < 1e-10 over last quarter"
    else:
        verdict, used = (
            VERDICT_INCONCLUSIVE,
            f"largest recent l2 increment {max(quarter):.3e}",
        )
    s2 = SeriesDiagnostics(
        name="truncated-mean",
        indices=tuple(indices),
        terms=tuple(mean_terms),
        partial_sums=partials,
        verdict=verdict,
        bound_used=used,
    )
    return s1, s2, s3


def _ball_moments(nums, q2: int, limit: int) -> tuple:
    """(count, Σ|y|², Σy) over the rows y of nums with |y|²·q2 <= limit.

    For an AxisNumerators whose product rows all lie in the ball, as the
    row of the axes' largest |y| tells, the sums are taken per axis;
    otherwise each choice of the first coordinates leaves the last ones
    with y_d² <= ⌊(limit - q2·Σ_{i<d} y_i²)/q2⌋: one interval of the sorted
    last axis, summed by prefix sums.  The removed rows are then taken out
    and the added ones put in."""
    if not isinstance(nums, AxisNumerators):
        y = nums[1].astype(object)  # squares of int64 numerators may not fit
        sq = (y * y).sum(axis=1)
        inside = sq * q2 <= limit
        return int(inside.sum()), int(sq[inside].sum()), [int(c) for c in y[inside].sum(axis=0)]
    if q2 * sum(max(least * least, most * most) for least, most in nums.ends) <= limit:
        # every product row lies in the ball: each axis value meets every
        # row of the other axes
        count = math.prod(map(len, nums.axes))
        sq_sum, sums = 0, []
        for y in nums.axes:
            ys = y.tolist()
            sq_sum += sum(x * x for x in ys) * (count // len(ys))
            sums.append(sum(ys) * (count // len(ys)))
    else:
        *heads, last = (sorted(y.tolist()) for y in nums.axes)
        first = [0, *accumulate(last)]
        second = [0, *accumulate(x * x for x in last)]
        count, sq_sum, sums = 0, 0, [0] * len(nums.axes)
        for head in cartesian(*heads):
            head_sq = sum(x * x for x in head)
            rest = limit - q2 * head_sq
            if rest < 0:
                continue
            t = math.isqrt(rest // q2)
            lo, hi = bisect_left(last, -t), bisect_right(last, t)
            count += hi - lo
            sq_sum += head_sq * (hi - lo) + second[hi] - second[lo]
            for i, x in enumerate(head):
                sums[i] += x * (hi - lo)
            sums[-1] += first[hi] - first[lo]
    for rows, sign in ((nums.removed, -1), (nums.added, 1)):
        for y in rows:
            sq = sum(x * x for x in y)
            if sq * q2 <= limit:
                count += sign
                sq_sum += sign * sq
                sums = [s + sign * x for s, x in zip(sums, y)]
    return count, sq_sum, sums


# ===== interval coupling sampler =====

_Q = 1 << 53  # draws are exact integers u, representing x = u / 2^53


class LevelCoupling(NamedTuple):
    k: int
    exact_p: Fraction
    mismatches: int
    draws: int

    @property
    def empirical(self) -> float:
        return self.mismatches / self.draws


class CouplingReport(NamedTuple):
    levels: tuple
    exact_partials: tuple
    x_sums: np.ndarray  # (draws, dim) float partial sums per draw
    y_sums: np.ndarray
    seed: int
    draws: int
    dim: int


def _aligned_tables(a: DigitSet, b: DigitSet):
    """Order both sets with the shared elements first, in the same order.

    Returns (ax, ay, s, swapped): each table is a pair of digit sets, the
    shared digits then the set's own ones, with len(ax) <= len(ay); callers
    track whether the roles were swapped.  Two structured sets on the same
    axes share a structured set, and their own digits are exceptions."""
    p, q = a.product, b.product
    if p is not None and q is not None and all(map(np.array_equal, p.axes, q.axes)):
        shared = DigitSet._product(p.axes, p.removed + q.removed, set(p.added) & set(q.added))
        own_a, own_b = (
            DigitSet._from_rows(a.dim, list(set(y.removed) - set(x.removed) | set(x.added) - set(y.added)))
            for x, y in ((p, q), (q, p))
        )
    else:
        a_mask, b_mask = shared_masks(a, b)
        shared, own_a, own_b = a._subset(a_mask), a._subset(~a_mask), b._subset(~b_mask)
    ax, ay = (shared, own_a), (shared, own_b)
    swapped = len(a) > len(b)
    if swapped:
        ax, ay = ay, ax
    return ax, ay, len(shared), swapped


# Philox4x64-10 (Salmon et al., SC'11): the round multipliers, one per
# multiplied word, and the Weyl increments of the two key words
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _philox4x64(blocks: np.ndarray, key) -> np.ndarray:
    """Philox4x64-10 of every row of `blocks`, a (b, 4) uint64 array of
    counters, under key = (k0, k1), two ints in [0, 2^64); the rows are
    overwritten with the cipher blocks and returned.

    The even and odd words of all rows go as two (2, b) arrays.  A round
    takes the 128-bit products of the even words (c0, c2) with their
    multipliers, hi·2^64 + lo, and sets (c0, c1, c2, c3) to
    (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0): the new even words are the his
    reversed, the new odd ones the los reversed.  lo is the wrapping uint64
    product; hi sums 32-bit partial products, no sum passing 2^64.  Besides
    `blocks`, the even and odd words and four scratch arrays of their shape:
    twelve words, 96 bytes, a row."""
    even, odd = blocks[:, 0::2].T.copy(), blocks[:, 1::2].T.copy()
    bl, bh, ll, lh = (np.empty_like(even) for _ in range(4))
    m_lo, m_hi = _PHILOX_M & _LOW32, _PHILOX_M >> _S32
    for r in range(10):
        k = np.array([[(key[1] + r * _PHILOX_W[1]) % (1 << 64)],
                      [(key[0] + r * _PHILOX_W[0]) % (1 << 64)]], dtype=np.uint64)
        np.bitwise_and(even, _LOW32, out=bl)
        np.right_shift(even, _S32, out=bh)
        np.multiply(even, _PHILOX_M, out=even)  # lo
        np.multiply(bl, m_lo, out=ll)
        np.multiply(bh, m_lo, out=lh)
        np.multiply(bl, m_hi, out=bl)  # hl
        np.multiply(bh, m_hi, out=bh)  # hh
        np.right_shift(ll, _S32, out=ll)
        np.add(lh, ll, out=lh)  # t = lh + (ll >> 32) < 2^64
        np.bitwise_and(lh, _LOW32, out=ll)
        np.add(bl, ll, out=bl)  # hl + (t mod 2^32) < 2^64
        np.right_shift(lh, _S32, out=lh)
        np.right_shift(bl, _S32, out=bl)
        np.add(bh, lh, out=bh)
        np.add(bh, bl, out=bh)  # hi = hh + (t >> 32) + ((hl + t mod 2^32) >> 32)
        np.bitwise_xor(bh, odd[::-1], out=bh)
        np.bitwise_xor(bh, k, out=bh)
        even, odd, bh, bl = bh[::-1], even[::-1], bl, odd  # the old odd words are scratch now
    blocks[:, 0::2] = even.T
    blocks[:, 1::2] = odd.T
    return blocks


def _level_draws(seed: int, k: int, draws: int) -> np.ndarray:
    """The draws u < 2^53 of level k, as numpy's
    Generator(Philox(key=[seed, k])).integers(0, 2^53, draws, np.int64)
    gives them for a seed in [-2^63, 2^63).

    The key is (seed mod 2^64, k) and the counters are (c, 0, 0, 0) for
    c = 1, 2, ... (numpy steps the counter before each block); each block
    gives four raw words r in order, and u = r >> 11.  That is Lemire's
    bounded draw ⌊r·2^53 / 2^64⌋, whose rejection threshold
    (2^64 - 2^53) mod 2^53 is 0, so it never rejects."""
    nb = -(-draws // 4)
    blocks = np.zeros((nb, 4), dtype=np.uint64)
    blocks[:, 0] = np.arange(1, nb + 1, dtype=np.uint64)
    raw = _philox4x64(blocks, (seed % (1 << 64), k)).reshape(-1)[:draws]
    raw >>= np.uint64(11)
    return raw.view(np.int64)


def _floor_q(u: np.ndarray, m: int):
    """(⌊u·m / 2^53⌋, u·m mod 2^53) for draws u < 2^53 and m < 2^31, exact in
    int64: u splits into 27 high and 26 low bits, so no product passes 2^58."""
    hi = (u >> 26) * m
    t = ((hi & ((1 << 27) - 1)) << 26) + (u & ((1 << 26) - 1)) * m
    return (hi >> 27) + (t >> 53), t & (_Q - 1)


def _sample_level(m: int, n: int, s: int, u: np.ndarray):
    """Vectorised coupled evaluation of tables of m <= n < 2^31 digits sharing
    the first s; returns (x_idx, y_idx, mismatch_mask).  Tables of one size
    align every draw, on the same slot."""
    i0, rem = _floor_q(u, m)
    if m == n:
        return i0, i0, i0 >= s
    aligned = rem < -(-m * _Q // n)  # n·rem < m·2^53
    fill = _floor_q(u, n)[0] - i0 - 1 + m
    y_idx = np.where(aligned, i0, fill)
    mism = ~(aligned & (i0 < s))
    return i0, y_idx, mism


def _float_rows(digits: DigitSet, inv=None) -> np.ndarray:
    """Floats of adj·v / det (or of v) for the digits v in order, where
    inv = (det, adj) is an exact inverse from `invert`.

    Every entry is the int/int true division (adj·v)_i / det: correctly
    rounded, hence equal to float() of the exact rational, without Fraction
    arithmetic per digit."""
    if inv is None:
        return digits.rows.astype(float)
    det, adj = inv
    return (integer_rows(digits, adj.rows) / det).astype(float)


def _shared_rows(shared: DigitSet, inv, index: np.ndarray) -> np.ndarray:
    """The `_float_rows` of the digits of `shared` at `index`.  A structured
    set with no added rows, under a diagonal (or no) inverse, gives one
    exact float per axis value, gathered by mixed-radix index; any other
    set gives its rows whole."""
    p = shared.product
    if p is None or p.added or (inv is not None and not inv[1].is_diagonal()):
        return _float_rows(shared, inv).take(index, axis=0)
    rows = np.empty((len(index), shared.dim))
    for i, (a, w) in enumerate(zip(p.axes, shared._locate(index))):
        values = a.tolist() if inv is None else [inv[1].rows[i][i] * x / inv[0] for x in a.tolist()]
        rows[:, i] = np.array(values, dtype=float)[w]
    return rows


def _table_rows(table, inv, index: np.ndarray) -> np.ndarray:
    """The `_float_rows` of the digits at `index` in a table (shared, own)
    of `_aligned_tables`.  With no more digits than draws, or none shared,
    the rows of every digit form one float table, shared then own, that
    the draws gather from; otherwise the shared rows are formed per draw
    and the own ones put in."""
    shared, own = table
    n = len(shared)
    if not n or n + len(own) <= len(index):
        rows = np.concatenate([_shared_rows(shared, inv, np.arange(n)), _float_rows(own, inv)])
        return rows.take(index, axis=0)
    at_own = np.flatnonzero(index >= n)
    rows = _shared_rows(shared, inv, np.minimum(index, n - 1))
    if len(at_own):
        rows[at_own] = _float_rows(own, inv).take(index[at_own] - n, axis=0)
    return rows


def coupled_sample(
    s1, s2, upto: int, draws: int, rng_seed: int, scale_by=None
) -> CouplingReport:
    """Empirical mismatch frequencies for the interval coupling, level by
    level, plus the coupled partial-sum samples for both sequences.

    `scale_by` (optional) maps a level index to an exact inverse (det, adj)
    from `invert`, applied to both digit sets before summing, e.g. of the
    prefix product so the partial sums follow the scaled summands instead of
    the raw digits.  The seed is an int64, in [-2^63, 2^63); see
    `_level_draws`."""
    if upto < 1 or draws < 1:
        raise ValidationError("need upto >= 1 and draws >= 1")
    if not -(1 << 63) <= rng_seed < 1 << 63:
        raise ValidationError(f"the seed must be in [-2^63, 2^63), got {rng_seed}")
    f1, f2 = _digits_provider(s1), _digits_provider(s2)
    levels = []
    x_sums = y_sums = None
    dim = None
    for k in range(1, upto + 1):
        a, b = f1(k), f2(k)
        if a.dim != b.dim:
            raise DimensionMismatch(f"level {k}: dimensions {a.dim} vs {b.dim}")
        if dim is None:
            dim = a.dim
            x_sums = np.zeros((draws, dim))
            y_sums = np.zeros((draws, dim))
        ax, ay, s, swapped = _aligned_tables(a, b)
        u = _level_draws(rng_seed, k, draws)
        m, n = (len(b), len(a)) if swapped else (len(a), len(b))
        x_idx, y_idx, mism = _sample_level(m, n, s, u)
        sc = scale_by(k) if scale_by is not None else None
        va, vb = _table_rows(ax, sc, x_idx), _table_rows(ay, sc, y_idx)
        if swapped:
            va, vb = vb, va
        x_sums += va
        y_sums += vb
        levels.append(LevelCoupling(k=k, exact_p=Fraction(n - s, n), mismatches=int(mism.sum()), draws=draws))
    return CouplingReport(
        levels=tuple(levels),
        exact_partials=tuple(accumulate(lv.exact_p for lv in levels)),
        x_sums=x_sums,
        y_sums=y_sums,
        seed=rng_seed,
        draws=draws,
        dim=dim,
    )
