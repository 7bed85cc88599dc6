"""Hypothesis checkers: defect/remainder/concentration series, contraction
margins, three-series diagnostics, and the interval coupling sampler.

Series terms are exact rationals; only the convergence verdicts are
heuristic (and say so).  A caller who owns an analytic tail bound can pass
it in to upgrade the verdict to "certified".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    ValidationError,
)
from .exactmat import DEFAULT_NORM_TOL, IntMatrix, invert, spectral_norm_upper
from .triples import (
    DigitSet,
    box_mask,
    check_reduction,
    cone_mask,
    integer_rows,
    numerators,
    shared_masks,
)

VERDICT_CONVERGED = "converged-numerically"
VERDICT_CERTIFIED = "certified"
VERDICT_DIVERGING = "diverging"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeriesDiagnostics:
    name: str
    indices: tuple  # the level indices the terms belong to
    terms: tuple  # exact rationals (or rational vectors)
    partial_sums: tuple  # same kind, cumulative
    verdict: str
    bound_used: str
    tail_bound: float | None = None


@dataclass(frozen=True)
class PccSeriesDiagnostics(SeriesDiagnostics):
    min_margin: float = 0.0
    margin_ok: bool = False


@dataclass(frozen=True)
class RbcSplit:
    b1: DigitSet  # digits landing inside R[-1/2,1/2)^d
    b2: DigitSet  # the remainder


@dataclass(frozen=True)
class ContractivityReport:
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


def _finish_scalar_series(name, indices, terms, tail_bound):
    partials, acc = [], Fraction(0)
    for t in terms:
        acc += t
        partials.append(acc)
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
        partial_sums=tuple(partials),
        verdict=verdict,
        bound_used=used,
        tail_bound=tb,
    )


# ===== equivalence defect (symmetric-difference series) =====


def defect_term(a: DigitSet, b: DigitSet) -> Fraction:
    """max{ #(B\\A)/#B, #(A\\B)/#A } for one pair of digit sets."""
    grid, wide, _, _ = shared_masks(a, b)
    shared = int(grid.sum()) + sum(wide)
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


def _box_masks(nums):
    """box_mask of the grid and wide rows of nums = numerators(r, b)."""
    den, y_grid, y_wide = nums
    return box_mask(y_grid, den), box_mask(y_wide, den)


def rbc_split(r: IntMatrix, b: DigitSet) -> RbcSplit:
    """Partition digits by whether R^{-1}b lands in [-1/2,1/2)^d (half-open)."""
    if r.dim != b.dim:
        raise DimensionMismatch("matrix and digit set dimensions differ")
    grid, wide = _box_masks(numerators(r, b))
    return RbcSplit(b1=b._subset(grid, wide), b2=b._subset(~grid, ~wide))


def rbc_series(seq, upto: int, tail_bound=None) -> SeriesDiagnostics:
    """Terms #B_{k,2}/#B_k, the fraction of digits outside R_k[-1/2,1/2)^d."""
    indices = _levels_to(upto)
    terms = _walk(seq, {"rbc": indices})["rbc"]
    return _finish_scalar_series("rbc", indices, terms, tail_bound)


# ===== concentration margin and split =====


def _pcc_sup_sq(r: IntMatrix) -> Fraction:
    """Exact square of the cube sup: max over vertices xi of d * |R^{-T}xi|_2^2,
    enumerated on integers as R^{-T}xi = adj(R)^T xi / det R from the
    inverse cached on r."""
    d = r.dim
    if d > 20:
        raise DimensionTooLarge(f"vertex enumeration needs 2^{d} points")
    det, adj = invert(r)
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
    den, y_grid, y_wide = numerators(r, b)
    grid, wide = (cone_mask(y, den, (1 - lf) / 2) for y in (y_grid, y_wide))
    return b._subset(grid, wide), b._subset(~grid, ~wide)


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
    return PccSeriesDiagnostics(
        name=base.name,
        indices=base.indices,
        terms=base.terms,
        partial_sums=base.partial_sums,
        verdict=base.verdict,
        bound_used=base.bound_used,
        tail_bound=base.tail_bound,
        min_margin=min_margin,
        margin_ok=margin_ok,
    )


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
    each level's R_k and B_k are fetched once and `numerators` runs at most
    once.  pcc terms are (far fraction, squared cube sup) pairs at cone
    level pcc_l, contractivity terms norm upper bounds."""
    levels = {name: set(ks) for name, ks in want.items()}
    out = {name: [] for name in want}
    for k in sorted(set().union(*levels.values())):
        at = {name for name, ks in levels.items() if k in ks}
        r = seq.matrix(k)
        if at - {"contractivity"}:
            b = seq.digits(k)
            den, *parts = nums = numerators(r, b)
        if at & {"equivalence", "rbc"}:
            inside = _box_masks(nums)
            outside = Fraction(len(b) - sum(int(m.sum()) for m in inside), len(b))
        if "equivalence" in at:
            # B_k against its own reduction: a digit inside the box is its own
            # representative and every representative lies in the box, so the
            # shared digits are the inside ones, and both sets have #B_k
            # digits unless two are congruent, which raises CongruentDigits
            check_reduction(r, b, nums, inside)
            out["equivalence"].append(outside)
        if "rbc" in at:
            out["rbc"].append(outside)
        if "pcc" in at:
            near = sum(int(cone_mask(y, den, (1 - pcc_l) / 2).sum()) for y in parts)
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
    (`triples.numerators`), so the ball test and the moment sums run on
    integers; each term becomes an exact Fraction once per level.
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
        den, *parts = numerators(seq.prefix_matrix(k), digits)
        # |y/D| <= p/q  <=>  |y|^2 q^2 <= p^2 D^2
        q2, limit = radius.denominator**2, (radius.numerator * den) ** 2
        outside, sq_sum = 0, 0
        sums = [0] * seq.dim
        for y in parts:
            y = y.astype(object)  # squares of int64 numerators may not fit
            sq = (y * y).sum(axis=1)
            inside = sq * q2 <= limit
            outside += len(y) - int(inside.sum())
            sq_sum += int(sq[inside].sum())
            sums = [s + int(c) for s, c in zip(sums, y[inside].sum(axis=0))]
        mean = tuple(Fraction(s, n * den) for s in sums)
        mass_terms.append(Fraction(outside, n))
        mean_terms.append(mean)
        var_terms.append(Fraction(sq_sum, n * den * den) - sum(x * x for x in mean))

    s1 = _finish_scalar_series("tail-mass", indices, mass_terms, None)
    s3 = _finish_scalar_series("truncated-variance", indices, var_terms, None)

    # vector series: cumulative sums, Cauchy increments in l2 over last quarter
    partials = []
    acc = tuple(Fraction(0) for _ in range(seq.dim))
    for t in mean_terms:
        acc = tuple(p + q for p, q in zip(acc, t))
        partials.append(acc)
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
        partial_sums=tuple(partials),
        verdict=verdict,
        bound_used=used,
    )
    return s1, s2, s3


# ===== interval coupling sampler =====

_Q = 1 << 53  # draws are exact integers u, representing x = u / 2^53


@dataclass(frozen=True)
class LevelCoupling:
    k: int
    exact_p: Fraction
    mismatches: int
    draws: int

    @property
    def empirical(self) -> float:
        return self.mismatches / self.draws


@dataclass(frozen=True)
class CouplingReport:
    levels: tuple
    exact_partials: tuple
    empirical_partials: tuple
    x_sums: np.ndarray  # (draws, dim) float partial sums per draw
    y_sums: np.ndarray
    seed: int
    draws: int
    dim: int


def _aligned_tables(a: DigitSet, b: DigitSet):
    """Order both sets with the shared elements first, in the same order.

    Returns (ax, ay, s, swapped): each table is a pair of digit sets, the
    shared digits then the set's own ones, with len(ax) <= len(ay); callers
    track whether the roles were swapped."""
    a_grid, a_wide, b_grid, b_wide = shared_masks(a, b)
    shared = a._subset(a_grid, a_wide)
    ax = (shared, a._subset(~a_grid, [not w for w in a_wide]))
    ay = (shared, b._subset(~b_grid, [not w for w in b_wide]))
    swapped = len(a) > len(b)
    if swapped:
        ax, ay = ay, ax
    return ax, ay, len(shared), swapped


def _level_draws(seed: int, k: int, draws: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=[seed, k]))
    return gen.integers(0, _Q, size=draws, dtype=np.int64)


def _floor_q(u: np.ndarray, m: int):
    """(⌊u·m / 2^53⌋, u·m mod 2^53) for draws u < 2^53 and m < 2^31, exact in
    int64: u splits into 27 high and 26 low bits, so no product passes 2^58."""
    hi = (u >> 26) * m
    t = ((hi & ((1 << 27) - 1)) << 26) + (u & ((1 << 26) - 1)) * m
    return (hi >> 27) + (t >> 53), t & (_Q - 1)


def _sample_level(m: int, n: int, s: int, u: np.ndarray):
    """Vectorised coupled evaluation of tables of m <= n < 2^31 digits sharing
    the first s; returns (x_idx, y_idx, mismatch_mask)."""
    i0, rem = _floor_q(u, m)
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
        parts = integer_rows(digits)
    else:
        det, adj = inv
        parts = [p / det for p in integer_rows(digits, adj.rows)]
    grid, wide = (p.astype(float).tolist() for p in parts)
    return np.array(digits.in_order(grid, wide), dtype=float).reshape(-1, digits.dim)


def coupled_sample(
    s1, s2, upto: int, draws: int, rng_seed: int, scale_by=None
) -> CouplingReport:
    """Empirical mismatch frequencies for the interval coupling, level by
    level, plus the coupled partial-sum samples for both sequences.

    `scale_by` (optional) maps a level index to an exact inverse (det, adj)
    from `invert`, applied to both digit sets before summing, e.g. of the
    prefix product so the partial sums follow the scaled summands instead of
    the raw digits."""
    if upto < 1 or draws < 1:
        raise ValidationError("need upto >= 1 and draws >= 1")
    f1, f2 = _digits_provider(s1), _digits_provider(s2)
    levels = []
    exact_partials, empirical_partials = [], []
    acc_exact, acc_emp = Fraction(0), 0.0
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
        va, vb = (np.concatenate([_float_rows(p, sc) for p in t]) for t in (ax, ay))
        if swapped:
            x_sums += vb[y_idx]
            y_sums += va[x_idx]
        else:
            x_sums += va[x_idx]
            y_sums += vb[y_idx]
        exact_p = Fraction(n - s, n)
        mcount = int(mism.sum())
        levels.append(LevelCoupling(k=k, exact_p=exact_p, mismatches=mcount, draws=draws))
        acc_exact += exact_p
        acc_emp += mcount / draws
        exact_partials.append(acc_exact)
        empirical_partials.append(acc_emp)
    return CouplingReport(
        levels=tuple(levels),
        exact_partials=tuple(exact_partials),
        empirical_partials=tuple(empirical_partials),
        x_sums=x_sums,
        y_sums=y_sums,
        seed=rng_seed,
        draws=draws,
        dim=dim,
    )
