"""Candidate spectra: level-by-level construction, the Q-function criterion,
exact finite-level verification, and the equi-positivity grid scan.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import product as cartesian
from typing import NamedTuple

import numpy as np

from ._phases import (
    _INT64_SAFE,
    COMPLEX_BYTES,
    PHASE_ENTRY_BYTES,
    PointRows,
    _axis_sets,
    _block_table,
    _distinct_rows,
    _int_rows,
    _narrowest,
    _peak,
    budget_largest,
    check_budget,
    difference_deviation,
    merged_factors,
    sum_rows,
    sum_set_runs,
    within_budget,
)
from .errors import (
    BoundViolation,
    DimensionMismatch,
    GridTooLarge,
    MilestoneGap,
    NonUniformWeights,
    SizeMismatch,
    TripleInvalid,
    TruncationTooLarge,
    ValidationError,
)
from .exactmat import invert, product_range
from .measures import DiscreteMeasure, _points, tail_factors, tail_fourier_many
from .triples import DEFAULT_UNITARITY_TOL, hadamard_check

DEFAULT_SPECTRUM_CAP = 1_000_000
DEFAULT_FAIL_TOL = 1e-12
DEFAULT_GRID_CAP = 4_000_000
_TAIL_FLOOR_TERMS = 200
_LEVEL_BLOCK_ROWS = 4096  # level-file rows formatted per block


# ===== spectrum construction =====


class SpectrumLevels:
    """Candidate spectrum levels, each its sorted distinct integer vectors as
    one (n, dim) array: int64 when every entry lies below 2^62, object (exact
    Python ints) otherwise, so the form is canonical; equality is on rows."""

    def __init__(self, dim: int, milestones: tuple, levels: tuple, chooser: str, k_choices: tuple,
                 blocks: tuple = ()):
        self.dim = dim
        self.milestones = milestones  # milestone indices actually used
        self.levels = levels  # per level: its vectors as sorted distinct integer rows
        self.chooser = chooser
        self.k_choices = k_choices  # ((level_index j, lambda), k) records for nonzero k
        # per milestone j, the mapped block M_j as integer rows: level j is the
        # collision-free Minkowski sum M_1 + ... + M_j (empty when read from file)
        self.blocks = blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectrumLevels):
            return NotImplemented
        key = lambda s: (s.dim, s.milestones, s.chooser, s.k_choices, len(s.levels))
        return key(self) == key(other) and all(map(np.array_equal, self.levels, other.levels))

    def final(self) -> np.ndarray:
        return self.levels[-1]


def _k_search_box(radius: int, dim: int):
    box = list(cartesian(range(-radius, radius + 1), repeat=dim))
    box.sort(key=lambda k: (sum(abs(c) for c in k), k))
    return box


def _mapped(rows: np.ndarray, m) -> np.ndarray:
    """The rows m·v of integer rows v, exact: int64 when every product and
    sum stays below 2^62, Python ints otherwise (narrowed back to int64 when
    the results fit)."""
    peak = max(abs(x) for row in m.rows for x in row)
    if peak >= _INT64_SAFE or rows.shape[1] * _peak(rows) * peak >= _INT64_SAFE:
        return _narrowest(rows.astype(object) @ np.array(m.rows, dtype=object).T)
    return rows.astype(np.int64) @ np.array(m.rows, dtype=np.int64).T


def _window_spectrum_digits(seq, p: int, q: int) -> np.ndarray:
    """Composed spectrum digits L_{p+1} + R_{p+1}^T L_{p+2} + ... over (p, q]
    as integer rows, in lexicographic order of the picks."""
    parts = [(seq.spectrum_digits(p + 1).rows, 1)]
    mt = None
    for i in range(p + 2, q + 1):
        prev_t = seq.matrix(i - 1).transpose()
        mt = prev_t if mt is None else mt.matmul(prev_t)
        parts.append((_mapped(seq.spectrum_digits(i).rows, mt), 1))
    return sum_rows(parts)


# A later k of the search box replaces the best so far only when its score is
# larger by more than this, so exact ties go to the first k in box order.
_K_TIE_TOL = 1e-15


def _first_best(scores: np.ndarray) -> np.ndarray:
    """Per column of scores (rows are the k of `_k_search_box`, in order), the
    row of the first k whose score no later k beats by more than _K_TIE_TOL."""
    best = np.zeros(scores.shape[1], dtype=np.intp)
    top = scores[0].copy()
    for i in range(1, len(scores)):
        wins = scores[i] > top + _K_TIE_TOL
        best[wins] = i
        top[wins] = scores[i][wins]
    return best


def first_lowest(values, count: int) -> list:
    """Indices of the `count` lowest values, lowest first: each pick is the
    first remaining index, in order, whose value lies within _K_TIE_TOL of
    the remaining minimum, so values that differ only by rounding are picked
    in their given order."""
    v = np.asarray(values, dtype=float)
    left = np.ones(len(v), dtype=bool)
    picks = []
    for _ in range(min(count, len(v))):
        i = int(np.flatnonzero(left & (v <= v[left].min() + _K_TIE_TOL))[0])
        picks.append(i)
        left[i] = False
    return picks


def _windowed_choices(seq, p: int, q: int, depth: int, lams: np.ndarray, box) -> np.ndarray:
    """For each integer row lambda of lams, the row k of the first box entry
    that maximizes |nu_hat_q(M^{-T} lambda + k)| over the depth-truncated
    tail after q, M = R_q ... R_{p+1}, up to ties (`_first_best`).  With
    (det, adj) = `invert(M)` the candidates are the rows adj^T lambda + det k
    over det, sign-normalised and reduced by their common gcd with |det| (the
    least common denominator), all scored in one batched call."""
    det, adj = invert(product_range(seq, p, q))
    ks = np.array(box, dtype=np.int64)
    nums = sum_rows([(_mapped(lams, adj.transpose()) * (1 if det > 0 else -1), 1), (ks, abs(det))])
    g = math.gcd(int(np.gcd.reduce(nums, axis=None)), det)
    points = PointRows(nums // g, abs(det) // g)
    scores = np.abs(tail_fourier_many(seq, q, depth, points)).reshape(len(lams), len(box))
    return ks[_first_best(scores.T)]


def build_spectrum(
    seq,
    milestones,
    k_chooser="zero",
    *,
    search_radius: int = 2,
    search_depth: int = 2,
    delta0=None,
    max_atoms: int = DEFAULT_SPECTRUM_CAP,
) -> SpectrumLevels:
    """Grow candidate spectra level by level.

    Each step Minkowski-adds the (p, q] window of composed spectrum digits,
    optionally shifted inside their residue classes by per-vector integer
    choices k, then maps the result through the transposed prefix product.
    The default chooser takes every k = 0; "windowed-search" scores k over a
    box by the truncated tail transform; a mapping {(lambda, j): k} replays
    fixed choices.  k = 0 is always forced at lambda = 0.

    When ``delta0`` is given, each requested milestone is advanced to the
    first index where every previously built vector scales strictly inside
    the radius-delta0/2 ball (exact rational comparison).

    Levels are carried as integer rows (int64 under a headroom test, Python
    ints past it): level j is the distinct sums of level j - 1 and the
    mapped block, which must number #level × #block (TripleInvalid
    otherwise), and `levels` holds those rows.  Only the table chooser's
    lookup and the `k_choices` records form tuples.
    """
    ms = [int(m) for m in milestones]
    if not ms or any(m < 1 for m in ms):
        raise ValidationError("milestones must be positive indices")
    if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
        raise ValidationError("milestones must be strictly increasing")
    if seq.length is not None and ms[-1] > seq.length:
        raise MilestoneGap(f"milestone {ms[-1]} exceeds sequence length {seq.length}")

    if k_chooser == "zero":
        mode, table = "zero", None
    elif k_chooser == "windowed-search":
        mode, table = "windowed", None
        if search_radius < 0 or search_depth < 1:
            raise ValidationError("windowed search needs radius >= 0, depth >= 1")
    elif isinstance(k_chooser, Mapping):
        mode, table = "table", dict(k_chooser)
    else:
        raise ValidationError(f"unknown k_chooser {k_chooser!r}")

    dim = seq.dim
    zero_vec = (0,) * dim
    ball = None
    if delta0 is not None:
        d0 = Fraction(delta0)
        if d0 <= 0:
            raise ValidationError("delta0 must be positive")
        # |M^{-T} lam|^2 < (delta0/2)^2 with M^{-T} lam = adj^T lam / det and
        # delta0 = a/b, on integers: 4 b^2 |adj^T lam|^2 < a^2 det^2
        ball = (4 * d0.denominator**2, d0.numerator**2)

    lam_prev = np.zeros((1, dim), dtype=np.int64)
    levels, blocks, used_milestones, k_records, p = [], [], [], [], 0
    for j, requested in enumerate(ms, start=1):
        q = max(requested, p + 1)
        if ball is not None:
            while True:
                if seq.length is not None and q > seq.length:
                    raise MilestoneGap(
                        f"no admissible milestone >= {requested} within length {seq.length}"
                    )
                det, adj = invert(seq.prefix_matrix(q))
                v = _mapped(lam_prev, adj.transpose()).astype(object)
                if ball[0] * int((v * v).sum(axis=1).max()) < ball[1] * det * det:
                    break
                q += 1
        elif seq.length is not None and q > seq.length:
            raise MilestoneGap(f"milestone {q} exceeds sequence length {seq.length}")

        for i in range(p + 1, q + 1):
            seq.triple(i)  # every level used must carry a validated triple
        block = _window_spectrum_digits(seq, p, q)
        if len(lam_prev) * len(block) > max_atoms:
            raise TruncationTooLarge(
                f"level {j} would hold {len(lam_prev) * len(block)} vectors "
                f"(cap {max_atoms})"
            )

        if mode == "windowed":
            ks = np.zeros(block.shape, dtype=np.int64)
            searched = (block != 0).any(axis=1)
            depth_left = search_depth
            if seq.length is not None:
                depth_left = min(search_depth, seq.length - q)
            if depth_left >= 1 and searched.any():
                ks[searched] = _windowed_choices(
                    seq, p, q, depth_left, block[searched], _k_search_box(search_radius, dim)
                )
        elif mode == "table":
            ks = []
            for lam in map(tuple, block.tolist()):
                k = tuple(table.get((lam, j), zero_vec)) if any(lam) else zero_vec
                if len(k) != dim:
                    raise ValidationError(f"k table entry for {lam} has wrong dimension")
                ks.append(k)
            ks = _int_rows(ks)
        if mode != "zero":
            moved = (ks != 0).any(axis=1)
            k_records.extend(
                ((j, tuple(lam)), tuple(k))
                for lam, k in zip(block[moved].tolist(), ks[moved].tolist())
            )
            if moved.any():
                shift = _mapped(ks, product_range(seq, p, q).transpose())
                block = _narrowest(block.astype(object) + shift)
        mapped = _mapped(block, seq.prefix_matrix(p).transpose())

        level = _narrowest(_distinct_rows(sum_rows([(lam_prev, 1), (mapped, 1)]))[0])
        if len(level) != len(lam_prev) * len(mapped):
            raise TripleInvalid(
                f"level {j} collided: {len(level)} vectors from "
                f"{len(lam_prev)}x{len(mapped)} products"
            )
        lam_prev = level
        levels.append(level)
        blocks.append(mapped)
        used_milestones.append(q)
        p = q

    return SpectrumLevels(dim, tuple(used_milestones), tuple(levels), mode, tuple(k_records), tuple(blocks))


def write_levels(sp: SpectrumLevels, stream) -> None:
    """One integer vector per line; level boundaries are comment lines.  A
    level goes out in blocks of rows, so its rows are never all Python
    lists at once."""
    stream.write(f"# spectrum dim={sp.dim} chooser={sp.chooser}\n")
    for j, (m, level) in enumerate(zip(sp.milestones, sp.levels), start=1):
        stream.write(f"# level {j}: milestone {m}, {len(level)} vectors\n")
        for lo in range(0, len(level), _LEVEL_BLOCK_ROWS):
            block = level[lo : lo + _LEVEL_BLOCK_ROWS].tolist()
            stream.write("".join([" ".join(map(str, v)) + "\n" for v in block]))


def read_levels(stream) -> SpectrumLevels:
    """The levels of a file `write_levels` wrote, as lexicographically sorted
    integer rows (int64 below 2^62, object past it).  A line that does not
    parse (a non-integer token, dim= below 1, a missing milestone number, a
    vector of the wrong length) or a vector its level already holds raises
    ValidationError naming the line, and so does a level header whose level
    holds no vectors, or not the `N vectors` it states."""
    dim, chooser, milestones = None, "unknown", []
    levels = []  # per level: its vectors, their line numbers, header line, stated count
    for n, line in enumerate(stream, start=1):
        line = line.strip()
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("spectrum"):
                    for tok in body.split():
                        if tok.startswith("dim="):
                            dim = int(tok[4:])
                            if dim < 1:
                                raise ValueError
                        elif tok.startswith("chooser="):
                            chooser = tok[8:]
                elif body.startswith("level"):
                    toks = body.replace(",", " ").split()
                    if "milestone" in toks:
                        milestones.append(int(toks[toks.index("milestone") + 1]))
                    count = int(toks[toks.index("vectors") - 1]) if "vectors" in toks else None
                    levels.append(([], [], n, count))
            elif line:
                vec = [int(t) for t in line.split()]
                dim = dim or len(vec)
                if len(vec) != dim:
                    raise ValueError
                if not levels:
                    levels.append(([], [], None, None))
                levels[-1][0].append(vec)
                levels[-1][1].append(n)
        except (ValueError, IndexError):
            raise ValidationError(f"spectrum file line {n}: cannot read {line!r} (dim {dim})") from None
    if not levels or dim is None:
        raise ValidationError("no spectrum vectors found")
    rows = []
    for vecs, lines, header, count in levels:
        if not vecs:
            raise ValidationError(f"spectrum file line {header}: level holds no vectors")
        if count not in (None, len(vecs)):
            raise ValidationError(f"spectrum file line {header}: level holds {len(vecs)} vectors, not {count}")
        level, where = _distinct_rows(_narrowest(vecs).reshape(-1, dim))
        if len(level) != len(vecs):
            i = int(np.setdiff1d(np.arange(len(vecs)), np.unique(where, return_index=True)[1])[0])
            raise ValidationError(f"spectrum file line {lines[i]}: vector {vecs[i]} repeats in its level")
        rows.append(level)
    if len(milestones) != len(levels):
        milestones = list(range(1, len(levels) + 1))
    return SpectrumLevels(dim, tuple(milestones), tuple(rows), chooser, ())


# ===== the Q criterion =====


def q_eval_many(factors, lambda_set, xis) -> np.ndarray:
    """Q(xi) = Σ_λ |mu_hat(xi + λ)|² at every frequency of xis (rational
    vectors or `PointRows`) for the integer rows λ of lambda_set, mu_hat the
    product over the per-level factors (rows, den, weights) of a truncation,
    as `measures.tail_factors` gives them: on the sum set, from one table of
    the frequencies and one of the candidates per group of factors (merged
    to at most 8 atoms), summed over λ one run of frequencies at a time.  The
    result (8 bytes per frequency) and the kernel's run are checked together
    against DENSE_BYTE_BUDGET before either is allocated."""
    pts = _points(xis, np.shape(factors[0][0])[1] if factors else None)
    if not len(lambda_set):
        check_budget(8 * len(pts), f"Q at {len(pts)} frequencies")
        return np.zeros(len(pts))
    if not len(pts):
        return np.zeros(0)
    left, lams = _int_rows(pts.rows), _int_rows(lambda_set)
    axes = list(range(left.shape[1]))
    if lams.ndim != 2 or lams.shape[1] != len(axes):
        raise DimensionMismatch(f"frequencies and candidates must have dimension {len(axes)}")
    right = [(axes, sum_rows([(lams, pts.den)]))]
    runs = sum_set_runs((axes, left), right, pts.den, merged_factors(factors), held=8 * len(pts))
    q = np.empty(len(pts))
    for s, vals in runs:
        # sum over lambda of |mu_hat|^2: squares of the real and imaginary parts
        parts = vals.view(np.float64)
        np.einsum("ij,ij->i", parts, parts, out=q[s : s + len(vals)])
    return q


class ExactnessResult(NamedTuple):
    ok: bool
    deviation: float
    size: int


def spectrum_exactness(
    m: DiscreteMeasure, lambda_set, tol: float = DEFAULT_UNITARITY_TOL
) -> ExactnessResult:
    """Finite criterion: for an n-atom equal-weight measure and n candidate
    frequencies Λ, spectrality means the normalized exponential matrix is
    unitary.  Returns the max Gram deviation from the identity.

    lambda_set is Λ, or the summands M_1, ..., M_J (2-D integer arrays, as
    `SpectrumLevels.blocks` holds them) whose Minkowski sum Λ is.  The Gram
    is G[i, k] = mu_hat(λ_i - λ_k) over the per-level factors `mu_truncate`
    recorded.  Equal weights are read from the measure's integer
    multiplicities; no Fraction is formed.  `_phases.difference_deviation`
    evaluates the Gram on the sum set Λ - Λ = Σ_j (M_j - M_j); colliding
    summands are checked as their sum set Λ."""
    n = len(m)
    if (m.counts != m.counts[0]).any():
        raise NonUniformWeights(
            "exactness criterion supports equal-weight measures only"
        )
    parts = [lambda_set] if isinstance(lambda_set, np.ndarray) else list(lambda_set)
    if not parts or any(np.ndim(p) != 2 for p in parts):
        parts = [parts]  # the vectors themselves: one summand
    blocks = [_int_rows(p) if len(p) else np.zeros((0, m.dim), np.int64) for p in parts]
    if any(b.shape[1:] != (m.dim,) for b in blocks):
        raise DimensionMismatch(f"candidate vectors must have dimension {m.dim}")
    blocks = [_distinct_rows(b)[0] for b in blocks]
    lams = _distinct_rows(sum_rows([(b, 1) for b in blocks]))[0]
    if len(lams) != n:
        raise SizeMismatch(f"{len(lams)} candidate vectors vs {n} atoms")
    if n != math.prod(map(len, blocks)):
        blocks = [lams]  # colliding summands: the set itself is the one summand
    dev = difference_deviation(blocks, 1, m.phase_factors())
    return ExactnessResult(ok=dev <= tol, deviation=dev, size=n)


def _level_bounds(seq, milestones) -> list:
    """Per milestone q_j, a bound on max |G - I| for the level Λ_j that
    `build_spectrum` grew to q_j against μ_{q_j}: the running maximum over
    the levels i ≤ q_j of the dual triple's deviation
    `hadamard_check(R_iᵀ, L_i, B_i).max_deviation`, which is
    max_{ℓ ≠ ℓ'} |m_{B_i}(R_i⁻ᵀ(ℓ - ℓ'))|, the L-side Gram of triple i.

    Let λ ≠ λ' first differ at level i.  The factors of the levels before i
    meet integer phases; factor i meets R_i⁻ᵀ(ℓ_i - ℓ'_i) plus an integer
    vector, which absorbs the later levels and every k-shift of a window
    ending at or after i; every other factor has modulus at most 1.  Since
    #Λ_j = Π #L_i = Π #B_i ≥ #supp μ_{q_j}, a bound b with #Λ_j · b < 1
    also makes μ_{q_j}'s atoms distinct and equally weighted.  Neither the
    level nor the measure is formed."""
    bounds, bound, done = [], 0.0, 0
    for q in milestones:
        for i in range(done + 1, q + 1):
            dual = hadamard_check(seq.matrix(i).transpose(), seq.spectrum_digits(i), seq.digits(i))
            bound = max(bound, dual.max_deviation)
        bounds.append(bound)
        done = q
    return bounds


# ===== equi-positivity scan =====


class EquiPositivityReport(NamedTuple):
    status: str  # "witnessed" | "failed"
    epsilon0: float  # defensible lower bound (includes truncation floor)
    scanned_epsilon0: float  # raw grid minimum over the truncated tails
    delta0: float  # radius of the scanned y-ball
    tail_starts: tuple
    depth: int
    k_window: int
    scanned_xs: str
    x_pitch: Fraction  # the x grid is x_pitch * Z^d in [-1/2, 1/2)^d, in lexicographic order
    k_box: tuple  # the k-shifts searched, in `_k_search_box` order
    witness_values: np.ndarray  # [start, x] indices -> min |nu_hat| over the y-ball at the best k
    witness_k: np.ndarray  # [start, x] indices -> the index of that best k in k_box
    failed_at: tuple | None
    truncation_floor: float | None
    truncation_note: str

    def witness(self, i: int) -> tuple:
        """((start, x), (k, value)) at flat index i of the witness arrays."""
        row, j = divmod(i, self.witness_values.shape[1])
        x = _pitch_point(self.x_pitch, len(self.k_box[0]), j)
        return (self.tail_starts[row], x), (self.k_box[self.witness_k[row, j]], float(self.witness_values[row, j]))

    @property
    def per_x_witness(self) -> dict:
        """(start, x) -> (k, min |nu_hat| over the y-ball), built from the
        witness arrays on each access."""
        xs = _pitch_grid(self.x_pitch, len(self.k_box[0]))
        return {
            (start, x): (self.k_box[k], val)
            for start, ks, vals in zip(self.tail_starts, self.witness_k.tolist(), self.witness_values.tolist())
            for x, k, val in zip(xs, ks, vals)
        }


def _pitch_axis(pitch: Fraction) -> range:
    """The integers n with n * pitch in [-1/2, 1/2)."""
    half = Fraction(1, 2) / pitch
    return range(-math.floor(half), math.ceil(half))


def _pitch_grid(pitch: Fraction, dim: int):
    """pitch * Z^d intersected with [-1/2, 1/2)^d, exact."""
    axis = [n * pitch for n in _pitch_axis(pitch)]
    return [tuple(v) for v in cartesian(axis, repeat=dim)]


def _pitch_point(pitch: Fraction, dim: int, j: int) -> tuple:
    """The j-th point of `_pitch_grid(pitch, dim)`, exact."""
    axis = _pitch_axis(pitch)
    return tuple(axis[j // len(axis) ** (dim - 1 - c) % len(axis)] * pitch for c in range(dim))


def _ball_grid(pitch: Fraction, radius: Fraction, dim: int):
    """pitch * Z^d intersected with the open ball |y|_2 < radius, exact."""
    r2 = radius * radius
    reach = math.floor(radius / pitch)
    axis = [n * pitch for n in range(-reach, reach + 1)]
    return [
        tuple(v)
        for v in cartesian(axis, repeat=dim)
        if sum(c * c for c in v) < r2
    ]


def _ball_count(t: int, dim: int, limit: int) -> int:
    """#{n in Z^dim : |n|^2 <= t}, counted only until it passes `limit`."""
    r = math.isqrt(t)
    if dim == 1:
        return 2 * r + 1
    total = 0
    for n in range(-r, r + 1):
        total += _ball_count(t - n * n, dim - 1, limit - total)
        if total > limit:
            break
    return total


def _ball_offsets(t: int, dim: int) -> np.ndarray:
    """The n in Z^dim with |n|^2 <= t as rows of an int64 array."""
    r = math.isqrt(t)
    box = np.indices((2 * r + 1,) * dim).reshape(dim, -1).T - r
    return box[(box * box).sum(axis=1) <= t]


def _axis_lattice(x_nums, k_nums, y_nums):
    """Sorted distinct sums x + k + y on one axis, and where each (x, k, y)
    sum sits in them, shape (#x, #k, #y)."""
    sums = x_nums[:, None, None] + k_nums[None, :, None] + y_nums[None, None, :]
    lattice, where = np.unique(sums, return_inverse=True)
    return lattice, where.reshape(sums.shape)


def _product_axes(factors):
    """Per factor, the sorted distinct values of its atoms on each axis, as
    one-column integer arrays, when every factor is uniform on distinct atoms
    that make up exactly the product of those values (`_axis_sets`); None
    otherwise."""
    split = []
    for rows, _, weights in factors:
        weights = np.asarray(weights)
        axes = _axis_sets(rows) if np.all(weights == weights[:1]) else None
        if axes is None:
            return None
        split.append(axes)
    return split


def _lattice_moduli(factors, lattices, den: int, axes=None) -> np.ndarray:
    """|prod_j m_j(s)| at every point s of lattices[0] x ... x lattices[d-1]
    (integer numerators over den), shaped like the lattice.

    With `axes`, the `_product_axes` of the factors, each m_j is a product
    over the axes of uniform masks m_jc(s_c) on its values there, so the
    table is the outer product of the per-axis products of |m_jc|, each from
    one phase table per factor over the axis' lattice.  Otherwise the table
    is the sum set of the first axis and the product of the others,
    evaluated run by run by `sum_set_runs` from per-axis tables over the
    distinct atom coordinates on that axis."""
    if axes is not None:
        moduli = np.ones(())
        for c, lat in enumerate(lattices):
            block = ([c], lat.reshape(-1, 1))
            per_axis = np.ones(len(lat))
            for (_, rden, _), values in zip(factors, axes):
                sums = _block_table(block, den, values[c], rden).sum(axis=0)
                per_axis *= np.abs(sums) / len(values[c])
            moduli = np.multiply.outer(moduli, per_axis)
        return moduli
    blocks = [([c], lat.reshape(-1, 1)) for c, lat in enumerate(lattices)]
    shape = [len(lat) for lat in lattices]
    runs = sum_set_runs(blocks[0], blocks[1:], den, factors, held=8 * math.prod(shape))
    moduli = np.empty(shape)
    rows = moduli.reshape(len(lattices[0]), -1)
    for s, acc in runs:
        np.abs(acc, out=rows[s : s + len(acc)])
    return moduli


def _x_blocks(n: int, dim: int, axis: int, count: int):
    """Lexicographic blocks of the x grid: one index on each axis before
    `axis`, up to `count` consecutive ones on it, all n after it.  Yields
    each block's per-axis index lists and the position of its first x."""
    for head in cartesian(range(n), repeat=axis):
        for s in range(0, n, count):
            picks = [[i] for i in head] + [list(range(s, min(s + count, n)))]
            picks += [list(range(n))] * (dim - 1 - axis)
            first = 0
            for i in (*head, s):
                first = first * n + i
            yield picks, first * n ** (dim - 1 - axis)


def _ball_minima(moduli, wheres, k_at, ball_t: int) -> np.ndarray:
    """min over the y-ball |n|^2 <= ball_t of the lattice moduli at x + k + y,
    for every k (rows) and every x of the block (columns, in lexicographic
    order).

    wheres[c] maps (x, k, y) on axis c to its lattice index, y counted from
    -isqrt(ball_t); k_at holds the k-box's per-axis indices.  The ball is a
    union of segments along the last axis, one per point of the ball of the
    other coordinates.  One running minimum along the last axis grows
    through every segment radius, and each segment is folded into the
    minima of its k when the running radius reaches its own; a k then costs
    one read per segment and x.  A minimum is exact in any order."""
    dim = moduli.ndim
    reach = math.isqrt(ball_t)
    heads = _ball_offsets(ball_t, dim - 1).tolist() if dim > 1 else [[]]
    by_radius = {}
    for head in heads:
        by_radius.setdefault(math.isqrt(ball_t - sum(n * n for n in head)), []).append(head)
    last = wheres[-1]
    out = np.full((len(k_at), math.prod(w.shape[0] for w in wheres)), np.inf)
    ks = k_at.tolist()
    for kl in sorted({k[-1] for k in ks}):
        at = [ki for ki, k in enumerate(ks) if k[-1] == kl]
        # min over |y| <= r on the last axis, for each x there
        run = np.take(moduli, last[:, kl, reach], axis=-1)
        for r in range(reach + 1):
            if r:
                np.minimum(run, np.take(moduli, last[:, kl, reach - r], axis=-1), out=run)
                np.minimum(run, np.take(moduli, last[:, kl, reach + r], axis=-1), out=run)
            for head in by_radius.get(r, ()):
                for ki in at:
                    part = run
                    for c, n in enumerate(head):
                        part = np.take(part, wheres[c][:, ks[ki][c], reach + n], axis=c)
                    np.minimum(out[ki], part.ravel(), out=out[ki])
    return out


def truncation_tail_floor(c: float, depth: int, dim: int, xi_max: float):
    """Lower bound for the product of the mask moduli a depth-truncated scan
    ignores.  Valid when every ignored digit set sits inside its half-open
    box after scaling by its own matrix: the j-th tail factor then averages
    unit exponentials with phases within +-theta_j where
    theta_j = pi sqrt(d) xi_max c^{j-1}, so it is at least cos(theta_j)
    while theta_j < pi/2.  At most `_TAIL_FLOOR_TERMS` factors are taken one
    by one; the rest, from phase theta on, cost at most theta^2 / (1 - c^2)
    in the logarithm, since -ln cos x <= x^2 on [0, 1].  Returns
    (floor, note); floor is None when the bound does not apply."""
    if not 0 < c < 1:
        return None, "no contraction ratio declared; truncation error unbounded"
    acc = 0.0
    for j in range(depth + 1, depth + 1 + _TAIL_FLOOR_TERMS):
        theta = math.pi * math.sqrt(dim) * xi_max * c ** (j - 1)
        if theta >= math.pi / 2:
            return None, (
                f"phase bound {theta:.3f} at tail factor {j} is not below pi/2; "
                "no truncation floor at this depth"
            )
        acc += math.log(math.cos(theta))
        if theta < 1e-18:
            break
    theta *= c  # the phase bound of the first factor not taken
    if theta > 1:
        return None, (
            f"phase bound {theta:.3f} after {_TAIL_FLOOR_TERMS} tail factors "
            "is above 1; no truncation floor at this depth"
        )
    floor = math.exp(acc - theta * theta / (1 - c * c))
    note = (
        f"ignored factors beyond depth {depth} bounded below by {floor:.15g} "
        f"(assumes in-box digits and contraction ratio {c:g})"
    )
    return floor, note


def _probe_in_box(seq, starts, depth: int, probe: int = 4):
    """First ignored level whose digits leave the half-open box, or None."""
    from .conditions import rbc_split  # local import: avoid a module cycle

    seen = set()
    for start in starts:
        top = start + depth + probe
        if seq.length is not None:
            top = min(top, seq.length)
        for i in range(start + depth + 1, top + 1):
            if i in seen:
                continue
            seen.add(i)
            if len(rbc_split(seq.matrix(i), seq.digits(i)).b2):
                return i
    return None


def equi_positivity_scan(
    seq,
    tail_starts,
    depth: int,
    x_grid,
    y_radius,
    k_window: int = 0,
    *,
    y_pitch=None,
    fail_tol: float = DEFAULT_FAIL_TOL,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> EquiPositivityReport:
    """Scan |nu_hat(x + y + k)| for the depth-truncated tails over a rational
    grid, maximizing over a small k-box and minimizing over the y-ball.

    ``x_grid`` is the pitch of the x lattice on [-1/2, 1/2)^d.  k = 0 is
    forced at x = 0.  The report carries the worst witnessed value and, when
    a contraction ratio is declared, a floor for the ignored deeper factors.

    Every sum x + k + y lies on the product of the per-axis sets of distinct
    sums x_c + k_c + y_c, so each level is evaluated once on that product
    lattice (per axis when the tail's atoms are axis products, see
    `_lattice_moduli`) and the scan reads its minima from the table.  The x
    grid is walked in lexicographic blocks whose lattice fits the dense byte
    budget.  The witnesses are held as arrays over (start, x), each start
    scanned once.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if k_window < 0:
        raise ValidationError("k_window must be >= 0")
    starts = list(dict.fromkeys(int(s) for s in tail_starts))  # each start scanned once
    if not starts or any(s < 0 for s in starts):
        raise ValidationError("tail starts must be nonnegative")
    dim = seq.dim
    rad = Fraction(y_radius)
    if rad <= 0:
        raise ValidationError("y_radius must be positive")
    if not isinstance(x_grid, (int, float, Fraction, str)):
        raise ValidationError("x grid must be a pitch")
    pitch = Fraction(x_grid)
    if pitch <= 0:
        raise ValidationError("x grid pitch must be positive")
    yp = Fraction(y_pitch) if y_pitch is not None else rad / 8

    # grid sizes from counts, before any grid is built
    x_axis = _pitch_axis(pitch)
    nx = len(x_axis) ** dim
    ball_t = math.ceil((rad / yp) ** 2) - 1  # y = n * yp with |n|^2 <= ball_t
    ny = _ball_count(ball_t, dim, grid_cap // nx)
    if ny > grid_cap // nx:
        raise GridTooLarge(
            f"{nx} x-points times at least {ny} y-points exceed cap {grid_cap}"
        )
    for start in starts:
        if seq.length is not None and start + depth > seq.length:
            raise MilestoneGap(
                f"tail start {start} + depth {depth} exceeds sequence length {seq.length}"
            )

    # per-axis numerators over one denominator
    den = math.lcm(pitch.denominator, yp.denominator)
    x_step = pitch.numerator * (den // pitch.denominator)
    y_step = yp.numerator * (den // yp.denominator)
    reach = math.isqrt(ball_t)
    n_axis, nk_axis, ny_axis = len(x_axis), 2 * k_window + 1, 2 * reach + 1
    nk = nk_axis**dim
    widest_sum = max(-x_axis[0], x_axis[-1]) * x_step + k_window * den + reach * y_step
    dtype = np.int64 if widest_sum < _INT64_SAFE else object
    x_nums = np.array([n * x_step for n in x_axis], dtype=dtype)
    k_nums = np.array([k * den for k in range(-k_window, k_window + 1)], dtype=dtype)
    y_nums = np.array([n * y_step for n in range(-reach, reach + 1)], dtype=dtype)
    gap = math.gcd(x_step, den, y_step)

    def lattice_size(n: int) -> int:
        """Bound on the distinct sums of one axis with n x values."""
        span = ((n - 1) * x_step + (nk_axis - 1) * den + (ny_axis - 1) * y_step) // gap + 1
        return min(span, n * nk_axis * ny_axis)

    factor_sets = [tail_factors(seq, start, depth) for start in starts]
    widest = max(len(rows) for factors in factor_sets for rows, _, _ in factors)

    def block_bytes(axis: int, count: int) -> int:
        """Peak bytes of an x block with one value on each axis before
        `axis`, `count` values on it and every value after it: the lattice's
        product, level and moduli, one level's per-axis tables, the
        Khatri-Rao rows being joined and their sums, the per-axis sums, the
        running minima along the last axis (one per segment radius), the
        minima per k, and the box the ball's segments are cut from.  The
        kernel holds the product and level of one run only, and
        `_ball_minima` one running minimum, so those terms are upper
        bounds; they stay so that blocks and refusals do not move."""
        xs_per_axis = [1] * axis + [count] + [n_axis] * (dim - 1 - axis)
        sizes = [lattice_size(n) for n in xs_per_axis]
        points = math.prod(xs_per_axis)
        return (
            math.prod(sizes) * (2 * COMPLEX_BYTES + 8)
            + widest * sum(sizes) * PHASE_ENTRY_BYTES
            + 3 * widest * math.prod(sizes[1:]) * COMPLEX_BYTES
            + sum(xs_per_axis) * nk_axis * ny_axis * 32
            + (reach + 2) * math.prod(sizes[:-1]) * xs_per_axis[-1] * 8
            + points * (nk + 3) * 8
            + ny_axis ** (dim - 1) * dim * 24
        )

    axis = next(a for a in range(dim) if a == dim - 1 or within_budget(block_bytes(a, 1)))
    count = budget_largest(
        lambda c: block_bytes(axis, c),
        n_axis,
        f"a tail scan over {nk} k-shifts x {ny} y-points",
    )
    ks = _k_search_box(k_window, dim)
    k_at = np.array(ks, dtype=np.int64) + k_window
    zero = sum(x_axis.index(0) * n_axis**c for c in range(dim))  # the flat index of x = 0
    xs_note = f"pitch {pitch} on [-1/2,1/2)^{dim}: {nx} points"

    values = np.empty((len(starts), nx))
    best_k = np.empty((len(starts), nx), dtype=np.intp)
    for row, factors in enumerate(factor_sets):
        split = _product_axes(factors)
        for picks, first in _x_blocks(n_axis, dim, axis, count):
            axes = [_axis_lattice(x_nums[p], k_nums, y_nums) for p in picks]
            moduli = _lattice_moduli(factors, [lat for lat, _ in axes], den, split)
            per_k_min = _ball_minima(moduli, [where for _, where in axes], k_at, ball_t)
            best = _first_best(per_k_min)
            if first <= zero < first + len(best):
                best[zero - first] = 0  # k = 0 is forced at x = 0; _k_search_box puts it first
            best_k[row, first : first + len(best)] = best
            values[row, first : first + len(best)] = per_k_min[best, np.arange(len(best))]
            del axes, moduli, per_k_min, best  # before the next block is built
    failed = np.flatnonzero(values <= fail_tol)
    failed_at = None
    if len(failed):
        i, j = divmod(int(failed[0]), nx)
        failed_at = (starts[i], _pitch_point(pitch, dim, j))
    scanned_min = float(values.min())

    floor, note = (None, "no contraction ratio declared")
    c = seq.declared_contractivity
    if c is not None:
        xi_max = math.sqrt(dim) * (0.5 + k_window) + float(rad)
        floor, note = truncation_tail_floor(float(c), depth, dim, xi_max)
        if floor is not None:
            bad = _probe_in_box(seq, starts, depth)
            if bad is not None:
                floor, note = None, (
                    f"level {bad} digit set leaves its half-open box; "
                    "truncation floor withheld"
                )
    status = "failed" if failed_at is not None else "witnessed"
    eps = 0.0 if failed_at is not None else scanned_min
    if floor is not None:
        eps *= floor
    return EquiPositivityReport(
        status=status,
        epsilon0=eps,
        scanned_epsilon0=0.0 if failed_at is not None else scanned_min,
        delta0=float(rad),
        tail_starts=tuple(starts),
        depth=depth,
        k_window=k_window,
        scanned_xs=xs_note,
        x_pitch=pitch,
        k_box=tuple(ks),
        witness_values=values,
        witness_k=best_k,
        failed_at=failed_at,
        truncation_floor=floor,
        truncation_note=note,
    )


# ===== quantitative helpers =====


def perturbation_bound(phi1_to_phi2_tv: float, epsilon0: float) -> float:
    """Transfer an equi-positivity constant across a total-variation distance."""
    if phi1_to_phi2_tv < 0:
        raise ValidationError("total variation cannot be negative")
    if phi1_to_phi2_tv >= epsilon0:
        raise BoundViolation(
            f"tv distance {phi1_to_phi2_tv} is not below epsilon0 {epsilon0}"
        )
    return epsilon0 - phi1_to_phi2_tv
