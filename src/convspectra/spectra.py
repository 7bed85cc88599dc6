"""Candidate spectra: level-by-level construction, the Q-function criterion,
exact finite-level verification, and the equi-positivity grid scan with its
quantitative floor.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as cartesian

import numpy as np

from ._phases import (
    _INT64_SAFE,
    COMPLEX_BYTES,
    PHASE_ENTRY_BYTES,
    _distinct_rows,
    _int_rows,
    budget_largest,
    common_denominator,
    difference_deviation,
    merged_factors,
    sum_rows,
    sum_set_transform,
    within_budget,
)
from .errors import (
    BoundViolation,
    DimensionMismatch,
    EpsilonOutOfRange,
    GridTooLarge,
    MilestoneGap,
    NonUniformWeights,
    SizeMismatch,
    ThetaOutOfRange,
    TripleInvalid,
    TruncationTooLarge,
    ValidationError,
)
from .exactmat import invert, product_range
from .measures import DiscreteMeasure, tail_factors, tail_fourier_many

DEFAULT_EXACTNESS_TOL = 1e-9
DEFAULT_SPECTRUM_CAP = 1_000_000
DEFAULT_FAIL_TOL = 1e-12
DEFAULT_GRID_CAP = 4_000_000


# ===== spectrum construction =====


@dataclass(frozen=True)
class SpectrumLevels:
    dim: int
    milestones: tuple  # milestone indices actually used
    levels: tuple  # per level: sorted tuple of integer vectors
    chooser: str
    k_choices: tuple  # ((level_index j, lambda), k) records for nonzero k
    # per milestone j, the mapped block M_j as integer rows: level j is the
    # collision-free Minkowski sum M_1 + ... + M_j (empty when read from file)
    blocks: tuple = field(default=(), compare=False, repr=False)

    def final(self):
        return self.levels[-1]


def _k_search_box(radius: int, dim: int):
    box = list(cartesian(range(-radius, radius + 1), repeat=dim))
    box.sort(key=lambda k: (sum(abs(c) for c in k), k))
    return box


def _window_spectrum_digits(seq, p: int, q: int):
    """Composed spectrum digits L_{p+1} + R_{p+1}^T L_{p+2} + ... over (p, q]."""
    vectors = list(seq.spectrum_digits(p + 1).vectors)
    mt = None
    for i in range(p + 2, q + 1):
        prev_t = seq.matrix(i - 1).transpose()
        mt = prev_t if mt is None else mt.matmul(prev_t)
        step = [mt.matvec(l) for l in seq.spectrum_digits(i).vectors]
        vectors = [
            tuple(a + b for a, b in zip(v, w)) for v in vectors for w in step
        ]
    return vectors


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


def _windowed_choices(seq, p: int, q: int, depth: int, lams, box) -> dict:
    """For each lambda, the first k of the box order that maximizes
    |nu_hat_q(M^{-T} lambda + k)| over the depth-truncated tail after q, with
    M = R_q ... R_{p+1}, up to ties (`_first_best`).  All candidates of the
    window are scored in one batched call."""
    det, adj = invert(product_range(seq, p, q))
    adj_t = adj.transpose()
    points = []
    for lam in lams:
        base = [Fraction(x, det) for x in adj_t.matvec(lam)]
        points.extend(tuple(b + c for b, c in zip(base, cand)) for cand in box)
    scores = np.abs(tail_fourier_many(seq, q, depth, points)).reshape(len(lams), len(box))
    best = _first_best(scores.T)
    return {lam: box[i] for lam, i in zip(lams, best.tolist())}


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

    # every level used must carry a validated triple (triple() raises on failure)
    def ensure_levels_valid(p, q):
        for i in range(p + 1, q + 1):
            seq.triple(i)

    lam_prev = [zero_vec]
    levels, blocks = [], []
    used_milestones = []
    k_records = []
    p = 0
    for j, requested in enumerate(ms, start=1):
        q = max(requested, p + 1)
        if ball is not None:
            while True:
                if seq.length is not None and q > seq.length:
                    raise MilestoneGap(
                        f"no admissible milestone >= {requested} within length {seq.length}"
                    )
                det, adj = invert(seq.prefix_matrix(q))
                adj_t = adj.transpose()
                limit = ball[1] * det * det
                if all(ball[0] * sum(c * c for c in adj_t.matvec(lam)) < limit for lam in lam_prev):
                    break
                q += 1
        elif seq.length is not None and q > seq.length:
            raise MilestoneGap(f"milestone {q} exceeds sequence length {seq.length}")

        ensure_levels_valid(p, q)
        block = _window_spectrum_digits(seq, p, q)
        if len(lam_prev) * len(block) > max_atoms:
            raise TruncationTooLarge(
                f"level {j} would hold {len(lam_prev) * len(block)} vectors "
                f"(cap {max_atoms})"
            )
        rt_window = product_range(seq, p, q).transpose()
        rt_prefix = seq.prefix_matrix(p).transpose()

        chosen = {}
        if mode == "windowed":
            depth_left = search_depth
            if seq.length is not None:
                depth_left = min(search_depth, seq.length - q)
            searched = [lam for lam in block if lam != zero_vec]
            if depth_left >= 1 and searched:
                chosen = _windowed_choices(
                    seq, p, q, depth_left, searched, _k_search_box(search_radius, dim)
                )

        mapped = []
        for lam in block:
            if lam == zero_vec or mode == "zero":
                k = zero_vec
            elif mode == "table":
                k = tuple(table.get((lam, j), zero_vec))
                if len(k) != dim:
                    raise ValidationError(f"k table entry for {lam} has wrong dimension")
            else:  # windowed
                k = chosen.get(lam, zero_vec)
            if k != zero_vec:
                k_records.append(((j, lam), k))
                shift = rt_window.matvec(k)
                lam = tuple(a + b for a, b in zip(lam, shift))
            mapped.append(rt_prefix.matvec(lam))

        new_level = {
            tuple(a + b for a, b in zip(prev, v)) for prev in lam_prev for v in mapped
        }
        if len(new_level) != len(lam_prev) * len(block):
            raise TripleInvalid(
                f"level {j} collided: {len(new_level)} vectors from "
                f"{len(lam_prev)}x{len(block)} products"
            )
        lam_prev = sorted(new_level)
        levels.append(tuple(lam_prev))
        blocks.append(_int_rows(mapped))
        used_milestones.append(q)
        p = q

    return SpectrumLevels(
        dim=dim,
        milestones=tuple(used_milestones),
        levels=tuple(levels),
        chooser=mode,
        k_choices=tuple(k_records),
        blocks=tuple(blocks),
    )


def write_levels(sp: SpectrumLevels, stream) -> None:
    """One integer vector per line; level boundaries are comment lines."""
    stream.write(f"# spectrum dim={sp.dim} chooser={sp.chooser}\n")
    for j, (m, level) in enumerate(zip(sp.milestones, sp.levels), start=1):
        stream.write(f"# level {j}: milestone {m}, {len(level)} vectors\n")
        for v in level:
            stream.write(" ".join(str(c) for c in v) + "\n")


def read_levels(stream) -> SpectrumLevels:
    dim = None
    chooser = "unknown"
    milestones = []
    levels = []
    current = None
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("spectrum"):
                for tok in body.split():
                    if tok.startswith("dim="):
                        dim = int(tok[4:])
                    elif tok.startswith("chooser="):
                        chooser = tok[8:]
            elif body.startswith("level"):
                if current is not None:
                    levels.append(tuple(current))
                current = []
                toks = body.replace(",", " ").split()
                if "milestone" in toks:
                    milestones.append(int(toks[toks.index("milestone") + 1]))
            continue
        if current is None:
            current = []
        vec = tuple(int(t) for t in line.split())
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValidationError(f"vector {vec} does not match dim {dim}")
        current.append(vec)
    if current is not None:
        levels.append(tuple(current))
    if not levels:
        raise ValidationError("no spectrum vectors found")
    if len(milestones) != len(levels):
        milestones = list(range(1, len(levels) + 1))
    return SpectrumLevels(
        dim=dim,
        milestones=tuple(milestones),
        levels=tuple(tuple(sorted(l)) for l in levels),
        chooser=chooser,
        k_choices=(),
    )


# ===== the Q criterion =====


def q_eval_many(m: DiscreteMeasure, lambda_set, xis) -> np.ndarray:
    """Q at every frequency of xis: mu_hat on the sum set xis + lambda_set,
    from one table of the frequencies and one of the candidates per group of
    convolution factors (merged into groups of at most 8 atoms)."""
    lams = list(lambda_set)
    xs = [tuple(Fraction(c) for c in xi) for xi in xis]
    if not lams:
        return np.zeros(len(xs))
    if any(len(v) != m.dim for v in xs + lams):
        raise DimensionMismatch(f"frequencies and candidates must have dimension {m.dim}")
    if not xs:
        return np.zeros(0)
    den, rows = common_denominator(xs + lams)
    axes = list(range(m.dim))
    vals = sum_set_transform(
        (axes, _int_rows(rows[: len(xs)])),
        [(axes, _int_rows(rows[len(xs) :]))],
        den,
        merged_factors(m.phase_factors()),
    )
    # sum over lambda of |mu_hat|^2: squares of the real and imaginary parts
    parts = vals.view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


@dataclass(frozen=True)
class ExactnessResult:
    ok: bool
    deviation: float
    size: int


def spectrum_exactness(
    m: DiscreteMeasure, lambda_set, tol: float = DEFAULT_EXACTNESS_TOL
) -> ExactnessResult:
    """Finite criterion: for an n-atom equal-weight measure and n candidate
    frequencies Λ, spectrality means the normalized exponential matrix is
    unitary.  Returns the max Gram deviation from the identity.

    lambda_set is Λ, or the summands M_1, ..., M_J (2-D integer arrays, as
    `SpectrumLevels.blocks` holds them) whose Minkowski sum Λ is.  The Gram
    is G[i, k] = mu_hat(λ_i - λ_k) over the per-level factors `mu_truncate`
    recorded, and `_phases.difference_deviation` evaluates it on the sum set
    Λ - Λ = Σ_j (M_j - M_j)."""
    n = len(m)
    if any(w != Fraction(1, n) for w in m.weights):
        raise NonUniformWeights(
            "exactness criterion supports equal-weight measures only"
        )
    parts = list(lambda_set)
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


# ===== equi-positivity scan =====


@dataclass(frozen=True)
class EquiPositivityReport:
    status: str  # "witnessed" | "failed"
    epsilon0: float  # defensible lower bound (includes truncation floor)
    scanned_epsilon0: float  # raw grid minimum over the truncated tails
    delta0: float  # radius of the scanned y-ball
    tail_starts: tuple
    depth: int
    k_window: int
    scanned_xs: str
    per_x_witness: dict  # (start, x) -> (k, min |nu_hat| over the y-ball)
    failed_at: tuple | None
    truncation_floor: float | None
    truncation_note: str


def _pitch_axis(pitch: Fraction) -> range:
    """The integers n with n * pitch in [-1/2, 1/2)."""
    half = Fraction(1, 2) / pitch
    return range(-math.floor(half), math.ceil(half))


def _pitch_grid(pitch: Fraction, dim: int):
    """pitch * Z^d intersected with [-1/2, 1/2)^d, exact."""
    axis = [n * pitch for n in _pitch_axis(pitch)]
    return [tuple(v) for v in cartesian(axis, repeat=dim)]


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


def _lattice_moduli(factors, lattices, den: int) -> np.ndarray:
    """|prod_j m_j(s)| at every point s of lattices[0] x ... x lattices[d-1]
    (integer numerators over den), shaped like the lattice: the sum set of
    the first axis and the product of the others, evaluated by
    `sum_set_transform` from per-axis tables over the distinct atom
    coordinates on that axis."""
    blocks = [([c], lat.reshape(-1, 1)) for c, lat in enumerate(lattices)]
    acc = sum_set_transform(blocks[0], blocks[1:], den, factors)
    return np.abs(acc).reshape([len(lat) for lat in lattices])


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
    other coordinates, and a running minimum along the last axis gives every
    segment length at once; a k then costs one read per segment and x."""
    dim = moduli.ndim
    reach = math.isqrt(ball_t)
    heads = _ball_offsets(ball_t, dim - 1).tolist() if dim > 1 else [[]]
    radii = [math.isqrt(ball_t - sum(n * n for n in head)) for head in heads]
    last = wheres[-1]
    out = np.empty((len(k_at), math.prod(w.shape[0] for w in wheres)))
    ks = k_at.tolist()
    for kl in sorted({k[-1] for k in ks}):
        # by_radius[r]: min over |y| <= r on the last axis, for each x there
        by_radius = [np.take(moduli, last[:, kl, reach], axis=-1)]
        for r in range(1, reach + 1):
            run = np.minimum(by_radius[-1], np.take(moduli, last[:, kl, reach - r], axis=-1))
            by_radius.append(np.minimum(run, np.take(moduli, last[:, kl, reach + r], axis=-1), out=run))
        for ki, k in enumerate(ks):
            if k[-1] != kl:
                continue
            best = None
            for head, r in zip(heads, radii):
                part = by_radius[r]
                for c, n in enumerate(head):
                    part = np.take(part, wheres[c][:, k[c], reach + n], axis=c)
                best = part if best is None else np.minimum(best, part)
            out[ki] = best.ravel()
    return out


def truncation_tail_floor(
    c: float, depth: int, dim: int, xi_max: float, terms: int = 200
):
    """Lower bound for the product of the mask moduli a depth-truncated scan
    ignores.  Valid when every ignored digit set sits inside its half-open
    box after scaling by its own matrix: the j-th tail factor then averages
    unit exponentials with phases within +-theta_j where
    theta_j = pi sqrt(d) xi_max c^{j-1}, so it is at least cos(theta_j)
    while theta_j < pi/2.  Returns (floor, note); floor is None when the
    bound does not apply."""
    if not 0 < c < 1:
        return None, "no contraction ratio declared; truncation error unbounded"
    acc = 0.0
    for j in range(depth + 1, depth + 1 + terms):
        theta = math.pi * math.sqrt(dim) * xi_max * c ** (j - 1)
        if theta >= math.pi / 2:
            return None, (
                f"phase bound {theta:.3f} at tail factor {j} is not below pi/2; "
                "no truncation floor at this depth"
            )
        acc += math.log(math.cos(theta))
        if theta < 1e-18:
            break
    floor = math.exp(acc)
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
    lattice and the scan reads its minima from the table.  The x grid is
    walked in lexicographic blocks whose lattice fits the dense byte budget.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if k_window < 0:
        raise ValidationError("k_window must be >= 0")
    starts = [int(s) for s in tail_starts]
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
        minima per k, and the box the ball's segments are cut from."""
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
    xs = _pitch_grid(pitch, dim)
    xs_note = f"pitch {pitch} on [-1/2,1/2)^{dim}: {len(xs)} points"

    zero_x = tuple(Fraction(0) for _ in range(dim))
    witnesses = {}
    failed_at = None
    scanned_min = math.inf
    for start, factors in zip(starts, factor_sets):
        for picks, first in _x_blocks(n_axis, dim, axis, count):
            axes = [_axis_lattice(x_nums[p], k_nums, y_nums) for p in picks]
            moduli = _lattice_moduli(factors, [lat for lat, _ in axes], den)
            per_k_min = _ball_minima(moduli, [where for _, where in axes], k_at, ball_t)
            best = _first_best(per_k_min).tolist()
            for xi_idx, x in enumerate(xs[first : first + per_k_min.shape[1]]):
                k_idx = 0 if x == zero_x else best[xi_idx]  # _k_search_box puts 0 first
                val = float(per_k_min[k_idx, xi_idx])
                witnesses[(start, x)] = (ks[k_idx], val)
                if val <= fail_tol and failed_at is None:
                    failed_at = (start, x)
                scanned_min = min(scanned_min, val)

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
        per_x_witness=witnesses,
        failed_at=failed_at,
        truncation_floor=floor,
        truncation_note=note,
    )


# ===== quantitative helpers =====


def cos_bound(theta: float) -> float:
    """Lower bound cos(theta/2) for the modulus of any average of unit
    exponentials whose phases all lie within an arc of width theta < pi."""
    if not 0 <= theta < math.pi:
        raise ThetaOutOfRange(f"need 0 <= theta < pi, got {theta}")
    return math.cos(theta / 2)


@dataclass(frozen=True)
class TailConstant:
    value: float  # partial sum of ln cos(eps^j), j = 0..terms
    lo: float  # certified bracket: lo <= true constant <= hi
    hi: float
    terms: int


def tail_constant_C(epsilon: float, terms: int) -> TailConstant:
    """Partial sum of sum_j ln cos(eps^j) with a certified tail bracket
    (|tail| <= sum_{j>terms} eps^{2j}, since -ln cos x <= x^2 on [0,1])."""
    if not 0 < epsilon < 1:
        raise EpsilonOutOfRange(f"need 0 < epsilon < 1, got {epsilon}")
    if terms < 0:
        raise ValidationError("terms must be >= 0")
    total = 0.0
    for j in range(terms + 1):
        total += math.log(math.cos(epsilon**j))
    tail = epsilon ** (2 * (terms + 1)) / (1 - epsilon**2)
    return TailConstant(value=total, lo=total - tail, hi=total, terms=terms)


def perturbation_bound(phi1_to_phi2_tv: float, epsilon0: float) -> float:
    """Transfer an equi-positivity constant across a total-variation distance."""
    if phi1_to_phi2_tv < 0:
        raise ValidationError("total variation cannot be negative")
    if phi1_to_phi2_tv >= epsilon0:
        raise BoundViolation(
            f"tv distance {phi1_to_phi2_tv} is not below epsilon0 {epsilon0}"
        )
    return epsilon0 - phi1_to_phi2_tv


@dataclass(frozen=True)
class FloorReport:
    epsilon0_floor: float
    r_value: float
    a_value: float
    j_index: int
    c_bracket: tuple
    checked_levels: tuple
    valid: bool
    detail: str


def equi_positivity_floor(
    seq,
    l,
    tail_start: int = 0,
    *,
    a=None,
    check_depth: int = 16,
    c_terms: int = 80,
) -> FloorReport:
    """Numeric evaluation of the constructive lower bound e^C r^{J-1} a for
    tails of a concentration-compliant sequence with margin l.

    r = cos_bound((1 - l/2) pi); J is the first index where the phase bound
    (3 d pi / 4) c^{J-1} drops below c per extra level; a must satisfy
    (1-a) r - a > a and dominate the far-digit fractions of the checked
    levels (verified exactly level by level)."""
    from .conditions import pcc_split  # local import: avoid a module cycle

    lf = Fraction(l)
    if not 0 < lf < 1:
        raise ValidationError(f"need 0 < l < 1, got {lf}")
    c = seq.declared_contractivity
    if c is None:
        raise ValidationError("sequence declares no contraction ratio")
    cf = float(c)
    if not 0 < cf < 1:
        raise ValidationError("declared contraction ratio must be in (0, 1)")
    d = seq.dim
    theta = (1 - float(lf) / 2) * math.pi
    r = cos_bound(theta)
    if a is None:
        a = r / (2 * (r + 2))
    af = float(a)
    if not (1 - af) * r - af > af:
        raise BoundViolation(
            f"a = {af:g} violates the smallness requirement (1-a)r - a > a"
        )
    arg = 4.0 / (3.0 * d * math.pi)
    jj = 1 if arg >= 1 else 1 + math.ceil(math.log(arg) / math.log(cf))
    tc = tail_constant_C(cf, c_terms)
    floor = math.exp(tc.lo) * r ** (jj - 1) * af
    checked = []
    valid = True
    bad = None
    top = tail_start + check_depth
    if seq.length is not None:
        top = min(top, seq.length)
    a_frac = Fraction(af)
    for k in range(tail_start + 1, top + 1):
        b = seq.digits(k)
        _, far = pcc_split(seq.matrix(k), b, lf)
        frac = Fraction(len(far), len(b))
        checked.append((k, frac))
        if frac > a_frac and bad is None:
            valid = False
            bad = k
    detail = (
        f"far-digit fractions checked exactly for levels {tail_start + 1}..{top}"
        + ("" if valid else f"; level {bad} exceeds a = {af:g}")
    )
    return FloorReport(
        epsilon0_floor=floor,
        r_value=r,
        a_value=af,
        j_index=jj,
        c_bracket=(tc.lo, tc.hi),
        checked_levels=tuple(checked),
        valid=valid,
        detail=detail,
    )
