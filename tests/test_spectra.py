"""Spectrum construction, the Q criterion, exactness, and the scan helpers."""
import io
import random
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest

from convspectra.errors import (
    BoundViolation,
    MilestoneGap,
    NonUniformWeights,
    SizeMismatch,
    TripleInvalid,
    TruncationTooLarge,
    ValidationError,
    WorkingSetTooLarge,
)
from convspectra import _phases, spectra
from convspectra.exactmat import IntMatrix
from convspectra.measures import mu_truncate, tail_factors
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.spectra import (
    SpectrumLevels,
    build_spectrum,
    equi_positivity_scan,
    first_lowest,
    perturbation_bound,
    q_eval_many,
    read_levels,
    spectrum_exactness,
    truncation_tail_floor,
    write_levels,
)
from convspectra.triples import DigitSet
from oracles import compose_triples, fourier, level_triple, level_tuples, tuple_spectrum
from test_structured import twin


def _telescoped_level(seq, m):
    """Independent enumeration: all sums of transposed-prefix-scaled digits."""
    blocks = []
    for i in range(1, m + 1):
        pt = seq.prefix_matrix(i - 1).transpose()
        blocks.append([pt.matvec(l) for l in seq.spectrum_digits(i)])
    return {
        tuple(sum(c) for c in zip(*combo)) for combo in cartesian(*blocks)
    }


# ----- construction -----


def test_line_levels_match_closed_form():
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, [1, 2, 3])
    assert level_tuples(sp.levels[0]) == ((0,), (1,))
    assert level_tuples(sp.levels[1]) == ((0,), (1,), (4,), (5,))
    assert level_tuples(sp.levels[2]) == ((0,), (1,), (4,), (5,), (16,), (17,), (20,), (21,))
    for j, m in enumerate(sp.milestones):
        assert set(level_tuples(sp.levels[j])) == _telescoped_level(jp, m)


def test_planar_levels_match_closed_form():
    seq = builtin_sequence("example-2.6")
    sp = build_spectrum(seq, [1, 2])
    assert [len(l) for l in sp.levels] == [4, 36]
    assert set(level_tuples(sp.levels[1])) == _telescoped_level(seq, 2)


def test_levels_match_triple_composition():
    # independent route: compose the validated triples and compare the
    # spectrum digit sets with the recursion's output
    for name, tops in (("jorgensen-pedersen", 4), ("example-2.6", 3)):
        seq = builtin_sequence(name)
        sp = build_spectrum(seq, list(range(1, tops + 1)))
        for j in range(1, tops + 1):
            _, _, l = compose_triples([level_triple(seq, i) for i in range(1, j + 1)])
            assert set(level_tuples(sp.levels[j - 1])) == set(l.vectors)


def test_zero_membership_and_nesting():
    for name in ("jorgensen-pedersen", "example-2.6"):
        seq = builtin_sequence(name)
        sp = build_spectrum(seq, [1, 2, 3])
        zero = (0,) * seq.dim
        prev = set()
        for level in sp.levels:
            cur = set(level_tuples(level))
            assert zero in cur
            assert prev <= cur
            prev = cur


def test_milestone_validation():
    jp = builtin_sequence("jorgensen-pedersen")
    with pytest.raises(ValidationError):
        build_spectrum(jp, [])
    with pytest.raises(ValidationError):
        build_spectrum(jp, [2, 2])
    with pytest.raises(ValidationError):
        build_spectrum(jp, [3, 1])
    short = builtin_sequence("jorgensen-pedersen", max_k=2)
    with pytest.raises(MilestoneGap):
        build_spectrum(short, [1, 3])


def test_spectrum_atom_cap():
    seq = builtin_sequence("example-2.6")
    with pytest.raises(TruncationTooLarge):
        build_spectrum(seq, [1, 2, 3], max_atoms=100)


def test_invalid_triple_rejected():
    # L = {0, 4} collides mod R^T Z: the exponential matrix has equal rows
    def gen(k):
        return (
            IntMatrix.diagonal([4]),
            DigitSet.of([(0,), (2,)]),
            DigitSet.of([(0,), (4,)]),
        )

    seq = from_generator(gen, 1)
    with pytest.raises(TripleInvalid):
        build_spectrum(seq, [1])


def test_random_k_table_keeps_exactness():
    rng = random.Random(40917)
    jp = builtin_sequence("jorgensen-pedersen")
    base = build_spectrum(jp, [1, 2, 3])
    table = {}
    for j, m in enumerate(base.milestones, start=1):
        p = base.milestones[j - 2] if j >= 2 else 0
        for lam in _window_block_vectors(jp, p, m):
            table[(lam, j)] = (rng.randint(-3, 3),)
    sp = build_spectrum(jp, [1, 2, 3], k_chooser=table)
    assert [len(l) for l in sp.levels] == [2, 4, 8]
    assert (0,) in set(level_tuples(sp.levels[2]))  # k forced to 0 at lambda = 0
    for j, m in enumerate(sp.milestones, start=1):
        res = spectrum_exactness(mu_truncate(jp, m), sp.levels[j - 1])
        assert res.ok, res
    # shifted levels genuinely differ from the zero-choice ones
    assert any(
        set(level_tuples(a)) != set(level_tuples(b)) for a, b in zip(sp.levels, base.levels)
    )
    assert sp.k_choices  # nonzero choices were recorded


def _window_block_vectors(seq, p, q):
    from convspectra.spectra import _window_spectrum_digits

    return map(tuple, _window_spectrum_digits(seq, p, q).tolist())


def _wide_line_level(k):
    # R = 2^20 with L = {0, 1}: level j reaches 2^(20 (j - 1)), past int64 at j = 5
    return IntMatrix.diagonal([2**20]), DigitSet.of([(0,), (2**19,)]), DigitSet.of([(0,), (1,)])


def _k_table(seq, milestones, seed):
    """Random k in [-2, 2]^d for every vector of every window, as
    build_spectrum's table chooser takes them: {(lambda, j): k}."""
    rng = random.Random(seed)
    table, p = {}, 0
    for j, q in enumerate(milestones, start=1):
        for lam in _window_block_vectors(seq, p, q):
            table[(lam, j)] = tuple(rng.randint(-2, 2) for _ in range(seq.dim))
        p = q
    return table


def _wide_digit_level(k):
    # L = {0, 2^32 + 1}: an odd spectrum digit past the int64 digit grid
    return IntMatrix.diagonal([4]), DigitSet.of([(0,), (2,)]), DigitSet.of([(0,), (2**32 + 1,)])


_JP = builtin_sequence("jorgensen-pedersen")
_EX26 = builtin_sequence("example-2.6")
_WIDE = from_generator(_wide_line_level, 1, length=8)


@pytest.mark.parametrize(
    "seq, milestones, chooser, extra",
    [
        (_JP, [1, 2, 3, 5, 8], "zero", {}),
        (_EX26, [1, 2, 3], "zero", {}),
        (_EX26, [1, 3], "windowed-search", {"search_radius": 1, "search_depth": 2}),
        (_JP, [1, 2, 4], "table", {}),
        (_EX26, [1, 2], "table", {}),
        (_JP, [1, 2, 3], "zero", {"delta0": Fraction(1, 32)}),
        (_WIDE, [1, 2, 3, 4, 5], "zero", {}),
        (from_generator(_wide_digit_level, 1, length=8), [1, 3, 4], "table", {}),
        (_WIDE, [1, 2, 3], "table", {"delta0": Fraction(1, 2**50)}),
    ],
)
def test_levels_match_tuple_sets(seq, milestones, chooser, extra):
    if chooser == "table":
        # the table is keyed by the requested milestones, which delta0 keeps here
        chooser = _k_table(seq, milestones, 40917)
    sp = build_spectrum(seq, milestones, chooser, **extra)
    if isinstance(chooser, dict):
        choices = {(j, lam): k for (lam, j), k in chooser.items()}
        assert dict(sp.k_choices) == {key: k for key, k in choices.items() if any(k) and any(key[1])}
    else:
        choices = dict(sp.k_choices)
    used, levels = tuple_spectrum(seq, milestones, choices, extra.get("delta0"))
    assert sp.milestones == used and tuple(map(level_tuples, sp.levels)) == levels
    assert all(type(x) is int for level in sp.levels for v in level.tolist() for x in v)
    for j, level in enumerate(sp.levels, start=1):
        sums = {tuple(map(sum, zip(*vs))) for vs in cartesian(*(b.tolist() for b in sp.blocks[:j]))}
        assert sorted(sums) == list(level_tuples(level))
        # one dtype per level: int64 exactly when every entry lies below 2^62
        assert level.dtype == (np.int64 if all(abs(x) < 2**62 for v in level.tolist() for x in v) else object)
    if seq is _WIDE and "delta0" not in extra:
        assert max(abs(x) for v in sp.final().tolist() for x in v) >= 2**63
        assert sp.blocks[-1].dtype == object and sp.blocks[0].dtype == np.int64


def test_windowed_chooser_keeps_exactness():
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(
        jp, [1, 2], k_chooser="windowed-search", search_radius=1, search_depth=2
    )
    assert sp.chooser == "windowed"
    for j, m in enumerate(sp.milestones, start=1):
        res = spectrum_exactness(mu_truncate(jp, m), sp.levels[j - 1])
        assert res.ok, res


def test_delta0_advances_milestones():
    jp = builtin_sequence("jorgensen-pedersen")
    # |lambda| <= 1 after level 1, so 4^{-m} < delta0/2 = 1/64 needs m >= 4
    sp = build_spectrum(jp, [1, 2], delta0=Fraction(1, 32))
    assert sp.milestones == (1, 4)
    assert [len(l) for l in sp.levels] == [2, 16]
    res = spectrum_exactness(mu_truncate(jp, 4), sp.levels[1])
    assert res.ok
    short = builtin_sequence("jorgensen-pedersen", max_k=3)
    with pytest.raises(MilestoneGap):
        build_spectrum(short, [1, 2], delta0=Fraction(1, 32))


def test_write_read_roundtrip():
    seq = builtin_sequence("example-2.6")
    sp = build_spectrum(seq, [1, 2])
    buf = io.StringIO()
    write_levels(sp, buf)
    back = read_levels(io.StringIO(buf.getvalue()))
    assert back.dim == sp.dim
    assert back.milestones == sp.milestones
    assert tuple(map(level_tuples, back.levels)) == tuple(map(level_tuples, sp.levels))


def test_wide_line_levels_survive_the_level_file():
    # levels 1-4 of the R = 2^20 line fit int64; level 5 reaches 2^80
    sp = build_spectrum(_WIDE, [1, 2, 3, 4, 5])
    buf = io.StringIO()
    write_levels(sp, buf)
    back = read_levels(io.StringIO(buf.getvalue()))
    assert back == sp
    assert [l.dtype for l in back.levels] == [np.dtype(np.int64)] * 4 + [np.dtype(object)]
    assert [l.dtype for l in sp.levels] == [l.dtype for l in back.levels]
    assert level_tuples(back.final()) == tuple_spectrum(_WIDE, [1, 2, 3, 4, 5])[1][-1]
    # rows in any order read back sorted
    lines = buf.getvalue().splitlines(True)
    head, body = lines[:-32], lines[-32:]
    shuffled = read_levels(io.StringIO("".join(head + body[::-1])))
    assert shuffled == sp


_B = spectra._LEVEL_BLOCK_ROWS


def _one_shot_level_file(sp) -> str:
    """The level file of `sp` with every level formatted at once."""
    lines = [f"# spectrum dim={sp.dim} chooser={sp.chooser}\n"]
    for j, (m, level) in enumerate(zip(sp.milestones, sp.levels), start=1):
        lines.append(f"# level {j}: milestone {m}, {len(level)} vectors\n")
        lines += [" ".join(str(x) for x in row) + "\n" for row in level.tolist()]
    return "".join(lines)


def test_level_file_blocks_match_a_one_shot_format():
    rng = random.Random(4096)
    for dim in (1, 2, 3):
        # int64 levels with negative entries whose row counts sit at the
        # block edges, int64 rows at both ends of the int64 range, and
        # object levels, one row per block edge: every row past int64, and
        # negative entries past it beside small ones
        levels = []
        for n in (1, _B - 1, _B, _B + 1, 2 * _B + 1):
            cell = lambda: (rng.randrange(-(2**40), 2**40),) + tuple(rng.randrange(-4, 9) for _ in range(dim - 1))
            levels.append(np.array(sorted({cell() for _ in range(n + 50)})[:n], dtype=np.int64))
        levels.append(np.array([(-(2**63),) * dim, (-1,) * dim, (0,) * dim, (2**63 - 1,) * dim], dtype=np.int64))
        levels.append(np.array([(2**70 + i,) + (-(3**50) * i,) * (dim - 1) for i in range(_B + 1)], dtype=object))
        mixed = [(-(2**64) * i - 1,) + tuple(rng.randrange(-9, 9) for _ in range(dim - 1)) for i in range(_B + 1)]
        levels.append(np.array(mixed[::-1], dtype=object))
        sp = SpectrumLevels(dim, tuple(range(1, len(levels) + 1)), tuple(levels), "zero", ())
        buf = io.StringIO()
        write_levels(sp, buf)
        assert buf.getvalue() == _one_shot_level_file(sp)
        assert read_levels(io.StringIO(buf.getvalue())) == sp


class _LengthSink:
    """A stream that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def test_level_file_block_peak_is_a_small_multiple_of_its_text():
    import tracemalloc

    # one full block of a 1-D level, its entries spread like a JP level's to 4^20
    level = np.array(sorted(random.Random(1).sample(range(4**20), _B)), dtype=np.int64).reshape(-1, 1)
    sp = SpectrumLevels(1, (20,), (level,), "zero", ())
    write_levels(sp, _LengthSink())  # first-use caches
    sink = _LengthSink()
    tracemalloc.start()
    try:
        write_levels(sp, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sum(len(str(v)) + 1 for v in level.ravel().tolist())
    assert text < sink.chars < text + 100  # the block and the two header lines
    # the block's text, its format string and one tuple of Python ints:
    # about 4.5 times the text
    assert peak <= 6 * text, (peak, text)


# ----- the Q criterion -----


def test_q_oracle_line_level_two():
    jp = builtin_sequence("jorgensen-pedersen")
    q = q_eval_many(tail_factors(jp, 0, 2), [(0,), (1,), (4,), (5,)], [(Fraction(17, 31),)])[0]
    assert abs(q - 1.0) < 1e-10


def test_q_empty_set_is_zero():
    jp = builtin_sequence("jorgensen-pedersen")
    assert q_eval_many(tail_factors(jp, 0, 2), [], [(Fraction(1, 3),)])[0] == 0.0


def test_q_subset_is_bessel_but_incomplete():
    jp = builtin_sequence("jorgensen-pedersen")
    q = q_eval_many(tail_factors(jp, 0, 2), [(0,), (1,)], [(Fraction(1, 3),)])[0]
    assert 0.0 < q < 1.0


def test_q_detects_non_spectrum():
    # {0,1,2,3} is not a spectrum here: Q(0) = 1 + |mu_hat(2)|^2 = 1.5
    jp = builtin_sequence("jorgensen-pedersen")
    m2 = mu_truncate(jp, 2)
    q = q_eval_many(tail_factors(jp, 0, 2), [(0,), (1,), (2,), (3,)], [(Fraction(0),)])[0]
    assert abs(q - 1.5) < 1e-12
    res = spectrum_exactness(m2, [(0,), (1,), (2,), (3,)])
    assert not res.ok and res.deviation > 0.4


def test_q_many_matches_scalar():
    jp = builtin_sequence("jorgensen-pedersen")
    m2 = mu_truncate(jp, 2)
    lams = [(0,), (1,), (4,), (5,)]
    rng = random.Random(5521)
    xis = [(Fraction(rng.randint(-50, 50), rng.randint(1, 97)),) for _ in range(12)]
    batch = q_eval_many(tail_factors(jp, 0, 2), lams, xis)
    for xi, qb in zip(xis, batch):
        scalar = sum(abs(fourier(m2, (xi[0] + lam[0],))) ** 2 for lam in lams)
        assert abs(scalar - qb) < 1e-12


def test_q_many_checks_its_result_before_allocating(monkeypatch):
    # one-point runs of the kernel fit in far less than the 8000-byte
    # result, and the two are checked together
    f2 = tail_factors(builtin_sequence("jorgensen-pedersen"), 0, 2)
    points = _phases.PointRows(np.arange(1000).reshape(-1, 1), 1000)
    ranks = [len(rows) for rows, _, _ in _phases.merged_factors(f2)]
    row, fixed = _phases.sum_set_sizes([2], ranks)
    assert row + fixed < 8 * 1000
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 8 * 1000 + fixed + row)
    assert len(q_eval_many(f2, [(0,), (1,)], points)) == 1000
    for budget in (8 * 1000 + fixed + row - 1, 8 * 1000):
        monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", budget)
        with pytest.raises(WorkingSetTooLarge, match="1000 x 2 points .* next to a 8000-byte result"):
            q_eval_many(f2, [(0,), (1,)], points)
    # with no candidates, the result alone
    monkeypatch.setattr(_phases, "DENSE_BYTE_BUDGET", 8 * 1000 - 1)
    with pytest.raises(WorkingSetTooLarge, match="Q at 1000 frequencies"):
        q_eval_many(f2, [], points)


def test_q_bessel_bound_along_levels():
    rng = random.Random(90041)
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, [1, 2, 3, 4])
    for top in range(1, 5):
        factors = tail_factors(jp, 0, top)
        for j in range(1, top + 1):
            for _ in range(5):
                xi = (Fraction(rng.randint(-200, 200), rng.randint(1, 211)),)
                q = q_eval_many(factors, sp.levels[j - 1], [xi])[0]
                assert q <= 1.0 + 1e-9


def test_exactness_error_paths():
    from convspectra.measures import DiscreteMeasure

    jp = builtin_sequence("jorgensen-pedersen")
    m2 = mu_truncate(jp, 2)
    with pytest.raises(SizeMismatch):
        spectrum_exactness(m2, [(0,), (1,)])
    skew = DiscreteMeasure.make(
        [((Fraction(0),), Fraction(1, 3)), ((Fraction(1, 2),), Fraction(2, 3))]
    )
    with pytest.raises(NonUniformWeights):
        spectrum_exactness(skew, [(0,), (1,)])


def test_exactness_all_line_levels():
    jp = builtin_sequence("jorgensen-pedersen")
    sp = build_spectrum(jp, list(range(1, 7)))
    for j, m in enumerate(sp.milestones, start=1):
        res = spectrum_exactness(mu_truncate(jp, m), sp.levels[j - 1], tol=1e-9)
        assert res.ok and res.deviation < 1e-9


# ----- equi-positivity scan -----


def test_scan_witnessed_and_beats_analytic_floor():
    red = builtin_sequence("example-2.6").reduced()
    rep = equi_positivity_scan(
        red, [0, 2], depth=4, x_grid=Fraction(1, 8), y_radius=Fraction(1, 12)
    )
    assert rep.status == "witnessed"
    assert rep.epsilon0 > 0
    assert rep.delta0 == pytest.approx(1 / 12)
    zero_x = (Fraction(0), Fraction(0))
    k0, v0 = rep.per_x_witness[(0, zero_x)]
    assert k0 == (0, 0) and v0 > 0.9


def test_scan_failed_fixture():
    # identity matrices never contract: the grid mask vanishes at x = -1/2
    def gen(k):
        return (
            IntMatrix.diagonal([1, 1]),
            DigitSet.of([(0, 0), (0, 1), (1, 0), (1, 1)], 2),
            None,
        )

    seq = from_generator(gen, 2, name="identity-fixture")
    rep = equi_positivity_scan(
        seq, [0], depth=1, x_grid=Fraction(1, 4), y_radius=Fraction(1, 12)
    )
    assert rep.status == "failed"
    assert rep.epsilon0 == 0.0
    start, x = rep.failed_at
    assert start == 0 and Fraction(-1, 2) in x


def test_scan_degenerate_singletons():
    def gen(k):
        return (IntMatrix.diagonal([2, 2]), DigitSet.of([(1, 1)], 2), None)

    seq = from_generator(gen, 2, validate_digits=False, name="point-mass")
    rep = equi_positivity_scan(
        seq, [0], depth=3, x_grid=Fraction(1, 4), y_radius=Fraction(1, 16)
    )
    assert rep.status == "witnessed"
    assert rep.epsilon0 >= 1.0 - 1e-12


def test_scan_respects_grid_cap():
    red = builtin_sequence("example-2.6").reduced()
    from convspectra.errors import GridTooLarge

    with pytest.raises(GridTooLarge):
        equi_positivity_scan(
            red,
            [0],
            depth=1,
            x_grid=Fraction(1, 64),
            y_radius=Fraction(1, 12),
            grid_cap=1000,
        )


def test_scan_k_window_helps_far_x():
    # with k_window = 1 every witness stays at least as good as with k = 0
    red = builtin_sequence("example-2.6").reduced()
    base = equi_positivity_scan(
        red, [0], depth=2, x_grid=Fraction(1, 4), y_radius=Fraction(1, 12)
    )
    wide = equi_positivity_scan(
        red, [0], depth=2, x_grid=Fraction(1, 4), y_radius=Fraction(1, 12), k_window=1
    )
    assert wide.status == "witnessed"
    for key, (_, val) in base.per_x_witness.items():
        x = key[1]
        if all(c == 0 for c in x):
            continue  # k is forced to 0 at the origin in both runs
        assert wide.per_x_witness[key][1] >= val - 1e-12


# ----- quantitative helpers -----


def _skew_in_box(outside_at=None):
    """Digits {0, 1}² under the non-diagonal R = [[4, 1], [0, 4]], declared
    contraction ratio 1/3; level `outside_at` swaps (1, 1) for (3, 3), whose
    R⁻¹(3, 3) = (9/16, 3/4) leaves the box."""
    r = IntMatrix(((4, 1), (0, 4)))

    def gen(k):
        return r, DigitSet.of([(0, 0), (1, 0), (0, 1), (3, 3) if k == outside_at else (1, 1)]), None

    return from_generator(gen, 2, declared_contractivity=Fraction(1, 3))


def _scan_sequence(name, reduce):
    """A builtin, its explicit twin (name + "-explicit"), or `_skew_in_box`."""
    if name.startswith("skew"):
        return _skew_in_box(5 if name == "skew-outside" else None)
    seq = builtin_sequence(name.removesuffix("-explicit"))
    if name.endswith("-explicit"):
        seq = twin(seq)
    return seq.reduced() if reduce else seq


@pytest.mark.parametrize(
    "name, reduce, floor_applies",
    [
        ("bernoulli-quarter", False, True),
        ("example-2.6", True, True),
        ("jorgensen-pedersen", False, False),
        ("example-2.6", False, False),
        # explicit twins and a non-diagonal R reach the probe's row count
        ("example-2.6-explicit", True, True),
        ("example-2.6-explicit", False, False),
        ("skew-in-box", False, True),
        ("skew-outside", False, False),
    ],
)
def test_scan_applies_or_withholds_the_truncation_floor(name, reduce, floor_applies):
    seq = _scan_sequence(name, reduce)
    rep = equi_positivity_scan(
        seq, [0], depth=4, x_grid=Fraction(1, 8), y_radius=Fraction(1, 12)
    )
    assert rep.status == "witnessed"
    if floor_applies:
        assert 0 < rep.truncation_floor < 1
        assert rep.epsilon0 == rep.scanned_epsilon0 * rep.truncation_floor
        assert rep.truncation_note.startswith("ignored factors beyond depth 4 bounded below by ")
    else:
        # level 5, the first ignored level, has a digit outside R_5[-1/2, 1/2)^d
        assert rep.truncation_floor is None
        assert rep.epsilon0 == rep.scanned_epsilon0
        assert rep.truncation_note == (
            "level 5 digit set leaves its half-open box; truncation floor withheld"
        )
    if name.endswith("-explicit"):
        original = equi_positivity_scan(
            _scan_sequence(name.removesuffix("-explicit"), reduce), [0], depth=4,
            x_grid=Fraction(1, 8), y_radius=Fraction(1, 12),
        )
        assert rep.truncation_note == original.truncation_note


@pytest.mark.parametrize("c", [0.25, 0.9, 0.99])
def test_truncation_tail_floor_is_below_the_infinite_product(c):
    import mpmath

    # depth 1 in one dimension with xi_max = 0.1: the factors cos(pi/10 c^(j-1)), j >= 2
    floor, _ = truncation_tail_floor(c, 1, 1, 0.1)
    with mpmath.workdps(40):
        ratio, theta = mpmath.mpf(c), mpmath.pi / 10 * mpmath.mpf(c)
        log_true = mpmath.mpf(0)
        while theta > mpmath.mpf(10) ** -25:
            log_true += mpmath.log(mpmath.cos(theta))
            theta *= ratio
        true = float(mpmath.exp(log_true))
    assert 0 < floor <= true * (1 + 1e-14)


def test_truncation_tail_floor_withheld_past_the_factor_cap():
    # after 200 factors the phase bound 0.45 pi * 0.9999^200 is still above 1
    floor, note = truncation_tail_floor(0.9999, 0, 1, 0.45)
    assert floor is None
    assert note.endswith("is above 1; no truncation floor at this depth")


def test_perturbation_arithmetic():
    assert perturbation_bound(0.0, 0.7) == 0.7
    assert abs(perturbation_bound(0.2, 0.5) - 0.3) < 1e-15
    with pytest.raises(BoundViolation):
        perturbation_bound(0.5, 0.5)
    with pytest.raises(BoundViolation):
        perturbation_bound(0.9, 0.5)
    with pytest.raises(ValidationError):
        perturbation_bound(-0.1, 0.5)


# ----- tie-stable selection of the worst witnesses -----


def test_first_lowest_takes_the_first_value_within_the_tie_tolerance():
    vals = [0.5, 0.2 + 4e-16, 0.9, 0.2, 0.3, 0.2 + 5e-15]
    assert first_lowest(vals, 4) == [1, 3, 5, 4]
    assert first_lowest(vals, 10) == [1, 3, 5, 4, 0, 2]
    assert first_lowest([], 5) == []


def test_worst_witnesses_are_stable_under_mirrored_summation(monkeypatch):
    # the reduced example-2.6 digits are symmetric under swapping the axes, so
    # |nu_hat| at (a, b) and (b, a) agree exactly.  Its tails are axis
    # products, so the scan takes one table per axis and their outer product,
    # and mirrored values agree to the bit
    seq = builtin_sequence("example-2.6").reduced()
    args = (seq, [0, 1], 6, Fraction(1, 16), Fraction(1, 12), 1)

    def mirrored_values(scan):
        keys = list(scan.per_x_witness)
        vals = [scan.per_x_witness[key][1] for key in keys]
        return vals, [scan.per_x_witness[(s, (x[1], x[0]))][1] for s, x in keys]

    vals, mirrored = mirrored_values(equi_positivity_scan(*args))
    assert vals == mirrored
    # the dense lattice kernel sums them in different orders (axis 0 is its
    # left block), which moves the values by rounding alone
    monkeypatch.setattr(spectra, "_product_axes", lambda factors: None)
    vals, mirrored = mirrored_values(equi_positivity_scan(*args))
    moved = [abs(a - b) for a, b in zip(vals, mirrored)]
    assert 0 < max(moved) <= 1e-15
    # a plain sort by value picks different rows from the two orders
    by_value = [sorted(range(len(vals)), key=v.__getitem__)[:5] for v in (vals, mirrored)]
    assert by_value[0] != by_value[1]
    assert first_lowest(vals, 5) == first_lowest(mirrored, 5)


def test_a_repeated_tail_start_is_scanned_once():
    # the witness arrays hold one row per start, so the worst witnesses of
    # `equipos` list no row twice, as the dict keyed by (start, x) did not
    seq = builtin_sequence("example-2.6").reduced()
    once = equi_positivity_scan(seq, [1, 0], 3, Fraction(1, 4), Fraction(1, 12), 1)
    again = equi_positivity_scan(seq, [1, 0, 1], 3, Fraction(1, 4), Fraction(1, 12), 1)
    assert again.tail_starts == (1, 0) and again.witness_values.shape == (2, 16)
    assert list(again.per_x_witness.items()) == list(once.per_x_witness.items())
