"""Acceptance gate: thirteen end-to-end properties of the toolkit, each
printing one PASS line with its number when its assertions hold.

Every numeric tolerance here is part of the package contract; tests that
cover a derived constant pin it against an independent oracle (zeta values,
closed-form geometric sums, vertex enumeration, binomial error bars)."""

import math
import random
import time
from fractions import Fraction
from itertools import accumulate
from itertools import product as cartesian

from convspectra.conditions import (
    coupled_sample,
    pcc_series,
    pcc_split,
    pcc_sup,
    rbc_series,
    rbc_split,
    three_series,
)
from convspectra.exactmat import IntMatrix, invert
from convspectra.measures import mu_truncate
from convspectra.sequences import builtin_sequence, from_generator
from convspectra.spectra import (
    build_spectrum,
    equi_positivity_scan,
    perturbation_bound,
    q_eval_many,
    spectrum_exactness,
)
from convspectra.triples import DigitSet, hadamard_check
from oracles import compose_triples, fraction_inverse, level_tuples


def seeded_rationals(rng, count, max_den=10_000, spread=10):
    out = []
    for _ in range(count):
        den = rng.randrange(1, max_den + 1)
        num = rng.randrange(-spread * den, spread * den + 1)
        out.append(Fraction(num, den))
    return out


def test_acceptance_01_unitarity_with_big_integer_atoms():
    seq = builtin_sequence("example-2.6")
    for k in range(1, 7):
        t0 = time.perf_counter()
        res = hadamard_check(seq.matrix(k), seq.digits(k), seq.spectrum_digits(k))
        elapsed = time.perf_counter() - t0
        assert res.ok
        assert res.max_deviation < 1e-9
        assert elapsed < 1.0
    print(
        "ACCEPTANCE 01 PASS — planar family levels 1..6 unitary, "
        "max deviation < 1e-9, < 1 s per level"
    )


def test_acceptance_02_quarter_scaling_finite_level_spectra():
    t0 = time.perf_counter()
    seq = builtin_sequence("jorgensen-pedersen")
    rng = random.Random(94002)
    xis = seeded_rationals(rng, 100)
    worst_dev, worst_q = 0.0, 0.0
    for n in range(1, 9):
        lams = sorted(
            (sum(bit << (2 * i) for i, bit in enumerate(bits)),)
            for bits in cartesian((0, 1), repeat=n)
        )
        mu = mu_truncate(seq, n)
        res = spectrum_exactness(mu, lams)
        assert res.ok and res.size == 2**n
        worst_dev = max(worst_dev, res.deviation)
        for xi in xis:
            q = q_eval_many(mu, lams, [(xi,)])[0]
            assert 1 - 1e-8 <= q <= 1 + 1e-8
            worst_q = max(worst_q, abs(q - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_dev < 1e-9
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 02 PASS — quarter-scaling levels 1..8 exact "
        f"(dev {worst_dev:.2e}), q within 1e-8 of 1 at 100 rational points "
        f"(worst {worst_q:.2e}), {elapsed:.1f} s"
    )


def test_acceptance_03_planar_family_spectra():
    t0 = time.perf_counter()
    seq = builtin_sequence("example-2.6")
    expected_atoms = {1: 4, 2: 36, 3: 576}
    worst = 0.0
    for top in (1, 2, 3):
        sp = build_spectrum(seq, tuple(range(1, top + 1)))
        level = sp.levels[-1]
        assert len(level) == expected_atoms[top]
        mu = mu_truncate(seq, top)
        res = spectrum_exactness(mu, level, tol=1e-8)
        assert res.ok and res.size == expected_atoms[top]
        worst = max(worst, res.deviation)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 03 PASS — planar family milestones (1),(1,2),(1,2,3): "
        f"4/36/576 atoms exact (dev {worst:.2e}), {elapsed:.1f} s"
    )


def test_acceptance_04_outside_box_series_matches_zeta_oracle():
    seq = builtin_sequence("example-2.6")
    diag = rbc_series(seq, 1000)
    for k, term in zip(diag.indices, diag.terms):
        assert term == Fraction(1, (k + 1) ** 2)
    target = math.pi**2 / 6 - 1
    gap = abs(float(diag.partial_sums[-1]) - target)
    assert gap < 1e-3
    print(
        f"ACCEPTANCE 04 PASS — outside-box terms equal 1/(k+1)^2 exactly up to "
        f"k=1000; partial sum within {gap:.2e} of pi^2/6 - 1"
    )


def test_acceptance_05_cone_sup_and_far_split():
    seq = builtin_sequence("example-2.6")
    for k in range(1, 101):
        r = seq.matrix(k)
        assert abs(pcc_sup(r) - 1 / (4 * (k + 1))) < 1e-12
        near, far = pcc_split(r, seq.digits(k), Fraction(1, 4))
        assert far.vectors == ((k + 8**k * math.factorial(k + 1), 0),)
        assert len(near) == (k + 1) ** 2 - 1
    diag = pcc_series(seq, Fraction(1, 4), upto=100)
    assert diag.margin_ok
    for k, term in zip(diag.indices, diag.terms):
        assert term == Fraction(1, (k + 1) ** 2)
    print(
        "ACCEPTANCE 05 PASS — cone sup equals 1/(4(k+1)) within 1e-12 for "
        "k <= 100; the level's one far digit is split out exactly"
    )


def test_acceptance_06_split_agrees_with_vertex_enumeration():
    rng = random.Random(60321)
    checked = 0
    for _ in range(1000):
        d = rng.randint(1, 3)
        if rng.random() < 0.5:
            entries = [rng.choice([x for x in range(-16, 17) if x != 0]) for _ in range(d)]
            r = IntMatrix.diagonal(entries)
        else:
            while True:
                r = IntMatrix(
                    tuple(
                        tuple(rng.randint(-16, 16) for _ in range(d)) for _ in range(d)
                    )
                )
                if r.det() != 0:
                    break
        vectors = {
            tuple(rng.randint(-16, 16) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        }
        b = DigitSet.of(sorted(vectors))
        l = Fraction(rng.randint(1, 99), 100)

        near, far = pcc_split(r, b, l)
        inv = fraction_inverse(r)
        threshold = (1 - l) / 2
        brute_near, brute_far = set(), set()
        for v in b.vectors:
            w = inv.matvec(v)
            sup = max(
                abs(sum(s * c for s, c in zip(signs, w)))
                for signs in cartesian((1, -1), repeat=d)
            )
            (brute_near if sup < threshold else brute_far).add(v)
        assert set(near.vectors) == brute_near
        assert set(far.vectors) == brute_far
        checked += len(b)
    print(
        f"ACCEPTANCE 06 PASS — l1 split matches 2^d-vertex enumeration on "
        f"1000 seeded instances ({checked} digits)"
    )


def test_acceptance_07_coupled_mismatch_within_binomial_error():
    rng = random.Random(70707)
    pairs = []
    for i in range(20):
        a = sorted(rng.sample(range(-20, 21), rng.randint(2, 6)))
        if i >= 14:
            b = list(a)  # identical pair: mismatch must be impossible
        else:
            keep = [v for v in a if rng.random() < 0.6]
            extra = rng.sample([v for v in range(-20, 21) if v not in a], 4)
            b = sorted(set(keep + extra))[: rng.randint(2, 6)]
            if len(b) < 2:
                b = sorted(set(keep + extra))[:2]
        pairs.append((a, b))

    def gen_a(k):
        return IntMatrix(((4,),)), DigitSet.of([(v,) for v in pairs[k - 1][0]]), None

    def gen_b(k):
        return IntMatrix(((4,),)), DigitSet.of([(v,) for v in pairs[k - 1][1]]), None

    s1 = from_generator(gen_a, 1, length=20)
    s2 = from_generator(gen_b, 1, length=20)
    draws = 100_000
    rep = coupled_sample(s1, s2, 20, draws, 42)
    for lv, (a, b) in zip(rep.levels, pairs):
        sa, sb = set(a), set(b)
        oracle = max(
            Fraction(len(sb - sa), len(sb)), Fraction(len(sa - sb), len(sa))
        )
        assert lv.exact_p == oracle
        p = float(oracle)
        emp = lv.mismatches / draws
        sigma = math.sqrt(p * (1 - p) / draws)
        if sigma == 0.0:
            assert lv.mismatches == (0 if p == 0.0 else draws)
        else:
            assert abs(emp - p) <= 4 * sigma
    assert all(lv.mismatches == 0 for lv in rep.levels[14:])
    print(
        "ACCEPTANCE 07 PASS — coupled mismatch rates within 4 binomial sigma "
        "on 20 seeded pairs at 1e5 draws; identical pairs mismatch exactly 0"
    )


def test_acceptance_08_three_series_of_geometric_family():
    seq = builtin_sequence("jorgensen-pedersen")
    s1, s2, s3 = three_series(seq, Fraction(1), 35)
    assert all(t == 0 for t in s1.terms)
    third = Fraction(1, 3)
    # the series hold only the partial sums a report prints, so the others
    # are summed here from the terms
    means = list(accumulate(t[0] for t in s2.terms))
    assert s2.partial_sums[-1] == (means[-1],)
    for k, part in zip(s2.indices, means):
        if k >= 30:
            assert abs(float(part - third)) < 1e-9
    for k, inc in zip(s3.indices, s3.terms):
        if k > 30:
            assert abs(float(inc)) < 1e-12
    print(
        "ACCEPTANCE 08 PASS — at radius 1: tail series identically 0, means "
        "reach 1/3 within 1e-9 by level 30, variance increments < 1e-12 after"
    )


def test_acceptance_09_bessel_bound_on_partial_levels():
    seq = builtin_sequence("jorgensen-pedersen")
    rng = random.Random(90909)
    xis = seeded_rationals(rng, 100)
    sp = build_spectrum(seq, tuple(range(1, 9)))
    worst = 0.0
    for top in range(1, 9):
        mu = mu_truncate(seq, top)
        for j in range(1, top + 1):
            level = sp.levels[j - 1]
            for xi in xis:
                q = q_eval_many(mu, level, [(xi,)])[0]
                assert q <= 1 + 1e-9
                worst = max(worst, q)
    print(
        f"ACCEPTANCE 09 PASS — partial-level q stays <= 1 + 1e-9 for all "
        f"j <= K <= 8 at 100 rational points (max {worst:.9f})"
    )


def test_acceptance_10_recursion_matches_composed_triples():
    for name, top in (("jorgensen-pedersen", 8), ("example-2.6", 3)):
        seq = builtin_sequence(name)
        sp = build_spectrum(seq, tuple(range(1, top + 1)))
        for m in range(1, top + 1):
            composed = compose_triples([seq.triple(i) for i in range(1, m + 1)])
            assert set(level_tuples(sp.levels[m - 1])) == set(composed.l.vectors)
    print(
        "ACCEPTANCE 10 PASS — level recursion reproduces composed spectrum "
        "digit sets exactly for both builtin families"
    )


def test_acceptance_11_arc_mean_lower_bound():
    rng = random.Random(111213)
    for _ in range(10_000):
        theta = rng.uniform(0.0, 3.0)
        m = rng.randint(1, 20)
        base = rng.uniform(0.0, 2 * math.pi)
        total = 0j
        for _ in range(m):
            x = base + rng.uniform(0.0, theta)
            total += complex(math.cos(x), -math.sin(x))
        assert abs(total / m) >= math.cos(theta / 2) - 1e-12
    print(
        "ACCEPTANCE 11 PASS — 1e4 seeded arc samples: |mean of e^(-ix)| >= "
        "cos(theta/2) - 1e-12 for theta in [0, 3)"
    )


def test_acceptance_12_tail_scan_witness_and_transfer():
    import mpmath

    seq = builtin_sequence("example-2.6")
    scan = equi_positivity_scan(
        seq.reduced(), [0], 12, Fraction(1, 32), Fraction(1, 12), 0
    )
    assert scan.status == "witnessed"
    assert scan.epsilon0 > 0

    # exact tail sum_{k>=100} 1/(k+1)^2 via the zeta oracle, plus the
    # rational telescoping majorant 1/100 as a cross-check
    with mpmath.workdps(40):
        tail = mpmath.zeta(2) - mpmath.nsum(
            lambda k: 1 / (k + 1) ** 2, [1, 99]
        ) - 1  # the k=0 term of zeta(2) is 1
        tv_exact = float(2 * tail)
    assert 0 < tv_exact < 2 * float(Fraction(1, 100))
    transferred = perturbation_bound(tv_exact, scan.epsilon0)
    assert transferred > 0
    conservative = perturbation_bound(float(2 * Fraction(1, 100)), scan.epsilon0)
    assert 0 < conservative <= transferred
    print(
        f"ACCEPTANCE 12 PASS — depth-12 scan witnessed epsilon0 = "
        f"{scan.epsilon0:.6f}; bound stays {transferred:.6f} after the "
        f"level-100 tail perturbation"
    )


def test_acceptance_13_unbounded_support_witness():
    seq = builtin_sequence("example-2.6")
    partial = Fraction(0)
    for k in range(1, 41):
        far = rbc_split(seq.matrix(k), seq.digits(k)).b2
        assert len(far) == 1
        det, adj = invert(seq.prefix_matrix(k))
        scaled = [Fraction(x, det) for x in adj.matvec(far.vectors[0])]
        scale = 8**k * math.factorial(k + 1)
        assert scaled[0] == Fraction(k + scale, scale)
        partial += scaled[0]
        assert partial > k
    rep = coupled_sample(seq, seq, 20, 4000, 1337)
    exceeded = sum(1 for v in rep.x_sums[:, 0] if v > 10)
    freq = exceeded / rep.draws
    assert freq > 0.99
    print(
        f"ACCEPTANCE 13 PASS — scaled far-digit partial sums exceed K for all "
        f"K <= 40; sampled level-20 first-coordinate sums exceed 10 with "
        f"frequency {freq:.4f}"
    )
