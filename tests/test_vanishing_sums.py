"""The exact Hadamard test (`triples.hadamard_check`) and its vanishing-sum
kernels against the cyclotomic oracle, and its verdicts against the float
walk on every command of `tools/same_outputs.py`."""
import json
import math
import random
import sys
from pathlib import Path

import pytest

import numpy as np

from convspectra import cli, triples
from convspectra.exactmat import IntMatrix
from convspectra.triples import DigitSet, _small_primes, _sums_vanish, _vanishes, hadamard_check
from float_gram import float_deviation
from oracles import gram_is_identity, sum_vanishes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402


def _support(n: int) -> set:
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))}


# k for `_small_primes`: one or two terms, a few, and bounds that reach
# some primes of the n below and stop short of others
_KS = (1, 2, 12, 2**10, 2**17)


@pytest.mark.parametrize(
    "n, primes",
    [
        (1, ()),
        (4, (2,)),
        (64 * 301**2, (2, 7, 43)),
        (2 * 10**10 + 1, (3, 19, 1627, 215659)),  # the cofactor 215659 passes 2^17
        (1000003 * 1000033, (1000003, 1000033)),
        ((2**31 - 1) * (2**61 - 1), (2**31 - 1, 2**61 - 1)),
        (1009**3 * (2**89 - 1) ** 5, (1009, 2**89 - 1)),
        ((2**127 - 1) ** 3 * 1031, (1031, 2**127 - 1)),
        (2**89 - 1, (2**89 - 1,)),
        ((2**61 - 1) * (2**64 - 59), (2**61 - 1, 2**64 - 59)),
    ],
)
def test_prime_factors(n, primes):
    # `_small_primes` finds exactly the primes p <= k of n, however large
    # the primes past k
    for k in _KS:
        assert _small_primes(n, k) == tuple(p for p in primes if p <= k), k


def test_prime_factors_of_small_numbers_match_trial_division():
    for n in range(1, 3000):
        support = _support(n)
        for k in (1, 2, 3, 5, 6, 30, 97, 3000):
            assert _small_primes(n, k) == tuple(sorted(p for p in support if p <= k)), (n, k)


def _random_sum(rng, n: int) -> dict:
    """A random signed sum at n: about half the time a combination of
    rotated full cosets of subgroups of prime order (which vanishes), with
    or without one extra term."""
    counts = {}
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 4)):
            p = rng.choice(sorted(_support(n)))
            e, w = rng.randrange(n), rng.choice((-2, -1, 1, 3))
            for j in range(p):
                counts[(e + j * n // p) % n] = counts.get((e + j * n // p) % n, 0) + w
        if rng.random() < 0.3:
            e = rng.randrange(n)
            counts[e] = counts.get(e, 0) + rng.choice((-1, 1))
    else:
        for _ in range(rng.randint(1, 12)):
            e = rng.randrange(n)
            counts[e] = counts.get(e, 0) + rng.randint(-3, 3)
    return {e: w for e, w in counts.items() if w}


def test_vanishing_sums_match_the_cyclotomic_remainder():
    rng = random.Random(20261021)
    moduli = [2, 3, 4, 6, 8, 9, 12, 15, 16, 27, 30, 36, 45, 60, 64, 72, 105, 210, 225, 243, 420, 1155, 2310]
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.choice(moduli)
        terms = _random_sum(rng, n)
        got = _vanishes(terms, n, _small_primes(n, len(terms)))
        assert got == sum_vanishes(terms.items(), n), (n, terms)
        seen[got] += 1
    assert min(seen.values()) >= 100


def test_a_sum_over_a_proper_subset_of_a_coset_does_not_vanish():
    # Lam-Leung: a vanishing sum with positive weights at n = p^a has a
    # multiple of p terms
    for n in (7, 49, 343):
        for k in range(1, 7):
            terms = {j * n // 7: 1 for j in range(k)}
            assert not _vanishes(terms, n, _small_primes(n, k)) and not sum_vanishes(terms.items(), n)


def _unimodular(rng, d: int) -> IntMatrix:
    """A random integer matrix of determinant ±1: a product of shears."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        k = rng.randint(-2, 2)
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return IntMatrix(tuple(map(tuple, m)))


def _planted(rng, d: int, shift: int = 0):
    """A Hadamard triple under a skewed R: the discrete Fourier triple
    (diag(N), B, L) with B = (N/k)·{0..k-1} and L = {0..k-1} per axis, moved
    to (U R W, U B, Wᵀ L) by unimodular U and W, and then by B + R z and
    L + Rᵀ z' with integer z, z' of size up to `shift`."""
    sizes = [rng.choice((2, 3, 4)) for _ in range(d)]
    scales = [k * rng.choice((1, 2, 3)) for k in sizes]
    r = IntMatrix.diagonal(scales)
    axes_b = [[(n // k) * i for i in range(k)] for n, k in zip(scales, sizes)]
    axes_l = [list(range(k)) for k in sizes]
    u, w = _unimodular(rng, d), _unimodular(rng, d)
    r = u.matmul(r).matmul(w)
    b = [u.matvec(v) for v in _grid(axes_b)]
    l = [w.transpose().matvec(v) for v in _grid(axes_l)]
    if shift:
        b = [tuple(x + y for x, y in zip(v, r.matvec([rng.randint(-shift, shift) for _ in range(d)]))) for v in b]
        rt = r.transpose()
        l = [tuple(x + y for x, y in zip(v, rt.matvec([rng.randint(-shift, shift) for _ in range(d)]))) for v in l]
    return r, b, l


def _grid(axes) -> list:
    rows = [()]
    for a in axes:
        rows = [v + (x,) for v in rows for x in a]
    return rows


def _spoiled(rng, r, b, l):
    """The triple with one digit of B or L moved by a small vector, which
    may or may not keep it Hadamard."""
    b, l = list(b), list(l)
    side = b if rng.random() < 0.5 else l
    i = rng.randrange(len(side))
    moved = tuple(x + rng.randint(-1, 1) for x in side[i])
    if moved not in side:
        side[i] = moved
    return r, b, l


def _cases(rng, count: int, shift: int = 0):
    for _ in range(count):
        d = rng.choice((1, 2, 2, 3))
        r, b, l = _planted(rng, d, shift)
        yield r, b, l
        yield _spoiled(rng, r, b, l)
    for _ in range(count):
        # fully random triples: a random R with small entries, random digits
        d = rng.choice((1, 2))
        while True:
            r = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)))
            if 1 < abs(r.det()) <= 60:
                break
        k = rng.randint(2, 5)
        digits = lambda: list({tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(3 * k)})[:k]  # noqa: E731
        yield r, digits(), digits()


@pytest.mark.parametrize("shift", [0, 2**70])
def test_exact_verdicts_match_the_oracle_on_random_and_skew_triples(shift):
    rng = random.Random(7 + shift % 1000)
    verdicts, wide = [], False
    for r, b, l in _cases(rng, 40, shift):
        b, l = DigitSet.of(b), DigitSet.of(l)
        ok = hadamard_check(r, b, l)
        assert ok is gram_is_identity(r, b, l), (r, b, l)
        verdicts.append(ok)
        wide = wide or object in (b.rows.dtype, l.rows.dtype)
    assert 30 <= sum(verdicts) <= len(verdicts) - 30
    assert wide == bool(shift)


def test_exact_verdicts_match_the_oracle_one_difference_per_run(monkeypatch):
    # the exponent table of the sets that are no axis products goes in runs
    # of one row each
    monkeypatch.setattr(triples, "_RUN_TARGET_BYTES", 1)
    rng = random.Random(11)
    for r, b, l in _cases(rng, 20):
        b, l = DigitSet.of(b), DigitSet.of(l)
        assert hadamard_check(r, b, l) == gram_is_identity(r, b, l), (r, b, l)


def test_a_triple_that_floats_pass_is_refuted():
    # floats put the Gram π/4e10 from I, inside the default tol
    r = IntMatrix.diagonal([2 * 10**10 + 1])
    b, l = DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), (10**10,)])
    assert abs(float_deviation(r, b, l) - math.pi / 4e10) < 1e-15
    assert len(b) == len(l) and hadamard_check(r, b, l) is False


def test_a_large_prime_determinant_is_refuted_exactly():
    # 2^89 - 1 is prime, so the Gram entry 1 + ζ^((p-1)/2) is not 0: two
    # terms need only the prime 2, which p lacks, and floats round the
    # deviation to 6.1e-17
    p = 2**89 - 1
    r, b, l = IntMatrix.diagonal([p]), DigitSet.of([(0,), (1,)]), DigitSet.of([(0,), ((p - 1) // 2,)])
    assert float_deviation(r, b, l) == pytest.approx(6.123e-17, rel=1e-3)
    assert hadamard_check(r, b, l) is False


def test_a_determinant_with_large_prime_cofactors_is_certified():
    # R = 2q, q = (2^61 - 1)(2^64 - 59): B = {0, q} and L = {0, 1} give the
    # Gram entry 1 + ζ_{2q}^q = 0, decided from the prime 2 alone
    q = (2**61 - 1) * (2**64 - 59)
    r, b, l = IntMatrix.diagonal([2 * q]), DigitSet.of([(0,), (q,)]), DigitSet.of([(0,), (1,)])
    assert hadamard_check(r, b, l) is True


def _levels(argv, doc, seq) -> list:
    """(level, dual) for the Hadamard verdicts a command reads: `check`'s
    hadamard levels, each `spectrum` level with its dual, and the first four
    levels of any other command; none for a command line the CLI refuses."""
    top = seq.length or 10**9
    try:
        verb, _ = cli._parse_argv(argv)
    except cli._Exit:
        return []
    if verb == "check":
        sec = doc.get("check", {})
        if "hadamard" not in sec.get("checks", ["hadamard"]):
            return []
        upto = min(sec.get("hadamard_upto", min(sec.get("upto", 20), 8)), top)
        return [(k, False) for k in range(1, upto + 1)]
    if verb == "spectrum":
        last = min(doc["spectrum"]["milestones"][-1], top)
        return [(k, dual) for k in range(1, last + 1) for dual in (False, True)]
    return [(k, False) for k in range(1, min(4, top) + 1)]


def test_exact_verdicts_equal_the_float_verdicts_on_every_compared_command():
    # at the default tol, with the float walk of `float_gram`; the repro
    # cases are where floats pass a triple that is not Hadamard
    checked, seqs = set(), {}
    for name, argv, text in same_outputs.cases():
        if "repro" in name:
            continue
        doc = json.loads(text)
        key = json.dumps([doc["dimension"], doc["sequence"]], sort_keys=True)
        if key not in seqs:
            seqs[key] = cli.parse_config(text).build_sequence()
        seq = seqs[key]
        for k, dual in _levels(argv, doc, seq):
            if (key, k, dual) in checked:
                continue
            checked.add((key, k, dual))
            r, b, l = seq.matrix(k), seq.digits(k), seq.spectrum_digits(k)
            if l is None:
                continue
            args = (r.transpose(), l, b) if dual else (r, b, l)
            dev = float_deviation(*args)
            assert hadamard_check(*args) == (dev <= 1e-9), (name, k, dual, dev)
    assert len(checked) >= 350


# ----- the table kernel of the levels that are no axis products -----


# moduli with one to six distinct primes
_TABLE_MODULI = (64, 243, 45, 72, 2025, 60, 4096, 210, 1155, 2310, 30030)


def _exponents(rng, n: int) -> list:
    """Exponents at n, repeats allowed: about half the time a union of
    rotated full cosets of subgroups of prime order (a vanishing sum), with
    or without one more term, and random ones otherwise."""
    if rng.random() < 0.5:
        out = []
        for _ in range(rng.randint(1, 4)):
            p, e = rng.choice(sorted(_support(n))), rng.randrange(n)
            out += [(e + j * n // p) % n for j in range(p)]
        return out + ([rng.randrange(n)] if rng.random() < 0.3 else [])
    return [rng.randrange(n) for _ in range(rng.randint(1, 12))]


def _counts(exponents) -> dict:
    out = {}
    for e in exponents:
        out[e] = out.get(e, 0) + 1
    return out


def test_the_table_kernel_matches_the_cyclotomic_oracle():
    # one row at a time, and every row of a length in one table, where a
    # class never reaches across two rows
    rng = random.Random(20261022)
    rows, seen = {}, {True: 0, False: 0}
    for _ in range(1500):
        n = rng.choice(_TABLE_MODULI)
        e = _exponents(rng, n)
        want = sum_vanishes(_counts(e).items(), n)
        assert _sums_vanish(np.array([e]), n, _small_primes(n, len(e))) == want, (n, e)
        rows.setdefault((n, len(e)), []).append((e, want))
        seen[want] += 1
    assert min(seen.values()) >= 400
    for (n, k), table in rows.items():
        got = _sums_vanish(np.array([e for e, _ in table]), n, _small_primes(n, k))
        assert got == all(want for _, want in table), (n, k)
    # 1 + ζ + ζ² and ζ³ + ζ⁴ + ζ⁵ at n = 6 do not vanish, their union does
    assert not _sums_vanish(np.array([[0, 2, 1], [4, 3, 5]]), 6, (2, 3))


@pytest.mark.parametrize("s", [6, 30, 210])
def test_the_table_kernel_decides_moduli_past_int64(s):
    # n = s·P with P = 2^61 − 1 prime: a sum of rotated classes e_0 + k·n/s,
    # their e_0 apart mod n/s, vanishes exactly when every Σ ζ_s^k does
    # (Mann: P exceeds the number of terms)
    n, rng = s * (2**61 - 1), random.Random(s)
    assert n >= 2**63
    for _ in range(60):
        e0s = rng.sample(range(n // s), rng.randint(1, 3))
        classes = [_exponents(rng, s) for _ in e0s]
        e = [(e0 + k * (n // s)) % n for e0, ks in zip(e0s, classes) for k in ks]
        want = all(sum_vanishes(_counts(ks).items(), s) for ks in classes)
        got = _sums_vanish(np.array([e], dtype=object), n, _small_primes(n, len(e)))
        assert got == want, (s, e)
        assert _vanishes(_counts(e), n, _small_primes(n, len(set(e)))) == want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_table_test_takes_one_difference_of_each_pair(n, monkeypatch):
    # the sum at −δ is the conjugate of the sum at δ: the table of the skew
    # level holds one row per pair {δ, −δ mod den}, and δ alone when 2δ ≡ 0
    tested = []
    real = triples._sums_vanish
    monkeypatch.setattr(triples, "_sums_vanish", lambda e, den, primes: tested.append(len(e)) or real(e, den, primes))
    r = IntMatrix(((n, n), (0, n)))
    b = DigitSet.of([(x, y) for x in range(n) for y in range(n)])
    l = DigitSet.of([(x, x + y) for x in range(n) for y in range(n)])
    assert hadamard_check(r, b, l) is True
    den, y = triples.numerators(r, b)
    deltas = {tuple(int(c) % den for c in u - v) for u in y for v in y} - {(0, 0)}
    pairs = {min(d, tuple(-c % den for c in d)) for d in deltas}
    assert sum(tested) == len(pairs) < len(deltas)


def _non_product_cases(rng, count: int):
    """Triples whose reduced rows or L are no axis products: random and
    skew ones, with digits past int64, with two digits congruent mod R, and
    with #B ≠ #L."""
    for shift in (0, 2**70):
        for r, b, l in _cases(rng, count, shift):
            yield r, b, l
    for _ in range(count // 2):
        r, b, l = _planted(rng, 2)
        twin = tuple(x + y for x, y in zip(b[1], r.matvec([1, -1])))
        yield r, [twin] + b[1:], l  # b[0] replaced by a digit congruent to b[1]
        yield r, b, l[:-1]


def test_non_product_triples_match_the_oracle():
    rng = random.Random(5)
    verdicts, rows_path = [], 0
    for r, b, l in _non_product_cases(rng, 30):
        b, l = DigitSet.of(b), DigitSet.of(l)
        _, axes, _ = triples._reduced_rows(r, b)
        rows_path += axes is None or triples._axis_sets(l.rows) is None
        ok = hadamard_check(r, b, l)
        assert ok == gram_is_identity(r, b, l), (r, b, l)
        assert not ok or len(b) == len(l)
        verdicts.append(ok)
    assert rows_path >= 60 and 20 <= sum(verdicts) <= len(verdicts) - 20
