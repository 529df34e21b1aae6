import random
from fractions import Fraction
from math import comb, factorial

import pytest

from superjacobi.numtheory import (bernoulli, divisor_sum, divisors,
                                   eisenstein_e, eisenstein_ghat)

F = Fraction


def bernoulli_recurrence_oracle(n: int) -> list[Fraction]:
    """Independent route: sum_{j<n} C(n+1, j) B_j = 0 for n >= 1, B_0 = 1."""
    b = [F(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, j) * b[j] for j in range(m))
        b.append(F(-s, m + 1))
    return b


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(12) == F(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 31, 2))


def test_bernoulli_against_recurrence_oracle():
    # one jump to B_60 grows the table, then every entry is read from it
    oracle = bernoulli_recurrence_oracle(60)
    for n in (60, *range(61)):
        assert bernoulli(n) == oracle[n]


def divisor_sum_multiplicative(n: int, r: int) -> int:
    """sigma_r via prime factorization; independent of trial summation."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            pk = 1
            acc = 1
            while m % p == 0:
                m //= p
                pk *= p ** r
                acc += pk
            total *= acc
        p += 1 if p == 2 else 2
    if m > 1:
        total *= 1 + m ** r
    return total


def test_divisor_sum_examples():
    assert divisor_sum(6, 1) == 12
    assert divisor_sum(2, 3) == 9
    assert divisor_sum(4, 5) == divisor_sum_multiplicative(4, 5)


def test_divisor_sum_multiplicative_random():
    rng = random.Random(7)
    count = 0
    while count < 200:
        a = rng.randint(1, 400)
        b = rng.randint(1, 400)
        from math import gcd
        if gcd(a, b) != 1:
            continue
        count += 1
        r = rng.randint(1, 6)
        assert divisor_sum(a * b, r) == divisor_sum(a, r) * divisor_sum(b, r)
        assert divisor_sum(a * b, r) == divisor_sum_multiplicative(a * b, r)


def _coeffs(s, upto):
    return [s.coeff(n) for n in range(upto)]


def test_eisenstein_expansions():
    assert _coeffs(eisenstein_e(1, 4), 4) == [1, -24, -72, -96]
    assert _coeffs(eisenstein_e(2, 3), 3) == [1, 240, 2160]
    assert _coeffs(eisenstein_e(3, 3), 3) == [1, -504, -16632]


def test_eisenstein_constant_terms():
    for k in range(1, 9):
        assert eisenstein_e(k, 2).coeff(0) == 1


def test_ghat_normalizations():
    for k, scale in [(1, F(-1, 12)), (2, F(1, 720)), (3, F(-1, 30240))]:
        g = eisenstein_ghat(k, 6)
        e = eisenstein_e(k, 6)
        assert g.same_visible(e.scale(scale))


def test_ghat_denominator_bound():
    for k in range(1, 7):
        bound = factorial(2 * k) * bernoulli(2 * k).denominator
        g = eisenstein_ghat(k, 30)
        assert bound % g.den == 0


def test_divisors_against_scan():
    for n in range(1, 501):
        ds = divisors(n)
        assert ds == [d for d in range(1, n + 1) if n % d == 0], n
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]   # 6 listed once
    assert divisors(1) == [1]


@pytest.mark.parametrize("n", [0, -1, -12])
def test_divisors_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        divisors(n)


@pytest.mark.parametrize("trunc", [0, -1])
@pytest.mark.parametrize("fn", [eisenstein_e, eisenstein_ghat])
def test_eisenstein_rejects_nonpositive_order(fn, trunc):
    with pytest.raises(ValueError, match="q_order must be >= 1"):
        fn(2, trunc)
