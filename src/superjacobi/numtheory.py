"""Bernoulli numbers, divisor-power sums, and level-one Eisenstein series.

Normalizations:

    E_{2k} = 1 - (4k / B_{2k}) * sum_{n>=1} sigma_{2k-1}(n) q^n
    ghat_{2k} = -B_{2k} / (2k)! * E_{2k}

so that the transcendentally normalized series is pi-hat^{2k} * ghat_{2k}
with pi-hat standing for 2*pi*i.

All functions are pure; the Bernoulli memo table is an lru_cache over an
immutable tuple, safe to share between workers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .series import QYSeries
from .ratfunc import RatFunc


@lru_cache(maxsize=None)
def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n by exact long division of x by (e^x - 1).

    (e^x - 1)/x has coefficients 1/(i+1)!; the reciprocal series c satisfies
    c_0 = 1 and c_j = -sum_{i=1..j} c_{j-i}/(i+1)!, with B_j = j! c_j.
    """
    c = [Fraction(1)]
    for j in range(1, n + 1):
        s = Fraction(0)
        for i in range(1, j + 1):
            s += c[j - i] / factorial(i + 1)
        c.append(-s)
    return tuple(factorial(j) * c[j] for j in range(n + 1))


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bernoulli_upto(n)[n]


def divisors(n: int) -> list[int]:
    """The positive divisors of n in increasing order, by trial division to
    sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def divisor_sum(n: int, r: int) -> int:
    """sigma_r(n) = sum of d^r over divisors d of n."""
    return sum(d ** r for d in divisors(n))


def eisenstein_e(k: int, trunc: int) -> QYSeries:
    """E_{2k} as a y-free QYSeries on the integer grid, exact to q^trunc."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if trunc < 1:
        raise ValueError("q_order must be >= 1")
    b = bernoulli(2 * k)
    factor = Fraction(-4 * k) / b
    terms = {0: RatFunc.one()}
    for n in range(1, trunc):
        terms[n] = RatFunc.const(factor * divisor_sum(n, 2 * k - 1))
    return QYSeries(1, Fraction(0), terms, trunc)


def eisenstein_ghat(k: int, trunc: int) -> QYSeries:
    """ghat_{2k} = -B_{2k}/(2k)! * E_{2k}; caller attaches pi-hat^{2k}."""
    e = eisenstein_e(k, trunc)          # validates k before B_{2k} is read
    return e.scale(-bernoulli(2 * k) / factorial(2 * k))
