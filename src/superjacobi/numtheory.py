"""Bernoulli numbers, divisor-power sums, and level-one Eisenstein series.

Normalizations:

    E_{2k} = 1 - (4k / B_{2k}) * sum_{n>=1} sigma_{2k-1}(n) q^n
    ghat_{2k} = -B_{2k} / (2k)! * E_{2k}

so that the transcendentally normalized series is pi-hat^{2k} * ghat_{2k}
with pi-hat standing for 2*pi*i.

All functions are pure.  The Bernoulli numbers are memoised in one module
tuple that a call replaces by a longer one when it needs more entries; a
reader only ever sees a whole tuple, so concurrent calls at worst repeat
the growth.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .qseries import QSeries


_bernoulli_c: tuple[Fraction, ...] = (Fraction(1),)   # c_j = B_j / j!


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention).

    B_j = j! c_j, where c is the reciprocal of (e^x - 1)/x, whose
    coefficients are 1/(i+1)!: c_0 = 1 and c_j = -sum_{i=1..j} c_{j-i}/(i+1)!.
    One table of c grows to the largest n asked for.
    """
    global _bernoulli_c
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _bernoulli_c
    if n >= len(c):
        c = list(c)
        for j in range(len(c), n + 1):
            c.append(-sum(c[j - i] / factorial(i + 1)
                          for i in range(1, j + 1)))
        c = _bernoulli_c = tuple(c)
    return factorial(n) * c[n]


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


def eisenstein_e(k: int, trunc: int) -> QSeries:
    """E_{2k} as a QSeries, exact to q^trunc."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if trunc < 1:
        raise ValueError("q_order must be >= 1")
    factor = Fraction(-4 * k) / bernoulli(2 * k)
    p, d = factor.numerator, factor.denominator
    nums = {0: d}
    for n in range(1, trunc):
        nums[n] = p * divisor_sum(n, 2 * k - 1)
    return QSeries(nums, d, trunc)


def eisenstein_ghat(k: int, trunc: int) -> QSeries:
    """ghat_{2k} = -B_{2k}/(2k)! * E_{2k}; caller attaches pi-hat^{2k}."""
    e = eisenstein_e(k, trunc)          # validates k before B_{2k} is read
    return e.scale(-bernoulli(2 * k) / factorial(2 * k))
