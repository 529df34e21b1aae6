"""N=2 minimal-model spectrum labels and the one table of product factors.

The level-u family (u >= 2, central charge c(u) = 3 - 6/u) has u(u-1)/2
irreducible modules labeled by integer pairs (j, k) with j >= 0, k >= 1,
j + k < u.  The character of (j, k) is

    q^{jk/u} y^{(j-k+1)/u} P_{j,k}^{(u)} / P_{1/2,1/2}^{(2)}

with the infinite product

    P_{j,k}^{(u)} = prod_{n>=1}
        (1-q^{u(n-1)+j+k}) (1-q^{un-j-k}) (1-q^{un})^2
      / [(1-q^{un-j} y) (1-q^{u(n-1)+j} y^{-1}) (1-q^{un-k} y^{-1}) (1-q^{u(n-1)+k} y)].

A generic label with j + k = u would contribute (1 - q^0) = 0 and is
rejected.  The normalized character carries an extra y^{c/6}.

Both the character and its spectral flow come from one walk,
_quotient_factors.  It returns the factors of (u, j, k), then those of the
generic label (2, 1/2, 1/2) with their side flipped, and the whole exact
prefactor sign * q^qpref * y^ypref.  The exact series engine
(``characters``) multiplies these factors out; the numerical probe
(``jacobi``) evaluates them, and so loads this module alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadLevel, NegativeExponent, VanishingFactor


@dataclass(frozen=True)
class ModuleLabel:
    u: int
    j: Fraction
    k: Fraction
    generic: bool = False

    def __post_init__(self):
        _check_level(self.u)
        for name in ("j", "k"):
            x = getattr(self, name)
            if type(x) is not int and not isinstance(x, Fraction):
                raise BadLevel(f"{name} must be an int or a Fraction, not {x!r}")
            object.__setattr__(self, name, Fraction(x))
        if not self.generic:
            if self.j.denominator != 1 or self.k.denominator != 1:
                raise BadLevel("spectrum labels need integer j, k")
            if not (self.j >= 0 and self.k >= 1 and self.j + self.k < self.u):
                raise BadLevel(
                    f"(j, k) = ({self.j}, {self.k}) not in the level-{self.u} spectrum")


def _check_level(u) -> None:
    if type(u) is not int:
        raise BadLevel(f"u must be an int, not {u!r}")
    if u < 2:
        raise BadLevel("u must be >= 2")


def central_charge(u: int) -> Fraction:
    _check_level(u)
    return Fraction(3) - Fraction(6, u)


def spectrum(u: int) -> list[ModuleLabel]:
    _check_level(u)
    return [ModuleLabel(u, Fraction(j), Fraction(k))
            for j in range(u) for k in range(1, u) if j + k < u]


# -- product factors -----------------------------------------------------------

def _p_factors(u: int, j: Fraction, k: Fraction, qmax: Fraction):
    """Yield (a, yexp, side) for every factor of P_{j,k}^{(u)} with q-exponent
    a < qmax; side is +1 for numerator factors, -1 for denominator ones.

    Raises NegativeExponent if any factor exponent is negative, and
    VanishingFactor for the factor (1 - q^0) of a generic label with
    j + k = u * n, which makes the product zero.
    """
    n = 1
    while True:
        exps = [
            (u * (n - 1) + j + k, 0, +1),
            (u * n - j - k, 0, +1),
            (Fraction(u * n), 0, +1),
            (Fraction(u * n), 0, +1),
            (u * n - j, 1, -1),
            (u * (n - 1) + j, -1, -1),
            (u * n - k, -1, -1),
            (u * (n - 1) + k, 1, -1),
        ]
        negative = [a for a, _, _ in exps if a < 0]
        if negative:
            raise NegativeExponent(f"factor exponent {negative[0]} < 0 for "
                                   f"(u, j, k) = ({u}, {j}, {k})")
        emitted = False
        for a, yexp, side in exps:
            if a == 0 and yexp == 0:
                raise VanishingFactor(
                    f"factor (1 - q^0) = 0 for (u, j, k) = ({u}, {j}, {k})")
            if a < qmax:
                emitted = True
                yield a, yexp, side
        if not emitted and u * (n - 1) >= qmax:
            return
        n += 1


_GENERIC_DENOM = (2, Fraction(1, 2), Fraction(1, 2))


def _quotient_factors(u: int, j: Fraction, k: Fraction, m: int,
                      qmax: Fraction, normalized: bool):
    """Factors of P_{j,k}^{(u)} / P_{1/2,1/2}^{(2)} at y -> q^m y with
    q-exponent below qmax: those of (u, j, k), then those of _GENERIC_DENOM
    with their side flipped, flips applied.

    Returns (factors, sign, qpref, ypref): the character (m = 0) or its flow
    by m is sign * q^qpref * y^ypref * prod (1 - q^a y^s)^side.
    """
    cc = central_charge(u)
    ypref = Fraction(j - k + 1, 1) / u
    if normalized:
        ypref += cc / 6
    # the q-prefactor, the y-prefactor hit by y -> q^m y, the flow factor
    qpref = Fraction(j * k, 1) / u + m * ypref + cc * m * m / 6
    ypref += Fraction(cc * m, 3)
    sign = 1
    factors = []
    for lab, flip in (((u, j, k), 1), (_GENERIC_DENOM, -1)):
        # a shifted exponent a + m * yexp with |yexp| <= 1 is below qmax only
        # if a < qmax + |m|; every flipped factor has a < |m|
        for a, yexp, side in _p_factors(*lab, qmax + abs(m)):
            side *= flip
            a += m * yexp
            if a < 0:
                # (1 - q^a y^s) = -q^a y^s (1 - q^{-a} y^{-s})
                sign = -sign
                qpref += side * a
                ypref += side * yexp
                a, yexp = -a, -yexp
            if a < qmax:
                factors.append((a, yexp, side))
    return factors, sign, qpref, ypref
