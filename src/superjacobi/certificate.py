"""All-index certificates for the super-Jacobi sweep and the realization check.

The sweep and the check run their own integer code, unchanged, on
:class:`IndexPoly` mode indices: once on each flat of the hyperplane
arrangement cut out by the index tests that code makes.  The module
docstring of ``superalgebra`` states the argument, the contract of the type
and the fallback to enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import add

from . import superalgebra as sa


class Undecided(TypeError):
    """An index comparison that the current flat does not decide."""


class IndexPoly:
    """A nonconstant polynomial over Z in the parameters of one flat.

    ``terms`` maps exponent tuples to nonzero ints.  An operation whose result
    is constant returns an int, so constants hash and compare as ints do.
    The truth value is True: the polynomial is not identically zero.  There is
    no ordering, no division and no conversion to int: each raises TypeError,
    as does an ``==`` the flat does not decide (Undecided).
    """

    __slots__ = ("terms", "flat", "_hash")

    def __init__(self, terms: dict, flat: Flat):
        self.terms, self.flat, self._hash = terms, flat, None

    def _merge(self, o, sign: int):
        """self + sign * o."""
        if type(o) is IndexPoly:
            t = o.terms
        elif isinstance(o, int):
            if not o:
                return self
            t = {self.flat.one: o}
        else:
            return NotImplemented
        out = dict(self.terms)
        for e, c in t.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
        return _poly(out, self.flat)

    def __add__(self, o):
        return self._merge(o, 1)

    __radd__ = __add__

    def __sub__(self, o):
        return self._merge(o, -1)

    def __rsub__(self, o):
        return -self + o

    def __neg__(self):
        return IndexPoly({e: -c for e, c in self.terms.items()}, self.flat)

    def __mul__(self, o):
        if type(o) is not IndexPoly:
            if not isinstance(o, int):
                return NotImplemented
            return IndexPoly({e: c * o for e, c in self.terms.items()},
                             self.flat) if o else 0
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        # a product of nonconstant polynomials over Z is nonconstant
        return IndexPoly({e: c for e, c in out.items() if c}, self.flat)

    __rmul__ = __mul__

    def __bool__(self):
        return True

    def __eq__(self, o):
        if type(o) is IndexPoly:
            if o.terms == self.terms:
                return True
        elif not isinstance(o, int):
            return NotImplemented
        d = self - o
        if type(d) is int:
            return not d
        if all(sum(e) == 1 for e in d.terms) and _primitive(d) in self.flat.forms:
            return False
        raise Undecided(f"{self!r} == {o!r} is not decided on this flat")

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __call__(self, *point: int) -> int:
        total = 0
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                c *= x ** k
            total += c
        return total

    def __repr__(self):
        return f"IndexPoly({self.terms})"


def _poly(terms: dict, flat: Flat):
    """The polynomial with these nonzero terms, as an int when it is constant."""
    if len(terms) > 1 or terms and flat.one not in terms:
        return IndexPoly(terms, flat)
    return terms.get(flat.one, 0)


def _primitive(p: IndexPoly) -> frozenset:
    """The terms of p over their gcd, signed so that the largest exponent
    tuple has a positive coefficient."""
    g = gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        g = -g
    return frozenset((e, c // g) for e, c in p.terms.items())


class Flat:
    """A flat of an arrangement of hyperplanes through 0 in index space.

    ``rows`` gives each index as its coefficients over the flat's parameters;
    ``indices`` are those indices as polynomials.  ``forms`` holds the
    arrangement's forms that do not vanish on the flat, made primitive: each
    is nonzero at every point of the flat that lies on no smaller flat.
    """

    def __init__(self, rows: tuple, arrangement: tuple):
        k = len(rows[0])
        self.one = (0,) * k
        units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        self.indices = tuple(_poly({u: c for u, c in zip(units, row) if c}, self)
                             for row in rows)
        restricted = (sum(a * x for a, x in zip(form, self.indices))
                      for form in arrangement)
        self.forms = {_primitive(f) for f in restricted if f}


# The Jacobiator of (a_m, b_n, c_p) tests m + n, n + p and p + m against 0 in
# its inner brackets and m + n + p in its outer ones.
JACOBI_FORMS = ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
# The 12 flats of that arrangement: (m, n, p) over each flat's parameters.
JACOBI_FLATS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),      # all of (m, n, p)
    ((1, 0), (-1, 0), (0, 1)),              # m + n = 0
    ((1, 0), (0, 1), (0, -1)),              # n + p = 0
    ((1, 0), (0, 1), (-1, 0)),              # p + m = 0
    ((1, 0), (0, 1), (-1, -1)),             # m + n + p = 0
    ((1,), (-1,), (1,)),                    # m + n = n + p = 0
    ((1,), (-1,), (-1,)),                   # m + n = p + m = 0
    ((1,), (1,), (-1,)),                    # n + p = p + m = 0
    ((1,), (-1,), (0,)),                    # m + n = p = 0
    ((0,), (1,), (-1,)),                    # n + p = m = 0
    ((1,), (0,), (-1,)),                    # p + m = n = 0
    ((), (), ()),                           # m = n = p = 0
)
# The realization check of (a_m, b_n) tests only m + n: two strata.
REALIZATION_FORMS = ((1, 1),)
REALIZATION_FLATS = (((1, 0), (0, 1)), ((1,), (-1,)))


def _slots(flat: Flat) -> list:
    """(key, parity) of the four families and C, for each index of the flat."""
    return [[(sa._key(e), e.parity)
             for e in [sa.BasisElt(f, i) for f in sa.FAMILIES] + [sa.C]]
            for i in flat.indices]


def _jacobi_vanishes(flat: Flat) -> bool:
    view = sa._SixView()
    slots_a, slots_b, slots_c = _slots(flat)
    for i, j, k in product(range(len(slots_a)), repeat=3):
        # the Jacobiator is a cyclic sum: (b, c, a) at (m, n, p) is (a, b, c)
        # at (p, m, n), so the least rotation of each triple suffices
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j):
            (ka, pa), (kb, pb), (kc, pc) = slots_a[i], slots_b[j], slots_c[k]
            if any(sa._jacobiator(view, ka, pa, kb, pb, kc, pc).values()):
                return False
    return True


def jacobi_holds() -> bool:
    """True when every Jacobiator vanishes identically on every flat, so the
    graded Jacobi identity holds at every index triple."""
    try:
        return all(_jacobi_vanishes(Flat(rows, JACOBI_FORMS))
                   for rows in JACOBI_FLATS)
    except (TypeError, AttributeError):     # refused, undecided or missing:
        return False                        # the enumeration decides


def _realization_stratum(flat: Flat) -> list | None:
    """(pair, 6 * central coefficient) for every pair of families on the
    stratum, in the check's order; None once a commutator differs from the
    table."""
    out = []
    rows = [[(e, sa._key(e), sa.realization(e))
             for e in (sa.BasisElt(f, i) for f in sa.FAMILIES)]
            for i in flat.indices]
    for a, ka, da in rows[0]:
        for b, kb, db in rows[1]:
            got, want, cpart = sa._realization_pair(ka, da, kb, db)
            if got != want:
                return None
            out.append((a.family + b.family, cpart))
    return out


def realization_kernel(box: range) -> list | None:
    """The realization check's central kernel over ``box``, when every
    commutator equals the table on both strata and no central term lies off
    the plane m + n = 0; else None."""
    try:
        generic, plane = (_realization_stratum(Flat(rows, REALIZATION_FORMS))
                          for rows in REALIZATION_FLATS)
    except (TypeError, AttributeError):     # refused, undecided or missing:
        return None                         # the enumeration decides
    if generic is None or plane is None or any(c for _, c in generic):
        return None
    kernel = []
    for pair, c in plane:
        for m in box:
            v = c(m) if isinstance(c, IndexPoly) else c
            if v:
                kernel.append((pair, m, -m, Fraction(v, 6)))
    return kernel
