"""All-index certificates for the super-Jacobi sweep and the realization check.

The sweep and the check run their own integer code, unchanged, on free
:class:`IndexPoly` mode indices, in three passes over the table entries
with their C terms at every index.  The module docstring of
``superalgebra`` states the argument, the contract of the type and the
fallback to enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add

from . import superalgebra as sa


class Undecided(TypeError):
    """An index comparison whose answer depends on the point."""


class Ungraded(TypeError):
    """A table entry whose element does not carry its pair's index sum."""


class IndexPoly:
    """A nonconstant polynomial over Z in free index variables.

    ``terms`` maps exponent tuples to nonzero ints.  An operation whose result
    is constant returns an int, so constants hash and compare as ints do.
    The truth value is True: the polynomial is not identically zero.  There is
    no ordering, no division and no conversion to int: each raises TypeError,
    as does an ``==`` whose answer depends on the point (Undecided).
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms, self._hash = terms, None

    def _merge(self, o, sign: int):
        """self + sign * o."""
        if type(o) is IndexPoly:
            t = o.terms
        elif isinstance(o, int):
            if not o:
                return self
            t = {(0,) * len(next(iter(self.terms))): o}
        else:
            return NotImplemented
        out = dict(self.terms)
        for e, c in t.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
        return _poly(out)

    def __add__(self, o):
        return self._merge(o, 1)

    __radd__ = __add__

    def __sub__(self, o):
        return self._merge(o, -1)

    def __rsub__(self, o):
        return -self + o

    def __neg__(self):
        return IndexPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, o):
        if type(o) is not IndexPoly:
            if not isinstance(o, int):
                return NotImplemented
            if not o:
                return 0
            return IndexPoly({e: c * o for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        # a product of nonconstant polynomials over Z is nonconstant
        return IndexPoly({e: c for e, c in out.items() if c})

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
        raise Undecided(f"{self!r} == {o!r} depends on the point")

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


def _poly(terms: dict):
    """The polynomial with these nonzero terms, as an int when it is constant."""
    if len(terms) == 1:
        (e, c), = terms.items()
        if not any(e):
            return c
    return IndexPoly(terms) if terms else 0


def variables(k: int) -> tuple:
    """k free index variables, as polynomials in k variables."""
    return tuple(IndexPoly({tuple(int(i == j) for i in range(k)): 1})
                 for j in range(k))


class _GradedView(dict):
    """_entry of a pair of elements, built on first use, refused (Ungraded)
    when an element of it other than C does not carry the index sum of the
    pair."""

    def __missing__(self, pair):
        a, b = pair
        out = sa._entry(a, b)
        for e, _ in out:
            if e != sa.C and not e.index == a.index + b.index:
                raise Ungraded(f"[{a}, {b}] has term {e}")
        self[pair] = out
        return out


def _jacobiators(indices: tuple):
    """36 times the graded Jacobiator of each family triple, C included, at
    the indices (m, n, p), one triple per cyclic rotation."""
    view = _GradedView()
    a, b, c = ([sa.BasisElt(f, i) for f in sa.FAMILIES] + [sa.C]
               for i in indices)
    for i, j, k in product(range(len(a)), repeat=3):
        # the Jacobiator is a cyclic sum: (b, c, a) at (m, n, p) is (a, b, c)
        # at (p, m, n), and each pass's index set is closed under rotation
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j):
            yield sa._jacobiator(view, a[i], b[j], c[k])


def jacobi_holds() -> bool:
    """True when every Jacobiator vanishes off C in free (m, n, p) and on C
    over m + n + p = 0, so the graded Jacobi identity holds at every index
    triple."""
    m, n = variables(2)
    try:
        return (not any(c for total in _jacobiators(variables(3))
                        for e, c in total.items() if e != sa.C)
                and not any(total.get(sa.C)
                            for total in _jacobiators((m, n, -m - n))))
    except (TypeError, AttributeError):     # refused, undecided or missing:
        return False                        # the enumeration decides


def realization_kernel(box: range) -> list | None:
    """The realization check's central kernel over ``box``, when every
    commutator in free (m, n) equals its table entry without C; else None."""
    kernel = []
    try:
        rows = [[(e, sa.realization(e))
                 for e in (sa.BasisElt(f, i) for f in sa.FAMILIES)]
                for i in variables(2)]
        for a, da in rows[0]:
            for b, db in rows[1]:
                got, want, c = sa._realization_pair(sa._entry(a, b), da, db)
                if got != want:
                    return None
                for v in box:
                    cv = c(v, -v) if isinstance(c, IndexPoly) else c
                    if cv:
                        kernel.append((a.family + b.family, v, -v,
                                       Fraction(cv, 6)))
    except (TypeError, AttributeError):     # refused, undecided or missing:
        return None                         # the enumeration decides
    return kernel
