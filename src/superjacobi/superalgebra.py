"""The Lie superalgebra W-hat(1|1): exact bracket table, super-Jacobi sweep,
the Virasoro embedding remark, and the vector-field realization.

Basis families L_n, J_n (even), H_n, Q_n (odd), central C: the modes of
the N=2 superconformal vertex algebra.  Its fields L, J, H, Q have
conformal weight w = 2, 1, 1, 2 and, for a before b in the order L, J, H, Q
(D = d/dz), the lambda-brackets

    [L_lambda X] = (D + w_X lambda) X, + (lambda^2/6) C if X = J
    [J_lambda J] = (lambda/3) C,  [J_lambda H] = -H,  [J_lambda Q] = Q
    [H_lambda Q] = L - lambda J + (lambda^2/6) C

With a_m = a_(p), p = m + w_a - 1, and b_n = b_(r), r = n + w_b - 1, a term
c lambda^k D^d Y (d = 0 or 1) of [a_lambda b] adds

    c p (p-1) ... (p-k+1) (-(p + r - k))^d  on Y_{m+n}, or on delta_{m,-n} C

to [a_m, b_n].  Hence

    [L_m, L_n] = (m-n) L_{m+n}
    [L_m, J_n] = -n J_{m+n} + delta_{m,-n} (m^2+m)/6 C
    [L_m, H_n] = -n H_{m+n}
    [L_m, Q_n] = (m-n) Q_{m+n}
    [J_m, J_n] = delta_{m,-n} (m/3) C
    [J_m, Q_n] = Q_{m+n}
    [J_m, H_n] = -H_{m+n}
    [H_m, Q_n] = L_{m+n} - m J_{m+n} + delta_{m,-n} (m^2-m)/6 C

with all other pairs zero and reversed ones by super-antisymmetry
[b, a] = -(-1)^{p(a)p(b)} [a, b].

The vector-field realization on C[z, 1/z] (x) /\\[theta] uses

    L_n = -z^{n+1} d_z - (n+1) z^n theta d_theta
    J_n = -z^n theta d_theta
    Q_n = -z^{n+1} d_theta
    H_n = z^n theta d_z

(H_n = z^n theta d_theta would duplicate -J_n and be even; parity and
[H, Q] force theta d_z, as realization_bracket_check shows.)

_table writes 6 [a, b] from _LAMBDA (6 [a_lambda b] over Z) by ring
operations on the indices alone, each C term at every index.  _entry adds
super-antisymmetry, and _six keeps the C term only where the int indices
satisfy m == -n.  bracket() divides by 6; the Jacobi sweep stays on the
integers, exact at scale 36, and divides back only a violating Jacobiator.
The realization is over Z; its check compares each commutator at scale 6
with _six.

Both checks hold for every index once certified.  certificate.py runs
_jacobiator and _realization_pair unchanged on free indices of type
IndexPoly, a polynomial over Z, in three passes over _entry:

* Jacobi off C, in (m, n, p): every non-C term vanishes identically.  A
  grading guard asks that each entry's elements, C excepted, carry its
  pair's index sum, so every outer element carries m + n + p and _six keeps
  every outer C term exactly on m + n + p = 0.
* Jacobi's C term, in (m, n) with p = -m - n: it vanishes identically.
* Realization, in (m, n): every commutator equals its entry without C.

The Jacobi passes take one family triple per rotation of the cyclic sum.
The type's contract:

* it has ring operations with ints, constants are ints, and its truth value
  is "not identically zero", which the code uses only to drop zero terms;
* ``==`` is True on equal polynomials and ``not d`` on a constant
  difference d, and raises otherwise; there is no ordering, no ``//`` and
  no ``int()``.

If all three passes hold, the report is built without enumeration: nothing
fails, and the central kernel is each entry's C coefficient at (v, -v) for
the v of the box.  Otherwise (a nonzero term, an ungraded element, or an
operation the type refuses) the box is enumerated, and that gives the
report.  The type cannot refuse two things, so table code must not do them:
branch on the truth value of an index, or look an element up among elements
of int index.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache


EVEN, ODD = 0, 1
_Family = namedtuple("_Family", "parity weight")
_FAMILY = {"L": _Family(EVEN, 2), "J": _Family(EVEN, 1), "H": _Family(ODD, 1),
           "Q": _Family(ODD, 2), "C": _Family(EVEN, 0)}
FAMILIES = ("L", "J", "H", "Q")
# 6 [a_lambda b]: (Y, c, k, d) per term c lambda^k D^d Y
_LAMBDA = {"LL": (("L", 6, 0, 1), ("L", 12, 1, 0)),
           "LJ": (("J", 6, 0, 1), ("J", 6, 1, 0), ("C", 1, 2, 0)),
           "LH": (("H", 6, 0, 1), ("H", 6, 1, 0)),
           "LQ": (("Q", 6, 0, 1), ("Q", 12, 1, 0)),
           "JJ": (("C", 2, 1, 0),), "JH": (("H", -6, 0, 0),),
           "JQ": (("Q", 6, 0, 0),),
           "HQ": (("L", 6, 0, 0), ("J", -6, 1, 0), ("C", 1, 2, 0))}


@cache
def _index_poly() -> type:
    """certificate.IndexPoly, imported at first use: superalgebra loads
    without certificate, and no IndexPoly exists before it loads."""
    from .certificate import IndexPoly
    return IndexPoly


class BasisElt(namedtuple("_BasisElt", "family index")):
    """A family and its mode index, an int or the certificate's free
    IndexPoly, C without one; hashed and compared in C."""
    __slots__ = ()

    def __new__(cls, family: str, index: int | None = None):
        if family not in _FAMILY:
            raise ValueError(f"unknown family {family}")
        if family == "C":
            if index is not None:
                raise ValueError("C carries no index")
        elif type(index) is not int and type(index) is not _index_poly():
            raise ValueError(f"{family} needs an int index, not {index!r}")
        return tuple.__new__(cls, (family, index))

    @property
    def parity(self) -> int:
        return _FAMILY[self.family].parity

    def __str__(self):
        return "C" if self.family == "C" else f"{self.family}[{self.index}]"


C = BasisElt("C")


def L(n: int) -> BasisElt:
    return BasisElt("L", n)


def J(n: int) -> BasisElt:
    return BasisElt("J", n)


def H(n: int) -> BasisElt:
    return BasisElt("H", n)


def Q(n: int) -> BasisElt:
    return BasisElt("Q", n)


class SuperLinComb:
    """Finite rational linear combination of basis elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[BasisElt, Fraction] | None = None):
        self.coeffs = {b: Fraction(c) for b, c in (coeffs or {}).items() if c}

    @classmethod
    def of(cls, *pairs) -> "SuperLinComb":
        d: dict[BasisElt, Fraction] = {}
        for c, b in pairs:
            d[b] = d.get(b, Fraction(0)) + Fraction(c)
        return cls(d)

    def __add__(self, other: "SuperLinComb") -> "SuperLinComb":
        d = dict(self.coeffs)
        for b, c in other.coeffs.items():
            d[b] = d.get(b, Fraction(0)) + c
        return SuperLinComb(d)

    def __sub__(self, other: "SuperLinComb") -> "SuperLinComb":
        return self + other.scale(-1)

    def scale(self, c) -> "SuperLinComb":
        c = Fraction(c)
        if c == 1:
            return self
        return SuperLinComb({b: v * c for b, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, SuperLinComb) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for b in sorted(self.coeffs):
            c = self.coeffs[b]
            bits.append(f"{c}*{b}" if c != 1 else str(b))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__

    def to_dict(self) -> dict:
        out = {}
        for b in sorted(self.coeffs):
            c = self.coeffs[b]
            key = "C" if b.family == "C" else f"{b.family}{b.index}"
            out[key] = str(c)
        return out


def _table(a: BasisElt, b: BasisElt):
    """6 [a, b] in table order by the mode formula: ((element, coefficient),
    ...) without zero terms, the C term at every index; None off the table."""
    fa, fb = a.family, b.family
    if FAMILIES.index(fa) > FAMILIES.index(fb):
        return None
    p = a.index + (_FAMILY[fa].weight - 1)
    r = b.index + (_FAMILY[fb].weight - 1)
    out = {}
    for y, c, k, d in _LAMBDA.get(fa + fb, ()):
        for j in range(k):
            c = c * (p - j)
        if d:
            c = -c * (p + r - k)
        out[y] = out.get(y, 0) + c
    return tuple((C if y == "C" else BasisElt(y, a.index + b.index), c)
                 for y, c in out.items() if c)


def _entry(a: BasisElt, b: BasisElt):
    """6 [a, b] for any elements, with its C term at every index: the table
    entry, or super-antisymmetry on it."""
    if "C" in (a.family, b.family):
        return ()
    v = _table(a, b)
    if v is not None:
        return v
    odd = a.parity and b.parity
    return tuple((e, c if odd else -c) for e, c in _table(b, a))


def _six(a: BasisElt, b: BasisElt):
    """6 [a, b] at int indices: _entry, its C term kept only on m + n = 0."""
    v = _entry(a, b)
    if not v or a.index == -b.index:
        return v
    return tuple(t for t in v if t[0] != C)


def _comb(scaled, scale: int) -> SuperLinComb:
    """The combination of the (element, scale * coefficient) pairs ``scaled``;
    as in _jacobiator, repeated elements add up."""
    return SuperLinComb.of(*((Fraction(v, scale), e) for e, v in scaled))


def bracket(a: BasisElt, b: BasisElt) -> SuperLinComb:
    """Super-bracket of two basis elements, by _table and super-antisymmetry."""
    return _comb(_six(a, b), 6)


def bracket_comb(x: SuperLinComb, y: SuperLinComb) -> SuperLinComb:
    acc: dict[BasisElt, Fraction] = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            c = ca * cb
            for e, v in bracket(a, b).coeffs.items():
                acc[e] = acc.get(e, 0) + c * v
    return SuperLinComb(acc)


class _SixView(dict):
    """6 [a, b] as ((element, int), ...) at int indices, built on first use."""

    def __missing__(self, pair):
        out = self[pair] = _six(*pair)
        return out


@dataclass
class SweepReport:
    checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"checked": self.checked, "passed": self.passed,
                "violations": [str(v) for v in self.violations[:20]]}


def _jacobiator(view: _SixView, a: BasisElt, b: BasisElt, c: BasisElt) -> dict:
    """36 times the graded Jacobiator of a, b, c, as a map from element to
    coefficient (zero ones included)."""
    total: dict = {}
    for x, inner, odd in ((a, view[b, c], a.parity and c.parity),
                          (b, view[c, a], b.parity and a.parity),
                          (c, view[a, b], c.parity and b.parity)):
        for e, v in inner:
            v = -v if odd else v
            for f, w in view[x, e]:
                total[f] = total.get(f, 0) + v * w
    return total


def super_jacobi_check(max_index: int) -> SweepReport:
    """Graded Jacobi identity over all ordered triples from the four families
    with |index| <= max_index, plus C (whose triples are trivially zero):

        (-1)^{p(a)p(c)}[a,[b,c]] + (-1)^{p(b)p(a)}[b,[c,a]]
                                 + (-1)^{p(c)p(b)}[c,[a,b]] = 0.

    A certified table passes for every index at once; otherwise every
    triple of the box is enumerated.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    from . import certificate
    elts = [BasisElt(f, n) for f in FAMILIES
            for n in range(-max_index, max_index + 1)] + [C]
    if certificate.jacobi_holds():
        return SweepReport(len(elts) ** 3, [])
    view = _SixView()
    violations = []
    for a in elts:
        for b in elts:
            for c in elts:
                total = _jacobiator(view, a, b, c)
                if any(total.values()):
                    violations.append((a, b, c, _comb(total.items(), 36)))
    return SweepReport(len(elts) ** 3, violations)


def virasoro_map_check(max_index: int, naive: bool) -> SweepReport:
    """Check whether L_n -> image(L_n), C -> C embeds the Virasoro algebra.

    naive=True uses image(L_n) = L_n (must fail, e.g. at (2, -2) where the
    discrepancy is exactly C/2); naive=False uses L_n - (n+1)/2 J_n (passes).
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")

    def image(n: int) -> SuperLinComb:
        if naive:
            return SuperLinComb.of((1, L(n)))
        return SuperLinComb.of((1, L(n)), (Fraction(-(n + 1), 2), J(n)))

    violations = []
    checked = 0
    for m in range(-max_index, max_index + 1):
        for n in range(-max_index, max_index + 1):
            checked += 1
            got = bracket_comb(image(m), image(n))
            want = image(m + n).scale(m - n)
            if m == -n:
                want = want + SuperLinComb.of((Fraction(m ** 3 - m, 12), C))
            if got != want:
                violations.append(((m, n), got - want))
    return SweepReport(checked, violations)


# -- vector-field realization ---------------------------------------------------

class SuperPoly:
    """Element of C[z, 1/z] (x) /\\[theta]: even part + theta * odd part."""

    __slots__ = ("ev", "od")

    def __init__(self, ev: dict[int, int | Fraction] | None = None,
                 od: dict[int, int | Fraction] | None = None):
        self.ev = {e: c for e, c in (ev or {}).items() if c}
        self.od = {e: c for e, c in (od or {}).items() if c}

    def __add__(self, o: "SuperPoly") -> "SuperPoly":
        ev, od = dict(self.ev), dict(self.od)
        _add_shifted(ev, o.ev, 0, 1)
        _add_shifted(od, o.od, 0, 1)
        return SuperPoly(ev, od)

    def scale(self, c) -> "SuperPoly":
        return SuperPoly({e: v * c for e, v in self.ev.items()},
                         {e: v * c for e, v in self.od.items()})

    def __eq__(self, o) -> bool:
        return isinstance(o, SuperPoly) and self.ev == o.ev and self.od == o.od


@dataclass(frozen=True)
class SuperDerivation:
    """Derivation given by the images of the generators z and theta.

    ``z_image``/``theta_image`` are D(z) and D(theta); parity is 0 or 1.
    ``apply`` extends them by the Leibniz rule

        D(z^p)       = p z^{p-1} D(z)
        D(z^p theta) = p z^{p-1} D(z)_even theta + z^p D(theta)

    where D(z)_even is the theta-free part of D(z): z^p is even, so no
    Koszul sign appears, and theta^2 = 0 kills the theta part of D(z).
    """
    z_image: SuperPoly
    theta_image: SuperPoly
    parity: int

    def apply(self, x: SuperPoly) -> SuperPoly:
        ev, od = {}, {}
        _add_applied(ev, od, self, x, 1)
        return SuperPoly(ev, od)


def _add_applied(ev: dict, od: dict, d: SuperDerivation, x: SuperPoly, c) -> None:
    """Add c * d(x) into the parts ``ev``, ``od`` by the Leibniz rule above."""
    zi, ti = d.z_image, d.theta_image
    for p, v in x.ev.items():
        _add_shifted(ev, zi.ev, p - 1, c * p * v)
        _add_shifted(od, zi.od, p - 1, c * p * v)
    for p, v in x.od.items():
        _add_shifted(od, zi.ev, p - 1, c * p * v)
        _add_shifted(ev, ti.ev, p, c * v)
        _add_shifted(od, ti.od, p, c * v)


def _add_shifted(acc: dict, src: dict, shift: int, c) -> None:
    """Add c * z^shift * src into ``acc`` (maps from z-exponent to coefficient)."""
    for e, v in src.items():
        acc[e + shift] = acc.get(e + shift, 0) + c * v


def realization(elt: BasisElt) -> SuperDerivation:
    n = elt.index
    if elt.family == "L":
        return SuperDerivation(SuperPoly({n + 1: -1}, {}),
                               SuperPoly({}, {n: -(n + 1)}), EVEN)
    if elt.family == "J":
        return SuperDerivation(SuperPoly(), SuperPoly({}, {n: -1}), EVEN)
    if elt.family == "Q":
        return SuperDerivation(SuperPoly(), SuperPoly({n + 1: -1}, {}), ODD)
    if elt.family == "H":
        return SuperDerivation(SuperPoly({}, {n: 1}), SuperPoly(), ODD)
    raise ValueError(f"no realization for {elt}")


def _commutator_images(d1: SuperDerivation, d2: SuperDerivation) -> tuple[SuperPoly, SuperPoly]:
    """Images of z and theta under [d1, d2] = d1 d2 - (-1)^{p1 p2} d2 d1."""
    sign = 1 if (d1.parity and d2.parity) else -1     # -(-1)^{p1 p2}
    zev, zod, tev, tod = {}, {}, {}, {}
    _add_applied(zev, zod, d1, d2.z_image, 1)
    _add_applied(zev, zod, d2, d1.z_image, sign)
    _add_applied(tev, tod, d1, d2.theta_image, 1)
    _add_applied(tev, tod, d2, d1.theta_image, sign)
    return SuperPoly(zev, zod), SuperPoly(tev, tod)


def _identify(z_img: SuperPoly, th_img: SuperPoly) -> dict:
    """Write a derivation given by generator images at scale 6 on elements.

    z-image even part  sum -c z^{n+1}  -> c L_n;   odd part  c z^n theta -> c H_n
    theta-image even   sum -c z^{n+1}  -> c Q_n;   odd part -c z^n theta -> c J_n
    then the J-coefficients are corrected for the theta d_theta part of L_n.
    """
    out: dict[BasisElt, int | Fraction] = {}
    for fam, img, shift, six in (("L", z_img.ev, 1, -6), ("H", z_img.od, 0, 6),
                                 ("Q", th_img.ev, 1, -6)):
        for e, c in img.items():
            out[BasisElt(fam, e - shift)] = six * c
    # theta-image odd part collects -J_n and the theta-d_theta part of L_n:
    # coefficient of z^e theta is -(e+1) c^L_e - c^J_e
    for e in set(th_img.od) | {e - 1 for e in z_img.ev}:
        val = -6 * th_img.od.get(e, 0) - out.get(L(e), 0) * (e + 1)
        if val:
            out[J(e)] = val
    return out


@dataclass
class RealizationReport:
    checked: int
    mismatches: list
    central_kernel: list

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {"checked": self.checked, "passed": self.passed,
                "mismatches": [str(m) for m in self.mismatches[:20]],
                "centralKernel": [
                    {"pair": pair, "indices": [m, n], "coefficient": str(c)}
                    for (pair, m, n, c) in self.central_kernel]}


def _realization_pair(entry, da: SuperDerivation, db: SuperDerivation):
    """(commutator of da and db, the table entry ``entry`` of their elements
    without C, its C coefficient), at scale 6."""
    got = _identify(*_commutator_images(da, db))
    # as in _jacobiator: repeated elements add up and zero coefficients drop
    want: dict = {}
    for e, c in entry:
        want[e] = want.get(e, 0) + c
    want = {e: c for e, c in want.items() if c}
    return got, want, want.pop(C, 0)


def realization_bracket_check(max_index: int) -> RealizationReport:
    """Compare vector-field commutators with the abstract table (C -> 0),
    for every pair of basis elements with indices in [-max_index, max_index].

    Relations with m + n != 0 must match exactly; for m + n = 0 the
    difference is the central term, reported with its cocycle coefficient.
    A certified realization passes for every index at once; otherwise every
    pair of the box is enumerated.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    from . import certificate
    idx = range(-max_index, max_index + 1)
    rows = [[BasisElt(f, n) for n in idx] for f in FAMILIES]
    checked = sum(map(len, rows)) ** 2
    kernel = certificate.realization_kernel(idx)
    if kernel is not None:
        return RealizationReport(checked, [], kernel)
    ds = {e: realization(e) for row in rows for e in row}
    mismatches, central = [], []
    for row_a in rows:          # family pairs outermost: centralKernel's order
        for row_b in rows:
            for a in row_a:
                for b in row_b:
                    got, want, cpart = _realization_pair(_six(a, b), ds[a],
                                                         ds[b])
                    if got != want:
                        mismatches.append((a, b, _comb(got.items(), 6),
                                           _comb(want.items(), 6)))
                    elif cpart:
                        central.append((a.family + b.family, a.index, b.index,
                                        Fraction(cpart, 6)))
    return RealizationReport(checked, mismatches, central)
