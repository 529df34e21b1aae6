import copy
import pickle
import random
from fractions import Fraction
from math import comb

import pytest

from superjacobi import certificate, superalgebra
from superjacobi.certificate import IndexPoly, Undecided, variables
from superjacobi.superalgebra import (C, EVEN, FAMILIES, H, J, L, Q, BasisElt,
                                      SuperDerivation, SuperLinComb, SuperPoly,
                                      _commutator_images, _SixView,
                                      bracket, bracket_comb, realization,
                                      realization_bracket_check,
                                      super_jacobi_check, virasoro_map_check)

F = Fraction


def test_bracket_table_examples():
    assert bracket(L(2), L(-1)) == SuperLinComb.of((3, L(1)))
    assert bracket(J(1), J(-1)) == SuperLinComb.of((F(1, 3), C))
    assert bracket(H(1), Q(-1)) == SuperLinComb.of((1, L(0)), (-1, J(0)))
    assert bracket(L(2), J(-2)) == SuperLinComb.of((2, J(0)), (1, C))
    assert bracket(L(1), H(2)) == SuperLinComb.of((-2, H(3)))
    assert bracket(J(2), Q(3)) == SuperLinComb.of((1, Q(5)))
    assert bracket(J(1), H(1)) == SuperLinComb.of((-1, H(2)))


def test_basis_elements_copy_and_pickle():
    assert copy.copy(L(1)) == copy.deepcopy(L(1)) == L(1)
    for e in (C, Q(-2)):
        back = pickle.loads(pickle.dumps(e))
        assert back == e and type(back) is BasisElt and back.parity == e.parity
    comb = bracket(H(1), Q(-1))
    assert copy.deepcopy(comb) == comb
    assert repr(Q(-2)) == "BasisElt(family='Q', index=-2)"
    with pytest.raises(ValueError, match="unknown family"):
        BasisElt("X", 1)


# -- the integer table against the Fraction table it replaced -------------------

def _fraction_table(a: BasisElt, b: BasisElt) -> SuperLinComb | None:
    """[a, b] over Q for the canonical family order; None if not a table pair."""
    m, n = a.index, b.index
    fa, fb = a.family, b.family
    if fa == "L" and fb == "L":
        return SuperLinComb.of((m - n, L(m + n)))
    if fa == "L" and fb == "J":
        out = SuperLinComb.of((-n, J(m + n)))
        if m == -n:
            out = out + SuperLinComb.of((F(m * m + m, 6), C))
        return out
    if fa == "L" and fb == "H":
        return SuperLinComb.of((-n, H(m + n)))
    if fa == "L" and fb == "Q":
        return SuperLinComb.of((m - n, Q(m + n)))
    if fa == "J" and fb == "J":
        return SuperLinComb.of((F(m, 3), C)) if m == -n else SuperLinComb()
    if fa == "J" and fb == "Q":
        return SuperLinComb.of((1, Q(m + n)))
    if fa == "J" and fb == "H":
        return SuperLinComb.of((-1, H(m + n)))
    if fa == "H" and fb == "Q":
        out = SuperLinComb.of((1, L(m + n)), (-m, J(m + n)))
        if m == -n:
            out = out + SuperLinComb.of((F(m * m - m, 6), C))
        return out
    if fa == fb and fa in ("H", "Q"):
        return SuperLinComb()
    return None


def _fraction_bracket(a: BasisElt, b: BasisElt) -> SuperLinComb:
    """The table above, with C central and super-antisymmetry for reversed pairs."""
    if a.family == "C" or b.family == "C":
        return SuperLinComb()
    v = _fraction_table(a, b)
    if v is not None:
        return v
    sign = -1 if (a.parity and b.parity) else 1
    return _fraction_table(b, a).scale(-sign)


def test_bracket_matches_fraction_table():
    elts = [BasisElt(f, n) for f in FAMILIES for n in range(-12, 13)] + [C]
    for a in elts:
        for b in elts:
            assert bracket(a, b) == _fraction_bracket(a, b), (a, b)


def test_bracket_zero_pairs():
    assert bracket(L(1), C).is_zero()
    assert bracket(C, Q(2)).is_zero()
    assert bracket(H(1), H(-1)).is_zero()
    assert bracket(Q(3), Q(-3)).is_zero()


def test_anti_supersymmetry():
    for fa in FAMILIES:
        for fb in FAMILIES:
            for m in range(-3, 4):
                for n in range(-3, 4):
                    a, b = BasisElt(fa, m), BasisElt(fb, n)
                    sign = -1 if (a.parity and b.parity) else 1
                    assert bracket(b, a) == bracket(a, b).scale(-sign)


def test_jacobi_triple_example():
    # (L1, H0, Q-1) cycles to zero; signs (-1)^{p(a)p(c)} etc. are +, +, -
    a, b, c = L(1), H(0), Q(-1)
    from superjacobi.superalgebra import bracket_comb
    total = (bracket_comb(SuperLinComb.of((1, a)), bracket(b, c))
             + bracket_comb(SuperLinComb.of((1, b)), bracket(c, a))
             + bracket_comb(SuperLinComb.of((1, c)), bracket(a, b)).scale(-1))
    assert total.is_zero()


def test_witt_triples():
    rep = super_jacobi_check(3)
    assert rep.passed


def test_jacobi_sweep_m6():
    rep = super_jacobi_check(6)
    assert rep.passed
    assert rep.checked == (4 * 13 + 1) ** 3


def test_virasoro_corrected_examples():
    # (1,-1): [L1 - J1, L-1] = 2 L0 - J0
    img1 = SuperLinComb.of((1, L(1)), (-1, J(1)))
    imgm1 = SuperLinComb.of((1, L(-1)), (0, J(-1)))
    from superjacobi.superalgebra import bracket_comb
    got = bracket_comb(img1, imgm1)
    assert got == SuperLinComb.of((2, L(0)), (-1, J(0)))
    rep = virasoro_map_check(6, naive=False)
    assert rep.passed


def test_virasoro_naive_fails_at_2_m2():
    rep = virasoro_map_check(6, naive=True)
    assert not rep.passed
    failing = {mn: diff for mn, diff in rep.violations}
    assert (2, -2) in failing
    # got - want = -C/2: the discrepancy is exactly C/2
    assert failing[(2, -2)] == SuperLinComb.of((F(-1, 2), C))


def test_realization_h0_q0_on_theta():
    # {H0, Q0} applied to theta matches L0(theta) = -theta
    from superjacobi.superalgebra import SuperPoly, _commutator_images
    za, ta = _commutator_images(realization(H(0)), realization(Q(0)))
    assert ta == SuperPoly({}, {0: F(-1)})
    l0_theta = realization(L(0)).apply(SuperPoly({}, {0: F(1)}))
    assert l0_theta == SuperPoly({}, {0: F(-1)})


def test_realization_jq_window():
    rep = realization_bracket_check(3)
    assert rep.passed


def test_realization_full_and_cocycle_values():
    rep = realization_bracket_check(5)
    assert rep.passed
    cocycle = {}
    for pair, m, n, c in rep.central_kernel:
        cocycle[(pair, m)] = c
    for m in range(-5, 6):
        if m != 0:
            lj = F(m * m + m, 6)
            if lj:
                assert cocycle.get(("LJ", m), F(0)) == lj
            jj = F(m, 3)
            assert cocycle.get(("JJ", m), F(0)) == jj
            hq = F(m * m - m, 6)
            if hq:
                assert cocycle.get(("HQ", m), F(0)) == hq


@pytest.mark.parametrize("check", [
    realization_bracket_check,
    lambda m: virasoro_map_check(m, naive=True),
    lambda m: virasoro_map_check(m, naive=False),
    super_jacobi_check,
], ids=["realization", "virasoro_naive", "virasoro", "jacobi"])
@pytest.mark.parametrize("max_index", [0, -1])
def test_empty_sweeps_are_rejected(check, max_index):
    # a sweep over no elements would report passed without checking anything
    with pytest.raises(ValueError, match="max_index must be >= 1"):
        check(max_index)


# -- the table from its N=2 data ------------------------------------------------

def _ten_branch_table(a: BasisElt, b: BasisElt):
    """The scale-6 table as it was written before the N=2 data: one branch of
    index formulas per table pair."""
    m, n = a.index, b.index
    s = m + n
    pair = a.family + b.family
    if pair == "LL":
        out = ((L(s), 6 * (m - n)),)
    elif pair == "LJ":
        out = ((J(s), -6 * n), (C, m * m + m))
    elif pair == "LH":
        out = ((H(s), -6 * n),)
    elif pair == "LQ":
        out = ((Q(s), 6 * (m - n)),)
    elif pair == "JJ":
        out = ((C, 2 * m),)
    elif pair == "JQ":
        out = ((Q(s), 6),)
    elif pair == "JH":
        out = ((H(s), -6),)
    elif pair == "HQ":
        out = ((L(s), 6), (J(s), -6 * m), (C, m * m - m))
    elif pair in ("HH", "QQ"):
        out = ()
    else:
        return None
    return tuple(t for t in out if t[1])


def test_table_is_the_n2_data_at_every_index():
    # conformal weights of L, J, H, Q, J_0 charges (the constant term of
    # [J_lambda X] on X), and the table they generate equals the per-pair
    # formulas as polynomials in free (m, n)
    data = superalgebra._FAMILY
    assert {f: data[f].weight for f in FAMILIES} == {
        "L": 2, "J": 1, "H": 1, "Q": 2}
    assert {f: F(sum(c for y, c, k, d in superalgebra._LAMBDA["J" + f]
                     if (y, k, d) == (f, 0, 0)), 6)
            for f in ("J", "H", "Q")} == {"J": 0, "H": -1, "Q": 1}
    m, n = variables(2)
    for fa in FAMILIES:
        for fb in FAMILIES:
            a, b = BasisElt(fa, m), BasisElt(fb, n)
            assert superalgebra._table(a, b) == _ten_branch_table(a, b), (a, b)


def _plus_one(family):
    # the conformal weight plus 1, which moves the family's mode shift
    def mutate(monkeypatch):
        data = superalgebra._FAMILY[family]
        monkeypatch.setitem(superalgebra._FAMILY, family,
                            data._replace(weight=data.weight + 1))
    return mutate


def _term_plus_one(pair, i):
    # the coefficient of the i-th term of 6 [a_lambda b] plus 1: for a C term,
    # lambda^2/6 -> lambda^2/3 in [L_lambda J] and [H_lambda Q], lambda/3 ->
    # lambda/2 in [J_lambda J]
    def mutate(monkeypatch):
        terms = list(superalgebra._LAMBDA[pair])
        y, c, k, d = terms[i]
        terms[i] = (y, c + 1, k, d)
        monkeypatch.setitem(superalgebra._LAMBDA, pair, tuple(terms))
    return mutate


def _j_charge_one(monkeypatch):
    # q_J = 1: the term J of [J_lambda J], at scale 6
    monkeypatch.setitem(superalgebra._LAMBDA, "JJ",
                        superalgebra._LAMBDA["JJ"] + (("J", 6, 0, 0),))


def _term_id(pair, y, k, d):
    # c_ names a central term, q_ a J_0 charge, and l and D mark lambda and D
    if y == "C":
        return f"c_{pair}"
    if pair[0] == "J":
        return f"q_{y}"
    return f"{pair}_{'l' * k}{'D' * d}{y}"


_DATA_MUTANTS = {**{f"w_{f}": _plus_one(f) for f in FAMILIES},
                 **{_term_id(p, y, k, d): _term_plus_one(p, i)
                    for p, terms in superalgebra._LAMBDA.items()
                    for i, (y, _, k, d) in enumerate(terms)},
                 "q_J": _j_charge_one}


@pytest.mark.parametrize("datum", list(_DATA_MUTANTS))
def test_every_datum_is_pinned(monkeypatch, datum):
    # the Jacobi certificate and sweep catch every mutant; the realization
    # sends C to 0, so it catches the weights and charges but no central term
    _DATA_MUTANTS[datum](monkeypatch)
    assert not certificate.jacobi_holds()
    assert super_jacobi_check(2).violations
    central = datum.startswith("c_")
    assert (certificate.realization_kernel(range(-2, 3)) is not None) == central
    assert realization_bracket_check(2).passed == central


def _skew(terms, odd):
    """[b_lambda a] from the terms (Y, c, k, d), c lambda^k D^d Y, of
    [a_lambda b]: -(-1)^{p(a)p(b)} [a_{-lambda-D} b], D acting on the output
    field and D C = 0."""
    sign = 1 if odd else -1
    out = []
    for y, c, k, d in terms:
        # (-lambda - D)^k = (-1)^k sum_j C(k, j) lambda^(k-j) D^j
        for j in range(k + 1):
            if y != "C" or j + d == 0:
                out.append((y, sign * (-1) ** k * comb(k, j) * c, k - j, j + d))
    return out


def _collected(terms) -> dict:
    out = {}
    for y, c, k, d in terms:
        out[y, k, d] = out.get((y, k, d), 0) + c
    return {key: c for key, c in out.items() if c}


def _falling(x, k):
    out = 1
    for j in range(k):
        out = out * (x - j)
    return out


def _mode_bracket(fa, fb, terms, m, n) -> dict:
    """6 [a_m, b_n] from the terms of 6 [a_lambda b], for any power D^d:
    a_m = a_(p), b_n = b_(r), and c lambda^k D^d Y gives c p(p-1)...(p-k+1)
    times (D^d Y)_(s) = (-1)^d s(s-1)...(s-d+1) Y_(s-d), s = p + r - k."""
    weight = {"L": 2, "J": 1, "H": 1, "Q": 2}
    p, r = m + weight[fa] - 1, n + weight[fb] - 1
    out = {}
    for y, c, k, d in terms:
        e = C if y == "C" else BasisElt(y, m + n)
        v = c * _falling(p, k) * (-1) ** d * _falling(p + r - k, d)
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def test_sixteen_lambda_brackets_generate_the_entries():
    # the eight lambda-brackets of the table, the eight reversed ones by
    # skew-symmetry ([L_lambda L] and [J_lambda J] must reproduce themselves),
    # and [H_lambda H] = [Q_lambda Q] = 0; the mode formula on each gives
    # _entry, off C at free (m, n) and its C term on n = -m
    data = superalgebra._LAMBDA
    brackets = {fa + fb: data.get(fa + fb, ()) for i, fa in enumerate(FAMILIES)
                for fb in FAMILIES[i:]}
    for pair, terms in data.items():
        rev = _skew(terms, pair[0] in "HQ" and pair[1] in "HQ")
        if pair[::-1] == pair:
            assert _collected(rev) == _collected(terms), pair
        brackets[pair[::-1]] = rev
    assert len(brackets) == 16
    # [Q_lambda H] = L + (D + lambda) J + (lambda^2/6) C
    assert _collected(brackets["QH"]) == {("L", 0, 0): 6, ("J", 1, 0): 6,
                                          ("J", 0, 1): 6, ("C", 2, 0): 1}
    m, n = variables(2)
    v, = variables(1)
    for (fa, fb), terms in brackets.items():
        got = dict(superalgebra._entry(BasisElt(fa, m), BasisElt(fb, n)))
        want = _mode_bracket(fa, fb, terms, m, n)
        got.pop(C, 0)
        want.pop(C, 0)
        assert got == want, (fa, fb)
        got = dict(superalgebra._entry(BasisElt(fa, v), BasisElt(fb, -v)))
        want = _mode_bracket(fa, fb, terms, v, -v)
        assert got.get(C, 0) == want.get(C, 0), (fa, fb)


# -- negative controls: the sweeps can fail -------------------------------------

_JJ, _JQ = "JJ", "JQ"                     # families of the table pairs


def test_jacobi_sweep_detects_corrupted_table(monkeypatch):
    table = superalgebra._table

    def wrong_jq_sign(a, b):
        v = table(a, b)
        return _negated(v) if a.family + b.family == _JQ else v

    monkeypatch.setattr(superalgebra, "_table", wrong_jq_sign)
    rep = super_jacobi_check(1)
    assert rep.checked == 13 ** 3
    assert not rep.passed
    totals = {(a, b, c): t for a, b, c, t in rep.violations}
    # [J0,[H0,Q0]] = 0, [H0,[Q0,J0]] = [H0,Q0] = L0 and -[Q0,[J0,H0]] = L0,
    # where the true table gives -L0 for the middle term
    assert totals[(J(0), H(0), Q(0))] == SuperLinComb.of((2, L(0)))


def test_realization_check_detects_theta_dtheta_h(monkeypatch):
    true_realization = superalgebra.realization

    def h_as_theta_dtheta(elt):
        if elt.family == "H":
            # z^n theta d_theta: z -> 0, theta -> z^n theta (an even field)
            return SuperDerivation(SuperPoly(), SuperPoly({}, {elt.index: 1}),
                                   EVEN)
        return true_realization(elt)

    monkeypatch.setattr(superalgebra, "realization", h_as_theta_dtheta)
    rep = realization_bracket_check(2)
    assert not rep.passed
    got = {(a, b): (g, w) for a, b, g, w in rep.mismatches}
    # [theta d_theta, -z d_theta] sends theta to z, which reads as -Q0
    assert got[(H(0), Q(0))] == (SuperLinComb.of((-1, Q(0))),
                                 SuperLinComb.of((1, L(0))))
    assert all(a.family == "H" or b.family == "H" for a, b in got)


# -- the in-place kernels against the composed-object originals -----------------

def _old_even_monomial(d: SuperDerivation, p: int) -> SuperPoly:
    out = SuperPoly()
    if p == 0:
        return out
    for e, c in d.z_image.ev.items():
        out.ev[e + p - 1] = out.ev.get(e + p - 1, Fraction(0)) + p * c
    for e, c in d.z_image.od.items():
        out.od[e + p - 1] = out.od.get(e + p - 1, Fraction(0)) + p * c
    return SuperPoly(out.ev, out.od)


def _old_odd_monomial(d: SuperDerivation, p: int) -> SuperPoly:
    out = SuperPoly()
    for e, c in _old_even_monomial(d, p).ev.items():
        out.od[e] = out.od.get(e, Fraction(0)) + c
    for e, c in d.theta_image.ev.items():
        out.ev[e + p] = out.ev.get(e + p, Fraction(0)) + c
    for e, c in d.theta_image.od.items():
        out.od[e + p] = out.od.get(e + p, Fraction(0)) + c
    return SuperPoly(out.ev, out.od)


def _old_apply(d: SuperDerivation, x: SuperPoly) -> SuperPoly:
    out = SuperPoly()
    for p, c in x.ev.items():
        out = out + _old_even_monomial(d, p).scale(c)
    for p, c in x.od.items():
        out = out + _old_odd_monomial(d, p).scale(c)
    return out


def _old_bracket_comb(x: SuperLinComb, y: SuperLinComb) -> SuperLinComb:
    out = SuperLinComb()
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            out = out + bracket(a, b).scale(ca * cb)
    return out


def _rand_coeffs(rng: random.Random, keys: list, size: int) -> dict:
    return {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for k in rng.sample(keys, size)}


def _rand_poly(rng: random.Random) -> SuperPoly:
    exps = list(range(-3, 4))
    return SuperPoly(_rand_coeffs(rng, exps, rng.randint(0, 4)),
                     _rand_coeffs(rng, exps, rng.randint(0, 4)))


@pytest.mark.parametrize("seed", range(8))
def test_apply_matches_monomial_leibniz(seed):
    rng = random.Random(seed)
    z0_theta0 = SuperPoly({0: 1}, {0: 1})       # p = 0 on both sides
    for _ in range(25):
        d = SuperDerivation(_rand_poly(rng), _rand_poly(rng), rng.randint(0, 1))
        for x in (_rand_poly(rng), z0_theta0):
            assert d.apply(x) == _old_apply(d, x)
    for fam in FAMILIES:
        for n in range(-3, 4):
            d = realization(BasisElt(fam, n))
            for x in (_rand_poly(rng), z0_theta0):
                assert d.apply(x) == _old_apply(d, x)


def test_apply_odd_parts_on_both_sides():
    # D(z) = z^2 + 3 z theta, D(theta) = 5 + 7 theta on x = 2 z^3 + 11 z theta
    d = SuperDerivation(SuperPoly({2: 1}, {1: 3}), SuperPoly({0: 5}, {0: 7}), 1)
    x = SuperPoly({3: 2}, {1: 11})
    # 2*3 z^2 (z^2 + 3 z theta) + 11 (z^2 theta + z (5 + 7 theta))
    want = SuperPoly({4: 6, 1: 55}, {3: 18, 2: 11, 1: 77})
    assert d.apply(x) == want == _old_apply(d, x)


@pytest.mark.parametrize("seed", range(8))
def test_bracket_comb_matches_term_sum(seed):
    rng = random.Random(100 + seed)
    elts = [BasisElt(f, n) for f in FAMILIES for n in range(-3, 4)] + [C]
    for _ in range(40):
        x = SuperLinComb(_rand_coeffs(rng, elts, rng.randint(0, 5)))
        y = SuperLinComb(_rand_coeffs(rng, elts, rng.randint(0, 5)))
        if rng.random() < 0.5:
            y = y + SuperLinComb.of((rng.randint(1, 3), C))
        assert bracket_comb(x, y) == _old_bracket_comb(x, y)
        assert bracket_comb(y, x) == _old_bracket_comb(y, x)


def _old_commutator_images(d1: SuperDerivation, d2: SuperDerivation):
    sign = -1 if (d1.parity and d2.parity) else 1
    z = SuperPoly({1: Fraction(1)}, {})
    th = SuperPoly({}, {0: Fraction(1)})
    za = _old_apply(d1, _old_apply(d2, z)) \
        + _old_apply(d2, _old_apply(d1, z)).scale(-sign)
    ta = _old_apply(d1, _old_apply(d2, th)) \
        + _old_apply(d2, _old_apply(d1, th)).scale(-sign)
    return za, ta


@pytest.mark.parametrize("seed", range(4))
def test_commutator_images_match_generator_route(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        d1, d2 = (SuperDerivation(_rand_poly(rng), _rand_poly(rng), rng.randint(0, 1))
                  for _ in range(2))
        assert _commutator_images(d1, d2) == _old_commutator_images(d1, d2)


def test_realization_commutators_match_generator_route():
    ds = [realization(BasisElt(f, n)) for f in FAMILIES for n in range(-3, 4)]
    for d in ds:
        coeffs = [*d.z_image.ev.values(), *d.z_image.od.values(),
                  *d.theta_image.ev.values(), *d.theta_image.od.values()]
        assert all(type(c) is int for c in coeffs)
    for d1 in ds:
        for d2 in ds:
            assert _commutator_images(d1, d2) == _old_commutator_images(d1, d2)


# -- the sweep's integer view against the table ---------------------------------

def test_six_view_matches_table():
    # every pair the m = 6 sweep looks up: a box element with a box element or
    # with any result of an inner bracket (indices up to 12, and C)
    box = [BasisElt(f, n) for f in FAMILIES for n in range(-6, 7)] + [C]
    inner = [BasisElt(f, n) for f in FAMILIES for n in range(-12, 13)] + [C]
    view = _SixView()
    for a in box:
        for b in inner:
            entry = view[a, b]
            assert all(type(v) is int for _, v in entry)
            assert dict(entry) == {e: 6 * c
                                   for e, c in bracket(a, b).coeffs.items()}
            assert len(dict(entry)) == len(entry)


def test_sweep_does_not_call_bracket(monkeypatch):
    def no_bracket(a, b):
        raise AssertionError("the sweep called bracket()")

    monkeypatch.setattr(superalgebra, "bracket", no_bracket)
    assert super_jacobi_check(2).passed


def _ref_add_bracket(acc: dict, x: dict, y: dict, sign: int) -> None:
    for a, ca in x.items():
        for b, cb in y.items():
            c = sign * ca * cb
            for e, v in bracket(a, b).coeffs.items():
                acc[e] = acc.get(e, 0) + c * v


def _fraction_sweep(max_index: int):
    """The Fraction loop over BasisElt and bracket(), for reference."""
    elts = [BasisElt(f, n) for f in FAMILIES
            for n in range(-max_index, max_index + 1)] + [C]
    units = [(e, e.parity, {e: 1}) for e in elts]
    violations = []
    checked = 0
    for a, pa, ua in units:
        for b, pb, ub in units:
            ab = bracket(a, b).coeffs
            for c, pc, uc in units:
                checked += 1
                total = {}
                _ref_add_bracket(total, ua, bracket(b, c).coeffs,
                                 -1 if (pa and pc) else 1)
                _ref_add_bracket(total, ub, bracket(c, a).coeffs,
                                 -1 if (pb and pa) else 1)
                _ref_add_bracket(total, uc, ab, -1 if (pc and pb) else 1)
                if any(total.values()):
                    violations.append((a, b, c, SuperLinComb(total)))
    return checked, violations


def _negated(v):
    return tuple((e, -c) for e, c in v)


def _jq_sign(table, a, b):
    v = table(a, b)
    return _negated(v) if a.family + b.family == _JQ else v


def _jj_sixth(table, a, b):
    # [J_m, J_-m] = m/6 C instead of m/3 C; the table holds 6 m/3 = 2m
    v = table(a, b)
    return tuple((e, c // 2) for e, c in v) if a.family + b.family == _JJ else v


def _ungraded(table, a, b):
    # [L_m, L_n] = (m - n) L_{m+n+1}: the grading guard refuses it
    if a.family + b.family != "LL":
        return table(a, b)
    return ((L(a.index + b.index + 1), 6 * (a.index - b.index)),)


def _c_plus_one(table, a, b):
    # [L_m, J_-m] gains C/6: the C coefficient m^2 + m + 1 at scale 6, on
    # one C term; a lone constant is no coboundary, so the C pass refuses it
    v = table(a, b)
    if a.family + b.family != "LJ":
        return v
    m = a.index
    return tuple(t for t in v if t[0] != C) + ((C, m * m + m + 1),)


@pytest.mark.parametrize("max_index", [1, 2])
@pytest.mark.parametrize("corrupt", [None, _jq_sign, _jj_sixth, _ungraded,
                                     _c_plus_one],
                         ids=["true", "jq_sign", "jj_central", "ungraded",
                              "c_plus_one"])
def test_sweep_matches_fraction_reference(monkeypatch, corrupt, max_index):
    if corrupt:
        table = superalgebra._table
        monkeypatch.setattr(superalgebra, "_table",
                            lambda a, b: corrupt(table, a, b))
    assert certificate.jacobi_holds() == (corrupt is None)
    rep = super_jacobi_check(max_index)
    checked, violations = _fraction_sweep(max_index)
    assert rep.checked == checked == (4 * (2 * max_index + 1) + 1) ** 3
    assert rep.passed == (corrupt is None)
    assert rep.violations == violations
    assert rep.to_dict()["violations"] == [str(v) for v in violations[:20]]


def test_grading_guard_refuses_an_ungraded_entry(monkeypatch):
    # the guard raises on the first entry whose key misses its pair's index
    # sum, before any Jacobiator of the pass is summed
    table = superalgebra._table
    monkeypatch.setattr(superalgebra, "_table",
                        lambda a, b: _ungraded(table, a, b))
    with pytest.raises(certificate.Ungraded):
        list(certificate._jacobiators(variables(3)))
    assert len(super_jacobi_check(1).violations) == 246


# -- the scale-6 realization check against the object route it replaced ---------

def _object_identify(z_img: SuperPoly, th_img: SuperPoly) -> SuperLinComb:
    out = {}
    lcoef = {}
    for e, c in z_img.ev.items():
        lcoef[e - 1] = -c
        out[L(e - 1)] = -c
    for e, c in z_img.od.items():
        out[H(e)] = c
    for e, c in th_img.ev.items():
        out[Q(e - 1)] = -c
    for e in set(th_img.od) | set(lcoef):
        out[J(e)] = -th_img.od.get(e, 0) - lcoef.get(e, 0) * (e + 1)
    return SuperLinComb(out)


def _object_realization_check(max_index: int):
    """Every pair through realization(), bracket() and SuperLinComb."""
    mismatches, central, checked = [], [], 0
    for fa in FAMILIES:
        for fb in FAMILIES:
            for m in range(-max_index, max_index + 1):
                for n in range(-max_index, max_index + 1):
                    a, b = BasisElt(fa, m), BasisElt(fb, n)
                    got = _object_identify(*_old_commutator_images(
                        superalgebra.realization(a), superalgebra.realization(b)))
                    want = bracket(a, b)
                    cpart = want.coeffs.get(C, F(0))
                    want_nc = SuperLinComb(
                        {k: v for k, v in want.coeffs.items() if k != C})
                    checked += 1
                    if got != want_nc:
                        mismatches.append((a, b, got, want_nc))
                    elif cpart:
                        central.append((fa + fb, m, n, cpart))
    return checked, mismatches, central


def _h_theta_dtheta(true_realization):
    def realize(elt):
        if elt.family == "H":
            return SuperDerivation(SuperPoly(), SuperPoly({}, {elt.index: 1}),
                                   EVEN)
        return true_realization(elt)
    return realize


# each id also names the degree window the box was once checked with, so
# the test ids stay stable
@pytest.mark.parametrize("max_index", [1, 2, 3, 4, 5],
                         ids=["1-4", "2-6", "3-8", "4-16", "5-12"])
@pytest.mark.parametrize("corrupt", ["true", "jq_sign", "h_theta_dtheta"])
def test_realization_check_matches_object_reference(monkeypatch, corrupt,
                                                    max_index):
    if corrupt == "jq_sign":
        table = superalgebra._table
        monkeypatch.setattr(superalgebra, "_table",
                            lambda a, b: _jq_sign(table, a, b))
    elif corrupt == "h_theta_dtheta":
        monkeypatch.setattr(superalgebra, "realization",
                            _h_theta_dtheta(superalgebra.realization))
    box = range(-max_index, max_index + 1)
    certified = certificate.realization_kernel(box) is not None
    assert certified == (corrupt == "true")
    rep = realization_bracket_check(max_index)
    checked, mismatches, central = _object_realization_check(max_index)
    assert rep.passed == (corrupt == "true")
    assert rep.checked == checked == 16 * (2 * max_index + 1) ** 2
    assert rep.mismatches == mismatches
    assert rep.central_kernel == central
    ref = superalgebra.RealizationReport(checked, mismatches, central)
    assert rep.to_dict() == ref.to_dict()


@pytest.mark.parametrize("realize", ["true", "h_theta_dtheta"])
def test_realization_check_does_not_call_bracket(monkeypatch, realize):
    def no_bracket(a, b):
        raise AssertionError("the realization check called bracket()")

    if realize == "h_theta_dtheta":
        monkeypatch.setattr(superalgebra, "realization",
                            _h_theta_dtheta(superalgebra.realization))
    monkeypatch.setattr(superalgebra, "bracket", no_bracket)
    assert realization_bracket_check(2).passed == (realize == "true")


@pytest.mark.parametrize("max_index", [1, 3, 5])
def test_realization_runs_once_per_box_element(monkeypatch, max_index):
    # the certificate realizes each family once per index, in one pass,
    # whatever the box; a corrupted table falls back to the enumeration,
    # which realizes each box element once
    calls = []
    true_realization = superalgebra.realization

    def counted(elt):
        calls.append(elt)
        return true_realization(elt)

    monkeypatch.setattr(superalgebra, "realization", counted)
    assert realization_bracket_check(max_index).passed
    assert len(calls) == 2 * len(FAMILIES)
    assert not any(type(e.index) is int for e in calls)
    calls.clear()
    table = superalgebra._table
    monkeypatch.setattr(superalgebra, "_table",
                        lambda a, b: _jq_sign(table, a, b))
    assert not realization_bracket_check(max_index).passed
    boxed = [e for e in calls if type(e.index) is int]
    assert len(calls) - len(boxed) == 2 * len(FAMILIES)
    assert len(boxed) == len(set(boxed)) == 4 * (2 * max_index + 1)


# -- the all-index certificate ----------------------------------------------------

@pytest.mark.parametrize("max_index", range(1, 7))
def test_certificate_agrees_with_enumeration(monkeypatch, max_index):
    assert certificate.jacobi_holds()
    sweep = super_jacobi_check(max_index)
    real = realization_bracket_check(max_index)
    monkeypatch.setattr(certificate, "jacobi_holds", lambda: False)
    monkeypatch.setattr(certificate, "realization_kernel", lambda box: None)
    assert sweep == super_jacobi_check(max_index)
    assert real == realization_bracket_check(max_index)
    assert sweep.passed and real.passed


def _bump(table, a, b):
    # [L_m, L_n] gains m(m^2-1)(m^2-4)(m^2-9) L_{m+n}: zero for |m| <= 3 only
    v = table(a, b)
    if a.family + b.family != "LL":
        return v
    m, key = a.index, L(a.index + b.index)
    out = dict(v)
    out[key] = out.get(key, 0) + m * (m * m - 1) * (m * m - 4) * (m * m - 9)
    return tuple((k, c) for k, c in out.items() if c)


def _special_at_2(table, a, b):
    # a special case at m == 2 that changes nothing: the certificate must
    # still refuse the test, and the enumeration passes
    return table(a, b) if a.index == 2 else table(a, b)


def test_corruption_outside_the_box_is_not_certified(monkeypatch):
    table = superalgebra._table
    monkeypatch.setattr(superalgebra, "_table", lambda a, b: _bump(table, a, b))
    assert not certificate.jacobi_holds()
    assert certificate.realization_kernel(range(-1, 2)) is None
    assert super_jacobi_check(3).passed
    assert realization_bracket_check(3).passed
    assert not super_jacobi_check(4).passed
    assert not realization_bracket_check(4).passed


def test_special_case_at_2_is_not_certified(monkeypatch):
    table = superalgebra._table
    monkeypatch.setattr(superalgebra, "_table",
                        lambda a, b: _special_at_2(table, a, b))
    assert not certificate.jacobi_holds()
    assert certificate.realization_kernel(range(-1, 2)) is None
    sweep, real = super_jacobi_check(2), realization_bracket_check(2)
    monkeypatch.setattr(superalgebra, "_table", table)
    assert sweep == super_jacobi_check(2) and sweep.passed
    assert real == realization_bracket_check(2) and real.passed


def _zero_term(table, a, b):
    # [L_m, L_n] gains the term 0 L_{m+n}
    v = table(a, b)
    if a.family + b.family != "LL":
        return v
    return v + ((L(a.index + b.index), 0),)


def _split(extra):
    # 6 [L_m, L_n] = 6m L_{m+n} + (extra - 6n) L_{m+n}, one element named
    # twice: the true entry when extra is 0
    def corrupt(table, a, b):
        if a.family + b.family != "LL":
            return table(a, b)
        key = L(a.index + b.index)
        return ((key, 6 * a.index), (key, extra - 6 * b.index))
    return corrupt


@pytest.mark.parametrize("corrupt, holds",
                         [(_zero_term, True), (_split(0), True),
                          (_split(6), False)],
                         ids=["zero_term", "split", "split_wrong_sum"])
def test_realization_sums_repeated_keys(monkeypatch, corrupt, holds):
    # a table entry is a sum: a zero term or a coefficient split over a
    # repeated key changes nothing, on the certified and enumerated paths
    true = realization_bracket_check(3)
    table = superalgebra._table
    monkeypatch.setattr(superalgebra, "_table",
                        lambda a, b: corrupt(table, a, b))
    kernel = certificate.realization_kernel(range(-3, 4))
    assert (kernel is not None) == holds
    rep = realization_bracket_check(3)
    monkeypatch.setattr(certificate, "realization_kernel", lambda box: None)
    assert rep == realization_bracket_check(3)
    assert rep.passed == holds
    if holds:
        assert rep == true


def test_bracket_sums_repeated_keys(monkeypatch):
    # [L_m, J_n] gains a second C term (C, 1): bracket adds both C terms,
    # as the sweep and the realization check do
    table = superalgebra._table

    def twice_c(a, b):
        v = table(a, b)
        if a.family + b.family != "LJ":
            return v
        return v + ((C, 1),)

    monkeypatch.setattr(superalgebra, "_table", twice_c)
    assert bracket(L(2), J(-2)) == SuperLinComb.of((2, J(0)), (F(7, 6), C))


def test_entry_is_keyed_by_elements():
    # the table runs unchanged on free indices, and its C term stands at
    # every index until _six keeps it only on m + n = 0
    m, n = variables(2)
    assert superalgebra._entry(L(m), J(n)) == ((J(m + n), -6 * n),
                                               (C, m * m + m))
    assert superalgebra._six(L(2), J(-1)) == ((J(1), 6),)
    assert superalgebra._six(L(2), J(-2)) == ((J(0), 12), (C, 6))
    assert superalgebra._six(C, J(-2)) == superalgebra._six(L(2), C) == ()


def test_index_poly_contract():
    m, n, p = variables(3)
    assert isinstance(m, IndexPoly)
    # ring operations with ints; a constant result is an int
    assert (m + n) * (m - n) - m * m + n * n == 0
    assert type(m + 1 - m) is int and hash(m + 1 - m) == hash(1)
    assert 3 - m + m == 3 and (2 * m) * (2 * m) == 4 * m * m
    assert {m + n: 1}[n + m] == 1
    assert bool(m - n) and not m - m
    assert (m * n)(2, 3) == 6 and (m + n * p - 1)(1, 2, 3) == 6
    # == is decided on equal polynomials and on a constant difference
    assert m == m and m != m + 1 and m + n + 2 == 2 + n + m
    for undecided in (lambda: m == 2, lambda: m == n, lambda: m * m == -n,
                      lambda: m != -n, lambda: m + n != -p,
                      lambda: 2 * m != -2 * n):
        with pytest.raises(Undecided):
            undecided()
    # no ordering, division or conversion to int
    for refused in (lambda: m < n, lambda: m // 2, lambda: int(m),
                    lambda: m / 2, lambda: m % 2, lambda: range(m),
                    lambda: F(m), lambda: abs(m)):
        with pytest.raises(TypeError):
            refused()


# -- spectral flow U_eta is an automorphism -------------------------------------

_FLOW_BOX = [X(n) for X in (L, J, H, Q) for n in range(-4, 5)] + [C]


def _flow(eta: int, l0_shift):
    """U_eta: L_n -> L_n + eta J_n + delta_{n,0} l0_shift C,
    J_n -> J_n + delta_{n,0} (eta/3) C, Q_n -> Q_{n+eta}, H_n -> H_{n-eta},
    C -> C; returned as (image of a basis element, image of a combination)."""
    def image(e: BasisElt) -> SuperLinComb:
        n, zero = e.index, e.index == 0
        if e.family == "L":
            return SuperLinComb.of((1, L(n)), (eta, J(n)),
                                   (l0_shift if zero else 0, C))
        if e.family == "J":
            return SuperLinComb.of((1, J(n)), (F(eta, 3) if zero else 0, C))
        if e.family == "Q":
            return SuperLinComb.of((1, Q(n + eta)))
        if e.family == "H":
            return SuperLinComb.of((1, H(n - eta)))
        return SuperLinComb.of((1, C))

    def extend(x: SuperLinComb) -> SuperLinComb:
        out = SuperLinComb()
        for b, c in x.coeffs.items():
            out = out + image(b).scale(c)
        return out

    return image, extend


def _flow_failures(eta: int, l0_shift) -> list:
    """The ordered pairs (a, b) of _FLOW_BOX with [U a, U b] != U [a, b]."""
    image, extend = _flow(eta, l0_shift)
    return [(a, b) for a in _FLOW_BOX for b in _FLOW_BOX
            if bracket_comb(image(a), image(b)) != extend(bracket(a, b))]


@pytest.mark.parametrize("eta", range(-3, 4))
def test_spectral_flow_is_an_automorphism(eta):
    # Schwimmer-Seiberg: the central shift of L_0 is eta(eta+1)/6 C, which is
    # the q^{c eta^2/6} of the characters' flow once y^{c/6} is taken out
    assert len(_FLOW_BOX) ** 2 == 1369
    assert _flow_failures(eta, F(eta * (eta + 1), 6)) == []


@pytest.mark.parametrize("eta", [-3, -2, -1, 1, 2, 3])
def test_spectral_flow_with_eta_squared_shift_fails(eta):
    # eta^2/6 misses the central term by eta/6 on every bracket with an L_0
    # term: [L_m, L_-m] for m != 0 and both orders of [H_m, Q_-m]
    with_l0 = [(a, b) for a in _FLOW_BOX for b in _FLOW_BOX
               if L(0) in bracket(a, b).coeffs]
    assert len(with_l0) == 26
    assert _flow_failures(eta, F(eta * eta, 6)) == with_l0
