"""Command-line front end.

Exit codes: 0 on success/pass, 1 on a failed mathematical check, 2 on usage
errors.  Reports are machine-readable JSON (or CSV for numeric tables),
written to stdout or to --out.  Identical invocations (including --seed)
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import islice

# Each subcommand imports the modules it runs, so a job loads no others.
# No other module in src/ uses numpy; it is imported here only because
# perfbench/run.py reads its line from
# `python -X importtime -c "import superjacobi.cli"` as cli.numpy_import_s,
# and dropping it waits until that read is optional (ROADMAP item 1).
import numpy  # noqa: F401

from .errors import SuperjacobiError

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


# A JSON report is json.dumps(payload, sort_keys=True, indent=2) and a
# newline, written in batches of the encoder's chunks, each joined once, so
# the whole report is never held as one string.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_BATCH = 4096


def _write(fh, payload, as_json: bool) -> None:
    if not as_json:
        fh.write(payload)
        return
    chunks = _ENCODER.iterencode(payload)
    while batch := list(islice(chunks, _BATCH)):
        fh.write("".join(batch))
    fh.write("\n")


def _emit(payload, out_path: str | None, as_json: bool = True) -> None:
    if not out_path:
        _write(sys.stdout, payload, as_json)
        return
    try:
        with open(out_path, "w") as fh:
            _write(fh, payload, as_json)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None


def _report(rep, out_path: str | None) -> int:
    """Emit a check report; exit 0 if it passed, 1 if it failed."""
    _emit(rep.to_dict(), out_path)
    return EXIT_OK if rep.passed else EXIT_MATH_FAIL


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text} is not a finite float")
    return x


def _tolerance(text: str) -> float:
    tol = _finite(text)
    if tol <= 0.0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite float")
    return tol


# -- subcommand implementations ---------------------------------------------

def cmd_ramanujan(args) -> int:
    from . import ramanujan
    if args.max_k < 1:
        raise ValueError("max_k must be >= 1")
    checks = [idt.to_dict() for idt in ramanujan.ramanujan_triple(args.order)]
    # z_order = max_k + 1 is the least order that gives k = max_k; the q-order
    # is exclusive, so both halves are checked through q^order
    for idt in ramanujan.extract_ode_families(
            range(1, args.max_k + 1), args.max_k + 1, args.order + 1):
        checks.append({**idt.to_dict(), "source": "wp-pde",
                       "zExponent": idt.source_z_exponent})
    _emit({"checks": checks}, args.out)
    return EXIT_OK if all(d["holds"] for d in checks) else EXIT_MATH_FAIL


def cmd_char(args) -> int:
    from . import characters
    label = characters.ModuleLabel(args.u, args.j, args.k, generic=args.generic)
    ch = characters.character(label, Fraction(args.order),
                              normalized=args.normalized)
    _emit(ch.series.to_dict(), args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .labels import spectrum
    labels = spectrum(args.u)
    _emit({"u": args.u,
           "count": len(labels),
           "labels": [[int(l.j), int(l.k)] for l in labels]}, args.out)
    return EXIT_OK


def cmd_flow(args) -> int:
    from . import characters
    matches = characters.find_flow_matches(args.u, args.m, Fraction(args.order))
    _emit({"u": args.u, "m": args.m,
           "matches": [m.to_dict() for m in matches]}, args.out)
    return EXIT_OK


def cmd_eisenstein(args) -> int:
    from . import numtheory
    fn = numtheory.eisenstein_ghat if args.ghat else numtheory.eisenstein_e
    _emit(fn(args.k, args.order).to_dict(), args.out)
    return EXIT_OK


def cmd_wp_pde(args) -> int:
    from . import elliptic
    return _report(elliptic.wp_pde_check(args.z_order, args.order), args.out)


def cmd_xi_shift(args) -> int:
    from . import elliptic
    return _report(elliptic.xi_shift_check(args.order), args.out)


def cmd_xi_zetabar(args) -> int:
    from . import elliptic
    return _report(elliptic.xi_zetabar_check(args.t_order, args.order), args.out)


def cmd_zetabar_table(args) -> int:
    """CSV table of zeta-bar (or wp) values along a t-grid."""
    from . import elliptic
    if args.points < 1:
        raise ValueError("points must be >= 1")
    tau = complex(args.tau_re, args.tau_im)
    rows = ["t_re,t_im,tau_re,tau_im,value_re,value_im"]
    fn = elliptic.eval_wp if args.what == "wp" else elliptic.eval_zetabar
    for i in range(args.points):
        t = complex(args.t_re + i * args.step, args.t_im)
        v = fn(elliptic.LatticePoint(t, tau))
        rows.append(f"{t.real!r},{t.imag!r},{tau.real!r},{tau.imag!r},"
                    f"{v.real!r},{v.imag!r}")
    _emit("\n".join(rows) + "\n", args.out, as_json=False)
    return EXIT_OK


def cmd_jacobi_test(args) -> int:
    from . import jacobi
    gens = {
        "S": jacobi.S_ELEMENT,
        "T": jacobi.T_SHEAR,
        "x10": jacobi.JacobiGroupElement.lattice(1, 0),
        "x01": jacobi.JacobiGroupElement.lattice(0, 1),
    }
    g = gens[args.gen]
    rep = jacobi.span_invariance_test(args.u, g, q_order=Fraction(args.order),
                                      tol=args.tol, seed=args.seed)
    d = rep.to_dict()
    ok = d["withinTolerance"] = rep.residual < args.tol
    _emit(d, args.out)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _basis_elts(tokens: list[str]) -> list[superalgebra.BasisElt]:
    """Read FAMILY [INDEX] pairs; INDEX defaults to 0 and is ignored for C."""
    from . import superalgebra
    elts = []
    while tokens:
        fam, tokens = tokens[0], tokens[1:]
        idx = 0
        if tokens and tokens[0].lstrip("-").isdigit():
            idx, tokens = int(tokens[0]), tokens[1:]
        elts.append(superalgebra.C if fam == "C"
                    else superalgebra.BasisElt(fam, idx))
    return elts


def cmd_bracket(args) -> int:
    from . import superalgebra
    elts = _basis_elts(args.elements)
    if len(elts) != 2:
        raise ValueError("bracket takes two basis elements")
    v = superalgebra.bracket(*elts)
    _emit({"bracket": v.to_dict(), "text": str(v)}, args.out)
    return EXIT_OK


def cmd_jacobi_identity(args) -> int:
    from . import superalgebra
    return _report(superalgebra.super_jacobi_check(args.max), args.out)


def cmd_realization_check(args) -> int:
    from . import superalgebra
    return _report(superalgebra.realization_bracket_check(args.max), args.out)


# -- per-subcommand invariant mini-suites -------------------------------------

def _st_ramanujan() -> bool:
    from . import ramanujan
    return all(i.holds() for i in ramanujan.ramanujan_triple(20))


def _st_characters() -> bool:
    from . import characters
    ok = all(len(characters.spectrum(u)) == u * (u - 1) // 2
             for u in range(2, 9))
    ch = characters.character(characters.ModuleLabel(3, 1, 1), Fraction(3))
    e0, _ = ch.series.leading()
    return ok and e0 == Fraction(1, 3)


def _st_flow() -> bool:
    from . import characters
    return all(len(characters.find_flow_matches(3, m, Fraction(6))) == 3
               for m in (1, -1))


def _st_eisenstein() -> bool:
    from . import numtheory
    ok = all(numtheory.eisenstein_e(k, 2).coeff(0) == 1 for k in range(1, 7))
    g2 = numtheory.eisenstein_ghat(1, 4)
    return ok and g2.coeff(0) == Fraction(-1, 12)


def _st_wp_pde() -> bool:
    from . import elliptic
    if not elliptic.wp_pde_check(4, 12).passed:
        return False
    wp = elliptic.wp_series(4, 12)
    zb = elliptic.zetabar_series(4, 12)
    return not zb.pi_shift(1).z_deriv().scale(-1).diff_exponents(wp.scale(-1))


def _st_xi_shift() -> bool:
    from . import elliptic
    return (elliptic.xi_shift_check(15).passed
            and not elliptic.xi_shift_check(15, offset=Fraction(2)).passed)


def _st_xi_zetabar() -> bool:
    from . import elliptic
    return elliptic.xi_zetabar_check(4, 10).passed


def _st_zetabar_table() -> bool:
    from . import elliptic
    t, tau = 0.21 + 0.08j, 1j
    z0 = elliptic.eval_zetabar(elliptic.LatticePoint(t, tau))
    z1 = elliptic.eval_zetabar(elliptic.LatticePoint(t + tau, tau))
    z5 = elliptic.eval_zetabar(elliptic.LatticePoint(t + 5 * tau, tau))
    w0 = elliptic.eval_wp(elliptic.LatticePoint(t, tau))
    w1 = elliptic.eval_wp(elliptic.LatticePoint(t + tau, tau))
    return (abs(z1 - z0 - 1) < 1e-9 and abs(z5 - z0 - 5) < 1e-9
            and abs(w1 - w0) < 1e-8)


def _st_jacobi_test() -> bool:
    from . import jacobi
    g = jacobi.JacobiGroupElement.lattice(1, 0)
    rep = jacobi.span_invariance_test(2, g, q_order=Fraction(10))
    ok = rep.residual < 1e-6
    gh = jacobi.compose(g, jacobi.S_ELEMENT)
    ok = ok and gh.matrix == (0, -1, 1, 0) and gh.vector == (0, -1)
    return ok


def _st_bracket() -> bool:
    from . import superalgebra
    return superalgebra.super_jacobi_check(2).passed


def _st_realization() -> bool:
    from . import superalgebra
    return superalgebra.realization_bracket_check(2).passed


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superjacobi",
        description="Exact q-series identities, characters, and the W(1|1) algebra")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fn, self_test):
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--self-test", action="store_true",
                       help="run the module's invariant mini-suite")
        p.set_defaults(fn=fn, self_test_fn=self_test)

    p = sub.add_parser("ramanujan", help="verify the Eisenstein ODEs")
    p.add_argument("--order", type=int, default=50)
    p.add_argument("--max-k", type=int, default=3)
    common(p, cmd_ramanujan, _st_ramanujan)

    p = sub.add_parser("char", help="expand a module character")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--j", type=_fraction, required=True)
    p.add_argument("--k", type=_fraction, required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--generic", action="store_true")
    common(p, cmd_char, _st_characters)

    p = sub.add_parser("spectrum", help="list the level-u module labels")
    p.add_argument("--u", type=int, required=True)
    common(p, cmd_spectrum, _st_characters)

    p = sub.add_parser("flow", help="spectral-flow matches of the spectrum")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--order", type=int, default=9)
    common(p, cmd_flow, _st_flow)

    p = sub.add_parser("eisenstein", help="E_2k or ghat_2k expansion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--ghat", action="store_true")
    common(p, cmd_eisenstein, _st_eisenstein)

    p = sub.add_parser("wp-pde", help="coefficientwise wp PDE check")
    p.add_argument("--z-order", type=int, default=6)
    p.add_argument("--order", type=int, default=40)
    common(p, cmd_wp_pde, _st_wp_pde)

    p = sub.add_parser("xi-shift", help="xi(qx) = xi(x) + 1 check")
    p.add_argument("--order", type=int, default=40)
    common(p, cmd_xi_shift, _st_xi_shift)

    p = sub.add_parser("xi-zetabar", help="xi/zeta-bar t-expansion consistency")
    p.add_argument("--t-order", type=int, default=8)
    p.add_argument("--order", type=int, default=30)
    common(p, cmd_xi_zetabar, _st_xi_zetabar)

    p = sub.add_parser("zetabar-table", help="numeric table (CSV)")
    p.add_argument("--what", choices=["zetabar", "wp"], default="zetabar")
    p.add_argument("--tau-re", type=_finite, default=0.0)
    p.add_argument("--tau-im", type=_finite, default=1.0)
    p.add_argument("--t-re", type=_finite, default=0.2)
    p.add_argument("--t-im", type=_finite, default=0.1)
    p.add_argument("--step", type=_finite, default=0.05)
    p.add_argument("--points", type=int, default=5)
    common(p, cmd_zetabar_table, _st_zetabar_table)

    p = sub.add_parser("jacobi-test", help="span-invariance mixing fit")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--gen", choices=["S", "T", "x10", "x01"], required=True)
    p.add_argument("--order", type=int, default=14)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--seed", type=int, default=7)
    common(p, cmd_jacobi_test, _st_jacobi_test)

    p = sub.add_parser("bracket", help="bracket of two basis elements")
    p.add_argument("elements", nargs="+", metavar="FAMILY [INDEX]",
                   help="two basis elements; FAMILY is one of L J H Q C, "
                        "INDEX an int (default 0, none for C)")
    common(p, cmd_bracket, _st_bracket)

    p = sub.add_parser("jacobi-identity", help="graded Jacobi identity sweep")
    p.add_argument("--max", type=int, default=6)
    common(p, cmd_jacobi_identity, _st_bracket)

    p = sub.add_parser("realization-check",
                       help="vector-field realization vs the bracket table")
    p.add_argument("--max", type=int, default=5)
    p.add_argument("--window", type=int, default=12,
                   help="ignored; the check covers every commutator index")
    common(p, cmd_realization_check, _st_realization)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.self_test:
            ok = args.self_test_fn()
            _emit({"selfTest": args.command, "passed": ok}, args.out)
            return EXIT_OK if ok else EXIT_MATH_FAIL
        return args.fn(args)
    except (SuperjacobiError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
