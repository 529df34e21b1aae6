"""Run one CLI job with wrappers installed on the package's layer boundaries.

    python3 perfbench/tracer.py OUT.json <cli arguments...>

The job's stdout and exit status are those of ``python -m superjacobi.cli``.
Coarse calls get spans ``[name, start, end, parent index, ratfunc seconds]``
kept in memory; the hot RatFunc arithmetic and ``superalgebra.bracket`` get
counters only.  Both are written to OUT.json when the job ends.  A wrapper
replaces its function in every package module that bound it, so names
imported with ``from .series import ...`` are traced too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

MODULES = ("cli", "ratfunc", "series", "numtheory", "elliptic", "ramanujan",
           "characters", "jacobi", "superalgebra")

# (module, attribute path) of every call that gets a span.
SPANNED = (
    ("cli", "main"),
    ("series", "QYSeries.__mul__"), ("series", "QYSeries.invert"),
    ("series", "mul_binomial"), ("series", "div_binomial"),
    ("series", "ZPiSeries.__mul__"),
    ("numtheory", "bernoulli"), ("numtheory", "eisenstein_e"),
    ("numtheory", "eisenstein_ghat"),
    ("elliptic", "wp_series"), ("elliptic", "zetabar_series"),
    ("elliptic", "wp_pde_sides"), ("elliptic", "wp_pde_check"),
    ("elliptic", "xi_series"), ("elliptic", "xi_shift_check"),
    ("elliptic", "xi_t_expansion"), ("elliptic", "xi_zetabar_check"),
    ("elliptic", "eval_zetabar"), ("elliptic", "eval_wp"),
    ("ramanujan", "ramanujan_triple"), ("ramanujan", "extract_ode_family"),
    ("characters", "spectrum"), ("characters", "p_product"),
    ("characters", "character"), ("characters", "spectral_flow_transform"),
    ("characters", "find_flow_matches"),
    ("jacobi", "eval_character_value"), ("jacobi", "eval_normalized_character"),
    ("jacobi", "span_invariance_test"),
    ("superalgebra", "super_jacobi_check"),
    ("superalgebra", "realization_bracket_check"),
    ("superalgebra", "virasoro_map_check"),
)

# RatFunc operations that yield a RatFunc (``__init__`` builds ``self``).
RATFUNC_OPS = ("__init__", "const", "monomial", "__add__", "__neg__", "__sub__",
               "__mul__", "scale", "mul_monomial", "inverse", "__truediv__",
               "deriv", "y_log_deriv")


class Trace:
    """Spans and counters of one job."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[tuple[list, str]] = []     # open spans and modules
        self.counters = {f"{m}.errors": 0 for m in MODULES}
        self.counters.update({
            "ratfunc.ops": 0, "ratfunc.const": 0, "ratfunc.s": 0.0,
            "series.qy_invert.trunc_in": 0, "series.qy_invert.trunc_out": 0,
            "superalgebra.bracket.calls": 0, "superalgebra.bracket.nonzero": 0,
        })
        self.in_ratfunc = False

    def _escaped(self, module: str) -> None:
        """Count an exception leaving ``module`` for a caller outside it."""
        if not self.stack or self.stack[-1][1] != module:
            self.counters[f"{module}.errors"] += 1

    def span(self, name: str, module: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][0][5] if stack else -1, 0.0,
                   len(spans)]
            spans.append(rec)
            stack.append((rec, module))
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                self._escaped(module)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def ratfunc_op(self, fn, returns_self: bool):
        c, stack = self.counters, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_ratfunc:                 # count outermost ops only
                return fn(*args, **kwargs)
            self.in_ratfunc = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._escaped("ratfunc")
                raise
            finally:
                dt = perf_counter() - t0
                self.in_ratfunc = False
                c["ratfunc.s"] += dt
                if stack:
                    stack[-1][0][4] += dt
            c["ratfunc.ops"] += 1
            if (args[0] if returns_self else result).is_const():
                c["ratfunc.const"] += 1
            return result
        return wrapper

    def bracket(self, fn):
        c = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._escaped("superalgebra")
                raise
            c["superalgebra.bracket.calls"] += 1
            if not result.is_zero():
                c["superalgebra.bracket.nonzero"] += 1
            return result
        return wrapper

    def invert_truncs(self, args, result) -> None:
        self.counters["series.qy_invert.trunc_in"] += args[0].trunc
        self.counters["series.qy_invert.trunc_out"] += result.trunc

    def to_dict(self) -> dict:
        return {"spans": [r[:5] for r in self.spans], "counters": self.counters}


def _rebind(mods: dict, old, new) -> None:
    """Replace ``old`` by ``new`` wherever a package module bound it."""
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)


def install(trace: Trace) -> dict:
    """Import the package and wrap its layer boundaries; returns the modules."""
    mods = {m: importlib.import_module(f"superjacobi.{m}") for m in MODULES}
    mods["__init__"] = importlib.import_module("superjacobi")
    rf = mods["ratfunc"].RatFunc
    for op in RATFUNC_OPS:
        raw = rf.__dict__[op]
        if isinstance(raw, classmethod):
            setattr(rf, op, classmethod(trace.ratfunc_op(raw.__func__, False)))
        else:
            setattr(rf, op, trace.ratfunc_op(raw, op == "__init__"))
    sa = mods["superalgebra"]
    _rebind(mods, sa.bracket, trace.bracket(sa.bracket))
    for module, path in SPANNED:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mods[module], owner_name) if owner_name else mods[module]
        fn = getattr(owner, attr)
        after = trace.invert_truncs if path == "QYSeries.invert" else None
        wrapped = trace.span(f"{module}.{path}", module, fn, after)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(mods, fn, wrapped)
    return mods


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace = Trace()
    mods = install(trace)
    try:
        code = mods["cli"].main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(trace.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
