"""superjacobi: exact q-series arithmetic and superconformal structures.

Its modules cover truncated q-series on integers, Bernoulli and Eisenstein
series, Weierstrass functions and their differential identities,
minimal-model supercharacters with spectral flow, the Jacobi group action
with a numerical span-invariance probe, and the W(1|1) Lie superalgebra.

Importing the package loads none of them: each public name is imported from
its module on first access (PEP 562), so a caller loads only the modules it
uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "qseries": ("QSeries", "ZPiSeries"),
    "numtheory": ("bernoulli", "divisor_sum", "eisenstein_e", "eisenstein_ghat"),
    "elliptic": ("LatticePoint", "eval_wp", "eval_zetabar", "wp_pde_check",
                 "wp_series", "xi_series", "xi_shift_check",
                 "xi_zetabar_check", "zetabar_series"),
    "ramanujan": ("OdeIdentity", "extract_ode_family", "ramanujan_triple"),
    "labels": ("ModuleLabel", "central_charge", "spectrum"),
    "characters": ("CharacterSeries", "character", "find_flow_matches",
                   "p_product", "spectral_flow_transform"),
    "jacobi": ("JacobiGroupElement", "MixingReport", "ModularPoint",
               "act_on_point", "compose", "coset_span_test",
               "eval_character_value", "eval_normalized_character",
               "jacobi_normalized", "multiplier", "span_invariance_test"),
    "superalgebra": ("BasisElt", "SuperLinComb", "bracket",
                     "realization_bracket_check", "super_jacobi_check",
                     "virasoro_map_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
