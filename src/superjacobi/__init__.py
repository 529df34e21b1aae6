"""superjacobi: exact q-series arithmetic and superconformal structures.

Subpackages cover the truncated Puiseux/Laurent series engine, Bernoulli and
Eisenstein series, Weierstrass functions and their differential identities,
minimal-model supercharacters with spectral flow, the Jacobi group action
with a numerical span-invariance probe, and the W(1|1) Lie superalgebra.
"""

from .ratfunc import RatFunc
from .series import QYSeries, ZPiSeries
from .numtheory import bernoulli, divisor_sum, eisenstein_e, eisenstein_ghat
from .elliptic import (LatticePoint, eval_wp, eval_zetabar,
                       wp_pde_check, wp_series, xi_series, xi_shift_check,
                       xi_zetabar_check, zetabar_series)
from .ramanujan import OdeIdentity, extract_ode_family, ramanujan_triple
from .characters import (CharacterSeries, ModuleLabel, central_charge,
                         character, find_flow_matches, p_product,
                         spectral_flow_transform, spectrum)
from .jacobi import (JacobiGroupElement, MixingReport, ModularPoint,
                     act_on_point, compose, coset_span_test,
                     eval_character_value, eval_normalized_character,
                     jacobi_normalized, multiplier, span_invariance_test)
from .superalgebra import (BasisElt, SuperLinComb, bracket,
                           realization_bracket_check, super_jacobi_check,
                           virasoro_map_check)

__version__ = "0.1.0"

__all__ = [
    "RatFunc", "QYSeries", "ZPiSeries",
    "bernoulli", "divisor_sum", "eisenstein_e", "eisenstein_ghat",
    "LatticePoint", "eval_wp", "eval_zetabar", "wp_pde_check",
    "wp_series", "xi_series", "xi_shift_check", "xi_zetabar_check",
    "zetabar_series",
    "OdeIdentity", "extract_ode_family", "ramanujan_triple",
    "CharacterSeries", "ModuleLabel", "central_charge", "character",
    "find_flow_matches", "p_product", "spectral_flow_transform", "spectrum",
    "JacobiGroupElement", "MixingReport", "ModularPoint", "act_on_point",
    "compose", "coset_span_test", "eval_character_value",
    "eval_normalized_character", "jacobi_normalized", "multiplier",
    "span_invariance_test",
    "BasisElt", "SuperLinComb", "bracket", "realization_bracket_check",
    "super_jacobi_check", "virasoro_map_check",
]
