"""Minimal-model supercharacters and spectral flow.

The level-u family has u(u-1)/2 modules; each graded superdimension is a
Puiseux series in q (grid 1/(2u)) with coefficients that are rational
functions of y.  Spectral flow by one unit permutes the normalized
characters up to a signed monomial, computed exactly at the product level.
"""
from fractions import Fraction

from superjacobi.characters import (ModuleLabel, character,
                                    find_flow_matches, spectrum)
from superjacobi.labels import central_charge

for u in (2, 3, 4):
    labels = spectrum(u)
    print(f"u={u}: c = {central_charge(u)}, {len(labels)} modules:",
          [(int(l.j), int(l.k)) for l in labels])

# the j = 0 modules keep an exact rational coefficient at q^0
ch = character(ModuleLabel(2, 0, 1), Fraction(3))
print("u=2 (0,1) q^0 coefficient:", ch.series.coeff(0).to_str())

# leading exponent is jk/u
ch = character(ModuleLabel(4, 2, 1), Fraction(3))
e0, c0 = ch.series.leading()
print("u=4 (2,1): leading exponent", e0, "coefficient", c0.to_str())

# spectral flow: a signed-monomial permutation of the spectrum
for u in (3, 4):
    print(f"flow permutation at u={u}, m=1:")
    for mt in find_flow_matches(u, 1, Fraction(8)):
        print(f"   ({mt.source.j},{mt.source.k}) -> ({mt.target.j},{mt.target.k})"
              f"   constant {mt.const} * q^{mt.q_shift}")
