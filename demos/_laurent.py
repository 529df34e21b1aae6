"""The formatter the demos print exact coefficients with: a Laurent
polynomial, or one over a power of (var - 1).  A helper, not a demo."""

from math import comb


def laurent(row, var):
    """The Laurent polynomial {exponent: coefficient} in descending powers
    of var."""
    bits = []
    for e in sorted(row, reverse=True):
        c, v = row[e], var if e == 1 else f"{var}^{e}"
        bits.append(f"{c}" if e == 0 else v if c == 1 else f"{c}*{v}")
    return " + ".join(bits).replace("+ -", "- ") or "0"


def over_pole(num, pole, var):
    """num/(var - 1)^pole, printed as num alone when pole = 0."""
    if not pole:
        return laurent(num, var)
    den = {e: (-1) ** (pole - e) * comb(pole, e) for e in range(pole + 1)}
    return f"({laurent(num, var)})/({laurent(den, var)})"
