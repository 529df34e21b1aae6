"""Exception types shared across the library."""


class SuperjacobiError(Exception):
    """Base class for all library errors."""


class IncompatiblePrefactor(SuperjacobiError):
    """Two series carry fractional y-prefactors differing by a non-integer."""


class NotAUnit(SuperjacobiError):
    """Series has no invertible lowest-order term below its truncation."""


class PoleProximity(SuperjacobiError):
    """On the product route, a character factor (1 - q^a y^b) evaluated with
    modulus below the 1e-12 pole guard."""


class PolePoint(SuperjacobiError):
    """Evaluation point is within the guard distance of a lattice point."""


class TailBoundExceeded(SuperjacobiError):
    """Reported truncation tail bound exceeds the requested tolerance."""


class NegativeExponent(SuperjacobiError):
    """A product factor was assigned a negative q-exponent."""


class VanishingFactor(SuperjacobiError):
    """A product factor is (1 - q^0 y^0) = 0."""


class BadLevel(SuperjacobiError):
    """Level parameter u must be an integer >= 2."""


class OutOfRange(SuperjacobiError):
    """Requested index exceeds the computed truncation window."""


class IllConditioned(SuperjacobiError):
    """Sample matrix condition estimate exceeds the allowed bound."""
