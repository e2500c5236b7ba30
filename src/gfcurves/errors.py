"""Exception types shared across the package.

Every error that corresponds to a rejected input subclasses ValueError so
callers can catch broadly; the distinct classes exist because the verification
harness asserts on exact failure modes.
"""


class CompositeCharacteristic(ValueError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(ValueError):
    """The supplied extension modulus factors over the prime field."""


class ZeroInput(ValueError):
    """Zero was passed where a nonzero field element is required."""


class IncompatibleOrder(ValueError):
    """A subgroup order or exponent does not divide q - 1."""


class DegenerateParams(ValueError):
    """Curve parameters with a = 0, b = 0 or a*b = 1."""


class DegreeTooSmall(ValueError):
    """Curve degree parameter n < 2."""


class PrecisionTooLow(ValueError):
    """A series precision too small for the requested expansion."""


class NotAnInflection(ValueError):
    """xi**n != b, so (xi, 0) / (0, xi) is not on the curve."""


class NotATangentDirection(ValueError):
    """c**n != 1/a, so Y = c is not a tangent direction at infinity."""


class InvalidS(ValueError):
    """Series degree parameter s outside [2, n - 1]."""


class SmallCharacteristic(ValueError):
    """Order-sequence extraction refused because p <= s*(n+1)."""


class DomainError(ValueError):
    """Argument outside the real domain of a bound formula."""


class EmptyFeasibleSet(ValueError):
    """The integer feasible set of a minimization is empty."""


class VertexQuery(ValueError):
    """A chord count was requested at a polygon vertex."""


class DegeneratePolygon(ValueError):
    """Fewer than 3 vertices (no three points of XY = 1 are collinear)."""


class FieldTooLarge(ValueError):
    """q is above the limit up to which the O(q) index of F_q is built."""
