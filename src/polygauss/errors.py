"""Exception types raised across the package.

Everything derives from PolyGaussError (a ValueError), so callers can catch
either the specific condition or the whole family.
"""


class PolyGaussError(ValueError):
    """Base class for all input and domain errors raised by this package."""


class DegenerateInput(PolyGaussError):
    """Input point set does not span a full-dimensional body."""


class UnsupportedDimension(PolyGaussError):
    """Dimension out of range: build and volume take 1..4; lattice lines, angles, weyl 1..3."""


class DimensionMismatch(PolyGaussError):
    """Operands live in different ambient dimensions."""


class DegenerateCone(PolyGaussError):
    """Cone generators are linearly dependent."""


class NotAnEdge(PolyGaussError):
    """Face passed to an edge-only routine is not one-dimensional."""


class DegenerateTetrahedron(PolyGaussError):
    """Four points with zero signed volume."""


class EvenModulus(PolyGaussError):
    """Modulus must be odd for this reduction."""


class EvenInput(PolyGaussError):
    """Both arguments even; symbol is not defined."""


class UndefinedCase(PolyGaussError):
    """Arguments fall outside every closed-form branch."""


class VolumeNotMinimal(PolyGaussError):
    """Tetrahedron volume is not 1/6, so the unimodular formula does not apply."""


class MalformedInput(PolyGaussError):
    """File or CLI payload failed validation; message names the offending field."""
