"""Polyhedral Gauss sums on lattice polytopes.

Exact rational geometry, solid-angle weights, classical and quadratic Gauss
sums, the weighted exponential sum G_P(n) over dilated polytopes, symmetry
and multi-tiling checks, and the search that classifies minimal-volume
lattice tetrahedra by their Gauss-sum behaviour.
"""

from .errors import (
    DegenerateCone,
    DegenerateInput,
    DegenerateTetrahedron,
    DimensionMismatch,
    EvenInput,
    EvenModulus,
    MalformedInput,
    NotAnEdge,
    PolyGaussError,
    UndefinedCase,
    UnsupportedDimension,
    VolumeNotMinimal,
)
from .geometry import (
    Face,
    Polytope,
    RationalVector,
    build_polytope,
    classify_point,
    dilate,
    polytope_from_dict,
    polytope_to_dict,
    rvec,
    translate,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "PolyGaussError",
    "DegenerateInput",
    "UnsupportedDimension",
    "DimensionMismatch",
    "DegenerateCone",
    "NotAnEdge",
    "DegenerateTetrahedron",
    "EvenModulus",
    "EvenInput",
    "UndefinedCase",
    "VolumeNotMinimal",
    "MalformedInput",
    "RationalVector",
    "rvec",
    "Polytope",
    "Face",
    "build_polytope",
    "dilate",
    "classify_point",
    "volume",
    "translate",
    "polytope_to_dict",
    "polytope_from_dict",
]
