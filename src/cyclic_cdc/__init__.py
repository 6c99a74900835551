"""Cyclic constant-dimension subspace codes over finite-field towers.

Construction of Sidon-space and subspace-polynomial orbit codes, exact
desk-scale verification of their sizes and minimum distances, closed-form
size formulas and sphere-packing/Johnson bounds, and a small operator-channel
simulator with minimum-distance decoding.
"""

__version__ = "0.1.0"

from . import errors
from .field_tower import FieldTower, build_tower
from .orbit_codes import UnionCode, build_union, verify_code
from .sidon_constructions import (
    ConstructionParams,
    enumerate_family,
    is_sidon,
    make_subspace,
)
from .subspace_linalg import Subspace, cyclic_shift, orbit_size, span, subspace_distance

__all__ = [
    "ConstructionParams",
    "FieldTower",
    "Subspace",
    "UnionCode",
    "__version__",
    "build_tower",
    "build_union",
    "cyclic_shift",
    "enumerate_family",
    "errors",
    "is_sidon",
    "make_subspace",
    "orbit_size",
    "span",
    "subspace_distance",
    "verify_code",
]
