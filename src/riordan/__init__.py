"""Exact-arithmetic Riordan arrays, quasi-Riordan arrays, and weighted classes."""

from .series import (
    Series,
    SeriesError,
    NotAUnitError,
    CompositionError,
    NoCompositionalInverseError,
    PrecisionError,
)
from .matrices import Triangle, direct_sum_one
from .group import (
    AZSequences,
    RiordanError,
    RiordanPair,
    a_sequence_by_solve,
    reconstruct_from_az,
)
from .quasi import QuasiRiordan, factorization_check
from .weighted import (
    WeightError,
    WeightSeq,
    WeightTri,
    WeightedTriangle,
    C_transform,
    c_group_mul,
    c_transform,
    generalized_laguerre,
    generalized_rook,
    horiz_recursion_C,
    rook_laguerre_duality,
    vert_recursion_C,
)
from . import catalog, harness

__all__ = [
    "AZSequences",
    "CompositionError",
    "C_transform",
    "NoCompositionalInverseError",
    "NotAUnitError",
    "PrecisionError",
    "QuasiRiordan",
    "RiordanError",
    "RiordanPair",
    "Series",
    "SeriesError",
    "Triangle",
    "WeightError",
    "WeightSeq",
    "WeightTri",
    "WeightedTriangle",
    "a_sequence_by_solve",
    "c_group_mul",
    "c_transform",
    "catalog",
    "direct_sum_one",
    "factorization_check",
    "generalized_laguerre",
    "generalized_rook",
    "harness",
    "horiz_recursion_C",
    "reconstruct_from_az",
    "rook_laguerre_duality",
    "vert_recursion_C",
]

__version__ = "0.1.0"
