"""Hankel tensor toolkit.

Construction and evaluation of Hankel tensors, their associated Hankel
matrices and plane tensors, Vandermonde decompositions and moment
generators, plane copositivity decisions, and extreme eigenvalue estimates
with certified bounds.
"""

from .associated import (
    StrongCertificate,
    assoc_matrix,
    assoc_plane,
    copositive_necessary,
    count_s,
    is_strong,
)
from .core import (
    HankelTensor,
    entry,
    eval_form,
    eval_gradient_form,
    hadamard,
    make_hankel,
)
from .errors import NumericalError
from .plane import (
    CopositivityReport,
    PlaneExtremes,
    copositive_check,
    z_extremes,
)
from .spectra import (
    EigenPair,
    ZBounds,
    bounds_prop6,
    bounds_prop7,
    copositive_falsify,
    heig_dim2,
    odd_sign_check,
    zeig_extreme,
)
from .vandermonde import (
    DiscreteMeasure,
    VandermondeDecomposition,
    compose,
    decompose,
    from_measure,
    hadamard_vd,
    is_positive,
)

__version__ = "0.1.0"

__all__ = [
    "HankelTensor",
    "make_hankel",
    "entry",
    "eval_form",
    "eval_gradient_form",
    "hadamard",
    "StrongCertificate",
    "count_s",
    "assoc_matrix",
    "is_strong",
    "assoc_plane",
    "copositive_necessary",
    "VandermondeDecomposition",
    "DiscreteMeasure",
    "decompose",
    "compose",
    "is_positive",
    "hadamard_vd",
    "from_measure",
    "CopositivityReport",
    "PlaneExtremes",
    "copositive_check",
    "z_extremes",
    "EigenPair",
    "ZBounds",
    "zeig_extreme",
    "heig_dim2",
    "bounds_prop6",
    "bounds_prop7",
    "odd_sign_check",
    "copositive_falsify",
    "NumericalError",
    "__version__",
]
