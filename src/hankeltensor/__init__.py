"""Hankel tensor toolkit.

Construction and evaluation of Hankel tensors, their associated Hankel
matrices and plane tensors, Vandermonde decompositions and moment
generators, plane copositivity decisions, and extreme eigenvalue estimates
with certified bounds.

``import hankeltensor`` loads no submodule; each public name loads its home
module on first use.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOMES = {
    "HankelTensor": "core",
    "make_hankel": "core",
    "entry": "core",
    "eval_form": "core",
    "eval_gradient_form": "core",
    "hadamard": "core",
    "StrongCertificate": "associated",
    "count_s": "associated",
    "assoc_matrix": "associated",
    "is_strong": "associated",
    "assoc_plane": "associated",
    "copositive_necessary": "associated",
    "VandermondeDecomposition": "vandermonde",
    "DiscreteMeasure": "vandermonde",
    "decompose": "vandermonde",
    "compose": "vandermonde",
    "is_positive": "vandermonde",
    "hadamard_vd": "vandermonde",
    "from_measure": "vandermonde",
    "CopositivityReport": "plane",
    "PlaneExtremes": "plane",
    "copositive_check": "plane",
    "z_extremes": "plane",
    "EigenPair": "spectra",
    "ZBounds": "spectra",
    "zeig_extreme": "spectra",
    "heig_dim2": "spectra",
    "bounds_prop6": "spectra",
    "bounds_prop7": "spectra",
    "odd_sign_check": "spectra",
    "copositive_falsify": "spectra",
    "NumericalError": "errors",
}

__all__ = [*_HOMES, "__version__"]

_SUBMODULES = {*_HOMES.values(), "cli", "polyroots", "serialize", "worked_examples"}


def __getattr__(name):
    """Import the home module of ``name`` on its first lookup and bind the value here."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
