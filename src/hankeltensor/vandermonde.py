"""Vandermonde decompositions of Hankel tensors.

Every Hankel tensor is a combination sum_k alpha_k u_k^{(x) m} of rank-one
symmetric powers of Vandermonde vectors (1, u, u^2, ..., u^(n-1)); on the
generating vector this reads v_i = sum_k alpha_k u_k^i.  A decomposition with
all alpha_k > 0 certifies a complete Hankel tensor, and the moments of a
nonnegative discrete measure generate one directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HankelTensor, _as_finite_vector
from .errors import NumericalError

_NODE_MERGE_REL = 1e-12
_COEFF_DROP_ABS = 1e-14
_COEFF_DROP_REL = 1e-12
_RESIDUAL_REL = 1e-6


def _check_distinct(nodes, name):
    # A colliding pair brackets a colliding sorted neighbour pair: the one at
    # its larger-magnitude end has a gap no wider and a bound no smaller.
    s = np.sort(nodes)
    hit = np.diff(s) <= _NODE_MERGE_REL * np.maximum(1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
    if np.any(hit):
        raise ValueError(f"{name} must be pairwise distinct (collision at {s[np.argmax(hit)]!r})")


@dataclass(frozen=True)
class VandermondeDecomposition:
    """Nodes u_k and coefficients alpha_k of a Vandermonde combination."""

    nodes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = _as_finite_vector(self.nodes, "nodes")
        coeffs = _as_finite_vector(self.coeffs, "coeffs")
        if nodes.shape[0] != coeffs.shape[0]:
            raise ValueError("nodes and coeffs must have the same length")
        _check_distinct(nodes, "nodes")
        if np.any(coeffs == 0.0):
            raise ValueError("coefficients must be nonzero")
        nodes, coeffs = nodes.copy(), coeffs.copy()
        nodes.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self):
        return int(self.nodes.shape[0])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure with nonnegative weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _as_finite_vector(self.nodes, "nodes")
        weights = _as_finite_vector(self.weights, "weights")
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes and weights must have the same length")
        _check_distinct(nodes, "nodes")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        nodes, weights = nodes.copy(), weights.copy()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _moment_solve(nodes, rhs):
    """Solve sum_k z_k nodes_k^i = rhs_i without forming the power matrix.

    Bjorck-Pereyra style elimination on the dual (moment) Vandermonde system;
    O(r^2) and far more accurate than a generic dense solve here.
    """
    u = np.asarray(nodes, dtype=float)
    z = np.asarray(rhs, dtype=float).copy()
    r = u.shape[0]
    for k in range(r - 1):
        for j in range(r - 1, k, -1):
            z[j] -= u[k] * z[j - 1]
    for k in range(r - 2, -1, -1):
        for j in range(k + 1, r):
            z[j] /= u[j] - u[j - k - 1]
        for j in range(k, r - 1):
            z[j] -= z[j + 1]
    return z


def _power_matrix(nodes, top):
    """Matrix u_k^i for i = 0..top (0^0 = 1)."""
    return np.asarray(nodes, dtype=float)[None, :] ** np.arange(top + 1)[:, None]


def decompose(a, nodes=None):
    """Vandermonde decomposition of ``a`` on given or default nodes.

    Default nodes are the Chebyshev points of the second kind,
    cos(k pi / (r-1)) for k = 0..r-1 with r = (n-1)m + 1.  Coefficients below
    1e-12 of the largest are dropped.  A residual above 1e-6 * ||gen|| aborts
    with a numerical error.

    Working range with the default nodes: the round trip through ``compose``
    stays within 1e-8 * max|v| up to (n-1)m = 20, and its error grows about
    2.5x per degree beyond that.  A ``NumericalError`` becomes possible from
    degree 30 and is certain from degree 34, well inside the plane degree
    cap of 60 that the other routines accept.
    """
    r = (a.dim - 1) * a.order + 1
    if nodes is None:
        nodes = np.cos(np.arange(r) * np.pi / (r - 1))
    else:
        nodes = _as_finite_vector(nodes, "nodes")
        if nodes.shape[0] != r:
            raise ValueError(f"nodes has length {nodes.shape[0]}, expected (dim-1)*order+1 = {r}")
        _check_distinct(nodes, "nodes")

    alpha = _moment_solve(nodes, a.gen)
    residual = float(np.linalg.norm(_power_matrix(nodes, r - 1) @ alpha - a.gen))
    limit = _RESIDUAL_REL * float(np.linalg.norm(a.gen))
    if residual > limit:
        raise NumericalError(
            f"decomposition residual {residual:.3e} exceeds {limit:.3e}; nodes too ill-conditioned",
            residual=residual,
        )
    keep = np.abs(alpha) > _COEFF_DROP_REL * (np.max(np.abs(alpha)) if alpha.size else 0.0)
    return VandermondeDecomposition(nodes[keep], alpha[keep])


def compose(d, order, dim):
    """Hankel tensor generated by v_i = sum_k alpha_k u_k^i."""
    top = (dim - 1) * order
    if len(d) == 0:
        return HankelTensor(order, dim, np.zeros(top + 1))
    gen = _power_matrix(d.nodes, top) @ d.coeffs
    return HankelTensor(order, dim, gen)


def is_positive(d):
    """True iff every coefficient is strictly positive (empty counts as yes)."""
    return bool(np.all(d.coeffs > 0.0))


def hadamard_vd(d1, d2):
    """Decomposition of the Hadamard product: all pairwise node products.

    Colliding product nodes (relative 1e-12) are merged and coefficients
    below 1e-14 in magnitude are dropped.
    """
    prod_nodes = (np.asarray(d1.nodes)[:, None] * np.asarray(d2.nodes)[None, :]).ravel()
    prod_coeffs = (np.asarray(d1.coeffs)[:, None] * np.asarray(d2.coeffs)[None, :]).ravel()
    if prod_nodes.size == 0:
        return VandermondeDecomposition(np.zeros(0), np.zeros(0))

    order = np.argsort(prod_nodes)
    nodes_out = []
    coeffs_out = []
    for idx in order:
        u, c = float(prod_nodes[idx]), float(prod_coeffs[idx])
        if nodes_out and abs(u - nodes_out[-1]) <= _NODE_MERGE_REL * max(1.0, abs(u), abs(nodes_out[-1])):
            coeffs_out[-1] += c
        else:
            nodes_out.append(u)
            coeffs_out.append(c)
    nodes_arr = np.array(nodes_out)
    coeffs_arr = np.array(coeffs_out)
    keep = np.abs(coeffs_arr) > _COEFF_DROP_ABS
    return VandermondeDecomposition(nodes_arr[keep], coeffs_arr[keep])


def from_measure(mu, order, dim):
    """Hankel tensor whose generating vector is the measure's moment sequence."""
    if order < 2 or dim < 2:
        raise ValueError("order and dim must both be at least 2")
    top = (dim - 1) * order
    if mu.nodes.shape[0] == 0:
        return HankelTensor(order, dim, np.zeros(top + 1))
    gen = _power_matrix(mu.nodes, top) @ mu.weights
    return HankelTensor(order, dim, gen)
