"""Vandermonde decompositions of Hankel tensors.

Every Hankel tensor is a combination sum_k alpha_k u_k^{(x) m} of rank-one
symmetric powers of Vandermonde vectors (1, u, u^2, ..., u^(n-1)); on the
generating vector this reads v_i = sum_k alpha_k u_k^i.  A decomposition with
all alpha_k > 0 certifies a complete Hankel tensor, and the moments of a
nonnegative discrete measure generate one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import HankelTensor, _as_finite_vector, _frozen_vector, _no_overflow, _unit_scaled
from .errors import NumericalError

_NODE_MERGE_REL = 1e-12
_COEFF_DROP_REL = 1e-12
_RESIDUAL_REL = 1e-6


def _collides(s):
    """Which sorted neighbours lie within 1e-12 * max(1, |u|, |w|) of each other."""
    return s[1:] - s[:-1] <= _NODE_MERGE_REL * np.maximum(1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))


def _check_distinct(nodes, name):
    # A colliding pair brackets a colliding sorted neighbour pair: the one at
    # its larger-magnitude end has a gap no wider and a bound no smaller.
    s = np.sort(nodes)
    hit = _collides(s)
    if hit.any():
        raise ValueError(f"{name} must be pairwise distinct (collision at {s[np.argmax(hit)]!r})")


@dataclass(frozen=True)
class VandermondeDecomposition:
    """Nodes u_k and coefficients alpha_k of a Vandermonde combination."""

    nodes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = _frozen_vector(self.nodes, "nodes")
        coeffs = _frozen_vector(self.coeffs, "coeffs")
        if nodes.shape[0] != coeffs.shape[0]:
            raise ValueError("nodes and coeffs must have the same length")
        _check_distinct(nodes, "nodes")
        if (coeffs == 0.0).any():
            raise ValueError("coefficients must be nonzero")
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
        nodes = _frozen_vector(self.nodes, "nodes")
        weights = _frozen_vector(self.weights, "weights")
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes and weights must have the same length")
        _check_distinct(nodes, "nodes")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _moment_solve(nodes, rhs):
    """Solve sum_k z_k nodes_k^i = rhs_i without forming the power matrix.

    Bjorck-Pereyra elimination on the dual (moment) Vandermonde system
    (Bjorck & Pereyra, Math. Comp. 24, 1970); O(r^2) and far more accurate
    than a generic dense solve here.  On Python floats it does the IEEE
    operations of numpy slice updates, so it gives their bits; it is faster
    up to r of about 45 (47 against 81 us at r = 21) and 21 times slower at
    r = 1024 (122 against 5.8 ms; timeit, 2 cores, Python 3.11.7, numpy
    2.4.6), where ``decompose`` fails its residual gate anyway.
    """
    u = np.asarray(nodes, dtype=float).tolist()
    z = np.asarray(rhs, dtype=float).tolist()
    r = len(u)
    # downwards, so each entry reads its neighbour's old value
    for k in range(r - 1):
        for j in range(r - 1, k, -1):
            z[j] -= u[k] * z[j - 1]
    for k in range(r - 2, -1, -1):
        for j in range(k + 1, r):
            z[j] /= u[j] - u[j - k - 1]
        for j in range(k, r - 1):
            z[j] -= z[j + 1]
    return np.array(z)


def _power_matrix(nodes, top):
    """Matrix u_k^i for i = 0..top (0^0 = 1)."""
    return np.asarray(nodes, dtype=float)[None, :] ** np.arange(top + 1)[:, None]


@lru_cache(maxsize=16)
def _chebyshev(r):
    """The r Chebyshev points of the second kind and their power matrix up to r-1, read-only."""
    nodes = np.cos(np.arange(r) * np.pi / (r - 1))
    powers = _power_matrix(nodes, r - 1)
    nodes.flags.writeable = powers.flags.writeable = False
    return nodes, powers


def decompose(a, nodes=None):
    """Vandermonde decomposition of ``a`` on given or default nodes.

    Default nodes are the Chebyshev points of the second kind,
    cos(k pi / (r-1)) for k = 0..r-1 with r = (n-1)m + 1; they and their
    power matrix are cached for the last 16 values of r (8 MB at r = 1024).
    Coefficients below 1e-12 of the largest are dropped.  A residual above
    1e-6 * ||gen|| aborts with a numerical error.  Both norms are taken on
    their vectors scaled by 2^-e, e the binary exponent of max |v|, so the
    gate holds up to max |v| near 1e308; a solve that overflows there fails
    it, with the ``NumericalError``, as does any residual past the float range.

    Working range with the default nodes: the round trip through ``compose``
    stays within 1e-8 * max|v| up to (n-1)m = 20, and its error grows about
    2.5x per degree beyond that.  A ``NumericalError`` becomes possible from
    degree 29 and is certain from degree 34, far below the plane degrees
    up to 1023 that the plane routines take.  Of 200 dim-2 generating
    vectors drawn from uniform(-1, 1) per degree (numpy ``default_rng(0)``
    at each degree), none failed up to degree 28; 3 failed at 29, 53 at 30,
    166 at 31, 196 at 32, 199 at 33 and all 200 at 34 and 35.
    """
    r = (a.dim - 1) * a.order + 1
    if nodes is None:
        nodes, powers = _chebyshev(r)
    else:
        nodes = _as_finite_vector(nodes, "nodes")
        if nodes.shape[0] != r:
            raise ValueError(f"nodes has length {nodes.shape[0]}, expected (dim-1)*order+1 = {r}")
        _check_distinct(nodes, "nodes")
        powers = _power_matrix(nodes, r - 1)

    # an overflowing solve leaves a residual of inf or NaN, which the gate
    # refuses; the gate compares both norms at 2^-e, where neither overflows
    e, v = _unit_scaled(a.gen)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _moment_solve(nodes, a.gen)
        residual = np.linalg.norm(np.ldexp(powers @ alpha - a.gen, -e))
        limit = _RESIDUAL_REL * np.linalg.norm(v)
        if not residual <= limit:
            residual, limit = float(np.ldexp(residual, e)), float(np.ldexp(limit, e))
            raise NumericalError(
                f"decomposition residual {residual:.3e} exceeds {limit:.3e}; nodes too ill-conditioned",
                residual=residual,
            )
    keep = np.abs(alpha) > _COEFF_DROP_REL * np.abs(alpha).max()
    return VandermondeDecomposition(nodes[keep], alpha[keep])


def compose(d, order, dim):
    """Hankel tensor generated by v_i = sum_k alpha_k u_k^i."""
    gen = _no_overflow("the generating vector", lambda: _power_matrix(d.nodes, (dim - 1) * order) @ d.coeffs)
    return HankelTensor(order, dim, gen)


def is_positive(d):
    """True iff every coefficient is strictly positive (empty counts as yes)."""
    return bool(np.all(d.coeffs > 0.0))


def hadamard_vd(d1, d2):
    """Decomposition of the Hadamard product: all pairwise node products.

    Sorted product nodes that collide with their neighbour under the rule of
    ``_check_distinct`` (relative 1e-12) merge into runs, each kept at its
    smallest node with its coefficients summed left to right.  Coefficients
    below 1e-12 of the largest are then dropped, as in ``decompose``.
    """
    prod_nodes = _no_overflow("the product of the nodes", lambda: np.outer(d1.nodes, d2.nodes).ravel())
    prod_coeffs = _no_overflow(
        "the product of the coefficients", lambda: np.outer(d1.coeffs, d2.coeffs).ravel()
    )

    order = np.argsort(prod_nodes)
    s = prod_nodes[order]
    first = np.r_[True, ~_collides(s)][: s.size]
    nodes_arr = s[first]
    coeffs_arr = np.bincount(np.cumsum(first) - 1, weights=prod_coeffs[order])
    keep = np.abs(coeffs_arr) > _COEFF_DROP_REL * np.abs(coeffs_arr).max(initial=0.0)
    return VandermondeDecomposition(nodes_arr[keep], coeffs_arr[keep])


def from_measure(mu, order, dim):
    """Hankel tensor whose generating vector is the measure's moment sequence."""
    gen = _no_overflow(
        "the generating vector", lambda: _power_matrix(mu.nodes, (dim - 1) * order) @ mu.weights
    )
    return HankelTensor(order, dim, gen)
