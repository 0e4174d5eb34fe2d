"""Objects associated with a Hankel tensor.

Two companions drive most structural results: the associated Hankel *matrix*
(whose positive semidefiniteness defines strong Hankel tensors) and the
associated *plane tensor*, a binary form of degree ``(n-1)*m`` carrying the
entry-count weights ``s(k, m, n)``.  When ``(n-1)*m`` is odd the matrix has
one free corner entry, and the tensor is strong iff some completion makes it
PSD, which holds iff the minimal completion c* = b^T P^+ b does.  Strength is
one eigenvalue test at every degree: the (minimally completed) matrix's
smallest eigenvalue must be at least ``-tol * max(1, max |v|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import HankelTensor, _as_finite_vector

_PLANE_DEGREE_CAP = 60


def _counts_all(order, dim):
    """Exact counts of index tuples by index sum, via integer convolution.

    counts[k] = number of (i_1..i_m) in [1..n]^m with sum(i_j) - m = k.
    """
    if order < 1 or dim < 1:
        raise ValueError("order and dim must be positive")
    counts = [1]
    for _ in range(order):
        prev = counts
        counts = [0] * (len(prev) + dim - 1)
        for j, c in enumerate(prev):
            for d in range(dim):
                counts[j + d] += c
    return counts


def count_s(k, order, dim):
    """Number of entries of an order/dim Hankel tensor that read slot ``k``."""
    top = (dim - 1) * order
    if not (0 <= k <= top):
        raise ValueError(f"k = {k} outside 0..{top}")
    return _counts_all(order, dim)[k]


@dataclass(frozen=True)
class HankelMatrix:
    """Associated Hankel matrix of size q = ceil(((n-1)m + 2) / 2).

    ``w`` holds the tensor's generating vector; ``completion`` is the extra
    corner entry needed exactly when ``(n-1)*m`` is odd.
    """

    size: int
    w: np.ndarray
    completion: Optional[float]

    def __post_init__(self):
        w = _as_finite_vector(self.w, "w")
        need = 2 * self.size - 1
        have = w.shape[0] + (0 if self.completion is None else 1)
        if have != need:
            raise ValueError(f"matrix of size {self.size} needs {need} antidiagonal values, got {have}")
        if self.completion is not None and not np.isfinite(self.completion):
            raise ValueError("completion must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    def matrix(self):
        """Materialise the symmetric q x q matrix with entries w[i+j]."""
        full = np.asarray(self.w)
        if self.completion is not None:
            full = np.concatenate([full, [self.completion]])
        i = np.arange(self.size)
        return full[i[:, None] + i[None, :]]


def assoc_matrix(a, completion=None):
    """Associated Hankel matrix of ``a``.

    A completion value may only be supplied when ``(n-1)*m`` is odd; it
    defaults to 0 in that case.
    """
    top = (a.dim - 1) * a.order
    q = (top + 2 + 1) // 2  # ceil((top + 2) / 2)
    if top % 2 == 0:
        if completion is not None:
            raise ValueError("completion not applicable: (dim-1)*order is even")
        return HankelMatrix(q, a.gen, None)
    c = 0.0 if completion is None else float(completion)
    return HankelMatrix(q, a.gen, c)


def psd_check(m, tol=1e-10):
    """Decide positive semidefiniteness of a symmetric matrix.

    Returns ``(is_psd, min_eigenvalue, witness)`` where the witness is a unit
    eigenvector for the most negative eigenvalue (None when PSD).  The
    threshold is relative: ``min_eig >= -tol * max(1, max |entry|)``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("m must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("m must contain only finite values")
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    min_eig = float(vals[0])
    if min_eig >= -tol * scale:
        return True, min_eig, None
    return False, min_eig, vecs[:, 0]


@dataclass(frozen=True)
class StrongCertificate:
    is_strong: bool
    min_eigenvalue: float
    completion_used: Optional[float]
    violation_vector: Optional[np.ndarray]


def is_strong(a, tol=1e-10):
    """Decide whether ``a`` is a strong Hankel tensor.

    One test decides at every degree: the smallest eigenvalue of the
    associated matrix must be at least ``-cut``, with
    ``cut = tol * max(1, max |v|)``.  Even ``(n-1)*m``: the matrix is unique.
    Odd: M(c) = [[P, b], [b^T, c]] is tested at the minimal completion
    c* = sum_i bh_i^2 / lam_i over the eigenpairs (lam_i, V_i) of P with
    lam_i > cut, where bh = V^T b; some c makes M(c) PSD iff M(c*) is.  The
    cut does not grow with c*, which reaches about 1/tol when P has an
    eigenvalue just above the cut, so a large c* cannot mask an indefinite P.
    When not strong, the violation vector is the unit eigenvector of M's
    smallest eigenvalue, so z^T M z = min_eigenvalue < 0 for the reported
    matrix.
    """
    cut = tol * max(1.0, float(np.max(np.abs(a.gen))))
    completion = None
    if (a.dim - 1) * a.order % 2:
        m0 = assoc_matrix(a).matrix()
        lam, vecs = np.linalg.eigh(m0[:-1, :-1])
        bh = vecs.T @ m0[:-1, -1]
        keep = lam > cut
        completion = float(np.sum(bh[keep] ** 2 / lam[keep]))
    vals, vecs = np.linalg.eigh(assoc_matrix(a, completion).matrix())
    min_eig = float(vals[0])
    ok = min_eig >= -cut
    return StrongCertificate(ok, min_eig, completion, None if ok else vecs[:, 0])


@dataclass(frozen=True)
class PlaneTensor:
    """Binary form of degree ``l`` given by coefficients p_0..p_l.

    The form evaluates as sum_k C(l,k) p_k y1^(l-k) y2^k.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        coeffs = _as_finite_vector(self.coeffs, "coeffs")
        if coeffs.shape[0] != self.degree + 1:
            raise ValueError(f"coeffs has length {coeffs.shape[0]}, expected degree+1 = {self.degree + 1}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)


def assoc_plane(a):
    """Associated plane tensor: p_k = s(k, m, n) * v_k / C((n-1)m, k).

    Counts and binomials are exact integers; the ratio is formed in exact
    arithmetic before the single rounding to float.
    """
    top = (a.dim - 1) * a.order
    if top > _PLANE_DEGREE_CAP:
        raise ValueError(f"plane degree {top} exceeds the capacity cap {_PLANE_DEGREE_CAP}")
    counts = _counts_all(a.order, a.dim)
    p = np.array(
        [(counts[k] / math.comb(top, k)) * a.gen[k] for k in range(top + 1)]
    )
    return PlaneTensor(top, p)


def copositive_necessary(a):
    """Necessary condition for copositivity: all v_{(i-1)m} >= 0.

    Returns ``(passes, failing_index)`` with the least failing 1-based
    coordinate, or None when the condition holds.
    """
    for i in range(1, a.dim + 1):
        if a.gen[(i - 1) * a.order] < 0:
            return False, i
    return True, None
