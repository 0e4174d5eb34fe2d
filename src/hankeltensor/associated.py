"""Objects associated with a Hankel tensor.

Two companions drive most structural results, and both are Hankel tensors
themselves: the associated Hankel *matrix*, whose positive semidefiniteness
defines strong Hankel tensors, is the order-2 tensor of dim
q = ceil(((n-1)m + 2) / 2) with the same generating vector; the associated
*plane tensor* is the dim-2 tensor of order ``(n-1)*m`` carrying the
entry-count weights ``s(k, m, n)``.  Every tensor routine therefore applies
to either.  A tensor of dimension 2 is its own plane at every order, since
s(k, m, 2) = C(m, k); a plane is built at dimension 3 and up, at every
degree.  When ``(n-1)*m`` is odd the matrix has one free corner
entry, the last of its generating vector, and the tensor is strong iff some
completion makes it PSD, which holds iff the minimal completion
c* = b^T P^+ b does.  Strength is one eigenvalue test at every degree: the
(minimally completed) matrix's smallest eigenvalue must be at least
``-1e-10 * max(1, max |v|)``, the fixed cut that plane copositivity shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import _VERDICT_CUT, HankelTensor, _built


@lru_cache(maxsize=64)
def _counts_all(order, dim):
    """Exact counts of index tuples by index sum, via integer convolution.

    counts[k] = number of (i_1..i_m) in [1..n]^m with sum(i_j) - m = k.
    Memoised per shape; a tuple, so no caller can alter the cached counts.
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
    return tuple(counts)


@lru_cache(maxsize=64)
def _plane_weights(order, dim):
    """s(k, m, n) / C((n-1)m, k), each exact ratio rounded to float once (read-only)."""
    top = (dim - 1) * order
    w = np.array([c / math.comb(top, k) for k, c in enumerate(_counts_all(order, dim))])
    w.flags.writeable = False
    return w


def count_s(k, order, dim):
    """Number of entries of an order/dim Hankel tensor that read slot ``k``."""
    top = (dim - 1) * order
    if not (0 <= k <= top):
        raise ValueError(f"k = {k} outside 0..{top}")
    return _counts_all(order, dim)[k]


def assoc_matrix(a, completion=None):
    """Associated Hankel matrix of ``a``, as the order-2 :class:`HankelTensor`.

    Its dim is q = ceil(((n-1)m + 2) / 2) and its generating vector is the
    tensor's, so entry (i, j) is v_(i+j).  When ``(n-1)*m`` is odd one
    corner value is missing and is appended to the generating vector: the
    given ``completion``, 0 by default.  A completion may only be supplied
    then, and must be finite.
    """
    top = (a.dim - 1) * a.order
    q = (top + 2 + 1) // 2  # ceil((top + 2) / 2)
    if top % 2 == 0:
        if completion is not None:
            raise ValueError("completion not applicable: (dim-1)*order is even")
        return HankelTensor(2, q, a.gen)
    c = 0.0 if completion is None else float(completion)
    if not np.isfinite(c):
        raise ValueError("completion must be finite")
    return HankelTensor(2, q, np.append(a.gen, c))


@lru_cache(maxsize=64)
def _hankel_index(q):
    """The read-only q x q table of i + j, the index of a dense Hankel matrix."""
    idx = np.add.outer(np.arange(q), np.arange(q))
    idx.flags.writeable = False
    return idx


def _square(gen):
    """Dense q x q array of the Hankel matrix with generating vector ``gen``, of odd length 2q - 1.

    Entry (i, j) is gen[i + j].
    """
    return gen[_hankel_index((len(gen) + 1) // 2)]


@dataclass(frozen=True)
class StrongCertificate:
    is_strong: bool
    min_eigenvalue: float
    completion_used: Optional[float]
    violation_vector: Optional[np.ndarray]


def is_strong(a):
    """Decide whether ``a`` is a strong Hankel tensor.

    One test decides at every degree: the smallest eigenvalue of the
    associated matrix must be at least ``-cut``, with
    ``cut = 1e-10 * max(1, max |v|)``.  Even ``(n-1)*m``: the matrix is unique.
    Odd: M(c) = [[P, b], [b^T, c]] is tested at the minimal completion
    c* = sum_i bh_i^2 / lam_i over the eigenpairs (lam_i, V_i) of P with
    lam_i > cut, where bh = V^T b; some c makes M(c) PSD iff M(c*) is.  The
    cut does not grow with c*, which reaches about 1e10 when P has an
    eigenvalue just above the cut, so a large c* cannot mask an indefinite P.
    When not strong, the violation vector is the unit eigenvector of M's
    smallest eigenvalue, so z^T M z = min_eigenvalue < 0 for the reported
    matrix.  The cut is fixed; compare ``min_eigenvalue`` for another one.
    """
    big = float(np.max(np.abs(a.gen)))
    cut = _VERDICT_CUT * max(1.0, big)
    odd = (a.dim - 1) * a.order % 2
    # at odd degree the corner mat[-1, -1] is free, and c* is written there
    mat = _square(np.append(a.gen, 0.0) if odd else a.gen)
    completion = None
    if odd:
        # P and b enter eigh scaled by 2^-e < 1/max|v|, so bh^2 cannot
        # overflow; the scaling is exact and is undone on lam_i and c*
        e = int(np.frexp(big)[1])
        scaled = np.ldexp(mat, -e)
        lam, vecs = np.linalg.eigh(scaled[:-1, :-1])
        bh = vecs.T @ scaled[:-1, -1]
        keep = np.ldexp(lam, e) > cut
        with np.errstate(over="ignore"):
            completion = float(np.ldexp(np.sum(bh[keep] ** 2 / lam[keep]), e))
        if not np.isfinite(completion):
            raise ValueError("completion must be finite")
        mat[-1, -1] = completion
    vals, vecs = np.linalg.eigh(mat)
    min_eig = float(vals[0])
    ok = min_eig >= -cut
    return StrongCertificate(ok, min_eig, completion, None if ok else vecs[:, 0])


def assoc_plane(a):
    """Associated plane tensor: p_k = s(k, m, n) * v_k / C((n-1)m, k).

    The plane is the :class:`HankelTensor` of order l = (n-1)m, dim 2 and
    generating vector p_0..p_l, so every tensor routine applies to it; its
    form is sum_k C(l,k) p_k y1^(l-k) y2^k.
    At dim 2 every weight s(k, m, 2) / C(m, k) is 1, so ``a`` is returned
    itself, at every order.  At dim 3 and up the plane is built, at every
    degree; the plane routines refuse a degree above the root engine's 1023.
    Counts and binomials are exact integers.  Their ratio is rounded to float
    once, by integer true division, and the product with v_k rounds once
    more: p_k carries a relative error of at most eps (1 + eps/4).
    """
    if a.dim == 2:
        return a
    return _built(HankelTensor, (a.dim - 1) * a.order, 2, _plane_weights(a.order, a.dim) * a.gen)


def copositive_necessary(a):
    """Necessary condition for copositivity: all v_{(i-1)m} >= 0.

    Returns ``(passes, failing_index)`` with the least failing 1-based
    coordinate, or None when the condition holds.
    """
    for i in range(1, a.dim + 1):
        if a.gen[(i - 1) * a.order] < 0:
            return False, i
    return True, None
