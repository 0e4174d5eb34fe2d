"""Reference computations that share no code with the package.

Everything here is built from the definitions: the dense tensor from index
sums, forms and gradients by contracting it, the associated plane and the
segment function phi from integer entry counts and binomials, circle and
segment scans on fine grids, the associated Hankel matrix with ``eigvalsh``,
and moment sums sum_k alpha_k u_k^i by repeated multiplication.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def scale_of(gen):
    return max(1.0, float(np.max(np.abs(gen))))


def dense(gen, order, dim):
    """The order-``order`` array with entry gen[i_1 + ... + i_m] (0-based)."""
    idx = np.zeros((), dtype=np.int64)
    for _ in range(order):
        idx = np.add.outer(idx, np.arange(dim))
    return np.asarray(gen, dtype=float)[idx]


def forms(t, xs):
    """A x^m for every row of ``xs`` (shape (N, n)) by full contraction."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = t.shape[0]
    v = t.reshape(-1, n) @ xs.T
    while v.shape[0] > 1:
        v = np.einsum("ian,na->in", v.reshape(-1, n, xs.shape[0]), xs)
    return v[0]


def gradient(t, x):
    """A x^(m-1): the dense tensor contracted with x in all but one slot."""
    v = t
    while v.ndim > 1:
        v = v @ x
    return v


def entry_counts(order, dim):
    """s(k, m, n): index tuples in {0..n-1}^m with sum k, by inclusion-exclusion
    over the parts that exceed n-1."""
    return [
        sum(
            (-1) ** j * math.comb(order, j) * math.comb(k - j * dim + order - 1, order - 1)
            for j in range(order + 1)
            if k - j * dim >= 0
        )
        for k in range((dim - 1) * order + 1)
    ]


def plane_coeffs(gen, order, dim):
    """p_k = s(k, m, n) v_k / C(l, k) of the associated plane tensor."""
    l = (dim - 1) * order
    s = entry_counts(order, dim)
    return np.array([float(s[k] * gen[k]) / math.comb(l, k) for k in range(l + 1)])


def phi_grid(coeffs, points=100001):
    """phi(t) = sum_k C(l,k) p_k t^(l-k) (1-t)^k on an even grid of [0, 1].

    Evaluated as a polynomial in r = t/(1-t) on the left half and in
    1/r on the right half, so no power overflows.
    """
    p = np.asarray(coeffs, dtype=float)
    l = p.shape[0] - 1
    c = np.array([math.comb(l, k) * p[k] for k in range(l + 1)])
    t = np.linspace(0.0, 1.0, points)
    out = np.empty_like(t)
    left = t <= 0.5
    tl, tr = t[left], t[~left]
    # left: (1-t)^l * sum_k c_k r^(l-k), r = t/(1-t)
    r = tl / (1.0 - tl)
    acc = np.zeros_like(r)
    for k in range(l + 1):
        acc = acc * r + c[k]
    out[left] = acc * (1.0 - tl) ** l
    # right: t^l * sum_k c_k s^k, s = (1-t)/t
    s = (1.0 - tr) / tr
    acc = np.zeros_like(s)
    for k in range(l, -1, -1):
        acc = acc * s + c[k]
    out[~left] = acc * tr**l
    return out


def binary_form(coeffs, y1, y2):
    """sum_k C(l,k) p_k y1^(l-k) y2^k at arrays of points."""
    p = np.asarray(coeffs, dtype=float)
    l = p.shape[0] - 1
    total = np.zeros(np.broadcast(y1, y2).shape)
    for k in range(l + 1):
        total = total + math.comb(l, k) * p[k] * y1 ** (l - k) * y2**k
    return total


def circle_extremes(coeffs):
    """(min, max) of a binary form on the unit circle: a 4096-point scan,
    then two 512-point zooms around the best point of each side."""
    g = lambda th: binary_form(coeffs, np.cos(th), np.sin(th))
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = g(theta)
    out = []
    for pick in (np.argmin, np.argmax):
        centre, half = float(theta[int(pick(vals))]), 2.0 * np.pi / 4096
        best = float(vals[int(pick(vals))])
        for _ in range(3):
            zoom = np.linspace(centre - half, centre + half, 513)
            zv = g(zoom)
            i = int(pick(zv))
            centre, best, half = float(zoom[i]), float(zv[i]), half / 128.0
        out.append(best)
    return out[0], out[1]


def simplex_grid(dim, steps=64):
    """Every point of the simplex with coordinates in (1/steps) Z."""
    pts = []
    for cuts in itertools.combinations(range(steps + dim - 1), dim - 1):
        bounds = (-1,) + cuts + (steps + dim - 1,)
        pts.append([bounds[i + 1] - bounds[i] - 1 for i in range(dim)])
    return np.array(pts, dtype=float) / steps


def grid_min(t, grid, chunk=4096):
    """Smallest dense form value over the rows of ``grid``."""
    return min(float(np.min(forms(t, grid[i : i + chunk]))) for i in range(0, grid.shape[0], chunk))


def hankel_margins(gen, order, dim):
    """Expected strong verdict from the associated Hankel matrix.

    Even (n-1)m: the smallest eigenvalue of [v_{i+j}].  Odd: the corner is
    free, and the leading block P = [v_{i+j}] (size ((n-1)m + 1)/2) decides
    when it is definite either way.  Returns the smallest eigenvalue of the
    matrix that decides (even case) or of P (odd case).
    """
    l = (dim - 1) * order
    q = l // 2 + 1 if l % 2 == 0 else (l + 1) // 2
    i = np.arange(q)
    h = np.asarray(gen, dtype=float)[i[:, None] + i[None, :]]
    return float(np.linalg.eigvalsh(h)[0])


def moments(nodes, coeffs, top):
    """sum_k coeffs_k nodes_k^i for i = 0..top."""
    nodes = np.asarray(nodes, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.empty(top + 1)
    power = np.ones_like(nodes)
    for i in range(top + 1):
        out[i] = float(np.sum(coeffs * power))
        power = power * nodes
    return out
