"""Copositivity and circle extremes of plane (binary) forms.

A plane tensor P is a two-dimensional Hankel tensor: of order l with
generating vector p_0..p_l, it evaluates as sum_k C(l,k) p_k y1^(l-k) y2^k.
On the nonnegative quadrant its sign is governed by the segment function
phi(t) = P(t, 1-t) for t in [0, 1]; on the unit circle its extremes are the
extreme Z-eigenvalues of P.  Every routine here takes any tensor of dim 2
and rejects other dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyroots
from .core import _VERDICT_CUT, _forms


def _plane(p):
    """Degree l and coefficients p_0..p_l of the two-dimensional tensor ``p``."""
    if p.dim != 2:
        raise ValueError(f"plane routines require dim = 2, got dim = {p.dim}")
    return p.order, p.gen


@dataclass(frozen=True)
class CopositivityReport:
    is_copositive: bool
    witness_t: float | None
    critical_points: list
    min_phi: float


def copositive_check(p):
    """Decide copositivity of a plane tensor, that is, of any tensor with dim 2.

    One fixed cutoff, cut = 1e-10 * max(1, max |p_k|), the one ``is_strong``
    uses, judges every examined point: the plane is copositive iff
    phi >= -cut at each of them.  When an endpoint value phi(0) = p_l or
    phi(1) = p_0 is below -cut, the examined points are the two endpoints
    alone.  Otherwise they are the endpoints and every interior critical
    point of phi, a root of phi', whose Bernstein coefficients are the
    differences of b_k = p_(l-k).  The witness is the examined point where
    phi is least; compare ``min_phi`` for another cut.  ``copositive_falsify``
    cuts 100 times finer, so on p = (1, -(1 + 1e-11), 1), min_phi = -5e-12,
    this check says copositive and the falsifier returns a witness.
    """
    coeffs = _plane(p)[1]
    cut = _VERDICT_CUT * max(1.0, float(np.max(np.abs(coeffs))))
    if min(coeffs[0], coeffs[-1]) < -cut:
        ts = np.array([0.0, 1.0])
        values = coeffs[[-1, 0]]
    else:
        ts = np.array([0.0] + polyroots.bernstein_roots(np.diff(coeffs[::-1])) + [1.0])
        values = _forms(p, np.stack([ts, 1.0 - ts], axis=1))
    i = int(np.argmin(values))
    min_phi = float(values[i])
    copositive = min_phi >= -cut
    return CopositivityReport(copositive, None if copositive else float(ts[i]), ts.tolist(), min_phi)


@dataclass(frozen=True)
class PlaneExtremes:
    lambda_min: float
    y_min: np.ndarray
    lambda_max: float
    y_max: np.ndarray


def z_extremes(p):
    """Extreme values of the form on the unit circle, with unit witnesses.

    The stationary points on the circle are the zeros of the binary form
    y2 dP/dy1 - y1 dP/dy2, whose coefficients are
    q_j = j p_(j-1) - (l-j) p_(j+1); each zero direction is tried with both
    signs, together with the axes.
    """
    l, c = _plane(p)
    j = np.arange(l + 1)
    q = j * np.r_[0.0, c[:-1]] - (l - j) * np.r_[c[1:], 0.0]
    dirs = polyroots.form_directions(q)
    ys = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    ys = np.concatenate([ys, -ys])
    vals = _forms(p, ys)
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
    return PlaneExtremes(float(vals[i_min]), ys[i_min], float(vals[i_max]), ys[i_max])
