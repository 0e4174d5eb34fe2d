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
from .core import _VERDICT_CUT, _no_overflow


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

    An end's value is its coefficient.  At an interior point, phi is one
    pass of the root engine's O(l) Horner step over the degree-l terms, so
    it is wrong by at most 3(l+1) eps sum_k |b_k| C(l,k) (1-t)^(l-k) t^k.
    All of it runs on p scaled by 2^-e, e the binary exponent of max |p_k|,
    which is exact, so nothing overflows; a phi past the float range is
    refused with ``ValueError("the form overflows the float range")``.  A
    plane whose ends clear the cut is refused above degree 1023, the root
    engine's cap, with a ``ValueError`` before any work.
    """
    _, coeffs = _plane(p)
    cut = _VERDICT_CUT * max(1.0, float(np.abs(coeffs).max()))
    if min(coeffs[0], coeffs[-1]) < -cut:
        ts, values = [0.0, 1.0], coeffs[[-1, 0]]
    else:
        e, b, terms = polyroots._scaled_terms(coeffs[::-1])
        roots = polyroots.bernstein_roots(b[1:] - b[:-1])
        ts = [0.0] + roots + [1.0]
        inner = [polyroots._horner(terms, t) for t in roots]
        values = [coeffs[-1], *_no_overflow("the form", lambda: np.ldexp(inner, e)), coeffs[0]]
    i = int(np.argmin(values))
    min_phi = float(values[i])
    copositive = min_phi >= -cut
    return CopositivityReport(copositive, None if copositive else ts[i], ts, min_phi)


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
    signs, together with the axes, which take p_0 and p_l.  In the chart
    y = (1-u, +-u) the form is the Bernstein polynomial of (+-1)^k p_k, so a
    root's value is the root engine's O(l) Horner step at u over |y|^l.  q
    and the Horner terms come from p scaled by 2^-e, e the binary exponent
    of max |p_k|, which is exact and moves no root, so nothing overflows
    there; an extreme past the float range is refused with
    ``ValueError("the form overflows the float range")``.
    """
    l, coeffs = _plane(p)
    e, c, terms = polyroots._scaled_terms(coeffs)
    j = np.arange(l + 1)
    q = j * np.r_[0.0, c[:-1]] - (l - j) * np.r_[c[1:], 0.0]
    dirs = polyroots.form_directions(q)
    norms = np.linalg.norm(dirs, axis=1)
    ys = dirs / norms[:, None]
    flip = [-x if k % 2 else x for k, x in enumerate(terms)]
    roots = zip(dirs[2:, 1].tolist(), norms[2:].tolist())
    chart = [polyroots._horner(terms if u > 0.0 else flip, abs(u)) / n**l for u, n in roots]
    vals = np.concatenate([coeffs[[0, -1]], _no_overflow("the form", lambda: np.ldexp(chart, e))])
    # the values at -y are (-1)^l times those at y
    ys, vals = np.concatenate([ys, -ys]), np.concatenate([vals, (-1.0) ** l * vals])
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
    return PlaneExtremes(float(vals[i_min]), ys[i_min], float(vals[i_max]), ys[i_max])
