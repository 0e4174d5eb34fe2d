"""Real roots of polynomials in Bernstein form (internal).

One subdivision engine serves the segment function of a plane tensor, its
circle extremes and the two-dimensional H-spectrum: de Casteljau halving,
with Descartes' rule of signs on the Bernstein coefficients deciding which
pieces can hold a root (Mourrain & Pavone, "Subdivision methods for solving
polynomial equations", J. Symb. Comput. 44, 2009).  Nothing is converted to
the monomial basis.  ``_scaled_terms`` alone builds the terms b_k C(l,k),
scaled by a power of two, that its Horner step, ``_horner``, evaluates.

A piece that holds exactly one root hands it to Illinois regula falsi.  Each
of its steps costs O(l) float operations, not an O(l^2) de Casteljau pass:
Horner's rule in u = t/(1-t) or u = (1-t)/t, whichever is at most 1, on
those terms; the plane routines take their values at the roots the same
way.  That evaluation is wrong by at most
3(l+1) eps sum_k |b_k| C(l,k) (1-t)^(l-k) t^k, the same order as de
Casteljau's bound, so the two can disagree on a sign only where the
polynomial is at rounding level.

The engine takes degrees up to 1023, the one degree cap: C(l,k) and the
scaled terms stay below 2^l, so nothing overflows; a higher degree is
refused with a ``ValueError`` before any work.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import _unit_scaled

_MIN_WIDTH = 1e-12
_EPS = float(np.finfo(float).eps)
_MAX_DEGREE = 1023


@lru_cache(maxsize=10)
def _pascal(size):
    """The halving matrices of degree size - 1, shared by every lower degree (read-only).

    Left half: b_i = 2^-i sum_{j<=i} C(i,j) b_j; the right half mirrors it.
    Each row is an exact Pascal row rounded to float once; scaling it by 2^-i
    is exact, so every entry is the correctly rounded C(i,j) / 2^i.  Row i
    does not depend on the degree, so the leading block of ``left`` and the
    trailing block of ``right`` are the matrices of any lower degree.
    """
    left = np.zeros((size, size))
    row = [1]
    for i in range(size):
        left[i, : i + 1] = np.array(row, dtype=float) * 2.0**-i
        row = [x + y for x, y in zip([0] + row, row + [0])]
    right = left[::-1, ::-1].copy()
    left.flags.writeable = False
    right.flags.writeable = False
    return left, right


@lru_cache(maxsize=64)
def _halving(l):
    """Matrices taking degree-l Bernstein coefficients on a piece to its halves.

    They are views into ``_pascal`` of the least power-of-two size 2^k >= l + 1,
    so up to degree 1023 at most ten sizes, 22.4 MB in all, are ever built.
    """
    left, right = _pascal(1 << l.bit_length())
    return left[: l + 1, : l + 1], right[-(l + 1) :, -(l + 1) :]


@lru_cache(maxsize=64)
def _binomials(l):
    """C(l,k) for k = 0..l as floats (read-only); a degree above 1023 is refused."""
    if l > _MAX_DEGREE:
        raise ValueError(f"degree {l} exceeds the root engine's limit {_MAX_DEGREE}")
    c = np.array([float(math.comb(l, k)) for k in range(l + 1)])
    c.flags.writeable = False
    return c


def _scaled_terms(b):
    """``(e, 2^-e b, terms)``, e the binary exponent of max |b_k|, terms_k = 2^-e b_k C(l,k).

    The scaling is exact and keeps every term, and every Horner sum over
    them, below 2^l in magnitude, so nothing overflows up to degree 1023.
    """
    e, scaled = _unit_scaled(b)
    return e, scaled, (scaled * _binomials(b.size - 1)).tolist()


def _horner(terms, t):
    """sum_k terms_k (1-t)^(l-k) t^k for 0 < t < 1 in O(l) float operations.

    Horner's rule runs in u = t/(1-t) over the reversed terms when t <= 1/2,
    and in u = (1-t)/t over the terms in order otherwise, so u <= 1; the sum
    is then multiplied by (1-t)^l or t^l.  With terms_k = b_k C(l,k)
    rounded to float, the result is the Bernstein value of b wrong by at most
    3(l+1) eps sum_k |b_k| C(l,k) (1-t)^(l-k) t^k, barring underflow.
    """
    l = len(terms) - 1
    acc = 0.0
    if t <= 0.5:
        s = 1.0 - t
        u = t / s
        for c in reversed(terms):
            acc = acc * u + c
        return acc * s**l
    u = (1.0 - t) / t
    for c in terms:
        acc = acc * u + c
    return acc * t**l


def _falsi(terms, lo, hi, flo, fhi):
    """The root of b inside (lo, hi), where its scaled values flo and fhi differ in sign.

    Illinois regula falsi.  Every second step bisects instead when the two
    steps before it have not halved the bracket, so that skewed end values
    cannot stall it.  Each step costs O(l): ``_horner`` on the terms that
    ``_scaled_terms(b)`` returns, and flo and fhi are values of its 2^-e b,
    so the value at t is 2^-e b(t) within
    3(l+1) eps 2^-e sum_k |b_k| B_k(t), B_k the Bernstein basis.  That is the
    order of de Casteljau's error, so the two can take different signs only
    where b is at rounding level.
    """
    side = 0
    t = lo
    width = hi - lo
    step = 0
    while hi - lo > 2.0 * _EPS:
        step += 1
        t = (lo * fhi - hi * flo) / (fhi - flo)
        if step % 2 == 0:
            if hi - lo > 0.5 * width:
                t = 0.5 * (lo + hi)
            width = hi - lo
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        ft = _horner(terms, t)
        if ft == 0.0:
            return t
        if (ft > 0.0) == (fhi > 0.0):
            hi, fhi = t, ft
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = t, ft
            if side == 1:
                fhi *= 0.5
            side = 1
    return t


def bernstein_roots(b):
    """Distinct roots in (0, 1) of sum_k b_k C(l,k) (1-t)^(l-k) t^k.

    Each piece carries a running bound on the rounding error of its
    coefficients; a coefficient within its bound is at rounding level and
    has no sign.  Pieces are halved while the signed coefficients change
    sign more than once.  A piece with a single sign change between signed
    end coefficients holds exactly one root, which regula falsi refines on
    the whole polynomial.  A rounding-level value at a split point is a root
    there.  A piece narrower than 1e-12, or one whose coefficients are all
    at rounding level, is one candidate at its midpoint; touching candidates
    of that kind merge into one.  A degree above 1023 is refused first, and
    the rest runs on ``_scaled_terms``' exact 2^-e b, which moves no root.
    """
    b = np.asarray(b, dtype=float)
    l = b.size - 1
    if l < 1:
        return []
    _, b, terms = _scaled_terms(b)
    if not b.any():
        return []
    gamma = (l + 2) * _EPS
    left, right = _halving(l)
    found = []  # (lo, hi) of each root's enclosure; a point when refined
    stack = [(0.0, 1.0, b, _EPS * np.abs(b))]
    while stack:
        lo, hi, c, err = stack.pop()
        mag = np.abs(c)
        signed = mag > err
        if not signed.any() or hi - lo < _MIN_WIDTH:
            found.append((lo, hi))
            continue
        signs = c[signed] > 0.0
        changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
        if changes == 0:
            continue
        if changes == 1 and signed[0] and signed[-1]:
            t = _falsi(terms, lo, hi, float(c[0]), float(c[-1]))
            found.append((t, t))
            continue
        mid = 0.5 * (lo + hi)
        err = err + gamma * mag
        cl, el = left @ c, left @ err
        if abs(cl[-1]) <= el[-1]:
            found.append((mid, mid))
        stack.append((mid, hi, right @ c, right @ err))
        stack.append((lo, mid, cl, el))

    found.sort()
    merged = []
    for lo, hi in found:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [0.5 * (lo + hi) for lo, hi in merged if 0.0 < 0.5 * (lo + hi) < 1.0]


def form_directions(q):
    """Rows (y1, y2) of a (K, 2) array where sum_j C(l,j) q_j y1^(l-j) y2^j can vanish.

    The charts y = (1-u, u) and y = (1-u, -u), u in [0, 1], meet every line
    through the origin; their Bernstein coefficients are q_j and (-1)^j q_j.
    The chart corners (1, 0) and (0, 1) come first.  No line is met twice,
    but a chart root can lie within rounding of a corner.
    """
    q = np.asarray(q, dtype=float)
    dirs = [[1.0, 0.0], [0.0, 1.0]]
    for sign in (1.0, -1.0):
        dirs += [[1.0 - u, sign * u] for u in bernstein_roots(q * sign ** np.arange(q.size))]
    return np.array(dirs)
