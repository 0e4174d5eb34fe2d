"""Extreme eigenvalues, bounds, and copositivity falsification.

Extreme Z-eigenvalues are estimated by a shifted symmetric power iteration.
The shift adapts to the local curvature (the gradient's Jacobian is itself a
small Hankel matrix, so it costs one extra correlation per step) and any step
that would lower the Rayleigh value is rejected while the shift doubles
toward a globally sufficient cap, so every restart ascends monotonically.
Restarts combine the coordinate directions, the associated plane tensor's
circle extreme lifted to the unit sphere (the point where the plane bound is
taken), and seeded random directions; this makes the plane-derived bounds
hold against the estimates by construction.  Only the winning start is
polished, and ``converged`` is the returned pair's residual test.
For two-dimensional tensors the full H-spectrum reduces to the zero
directions of a single binary form.
Copositivity falsification evaluates the form on the simplex grid in row
chunks, through one batched kernel per chunk, in the order of
``itertools.combinations``; the first grid minimum wins, so ties on the grid
keep the earliest point.  A grid of up to 4 MB is built once per
(dim, steps) and kept; a larger one is streamed chunk by chunk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyroots
from .associated import _PLANE_DEGREE_CAP, assoc_plane
from .core import HankelTensor, _forms, _integer, _power_coeffs, eval_form, eval_gradient_form
from .plane import z_extremes

_LAMBDA_STALL_REL = 1e-12
_RESIDUAL_OK_REL = 1e-8
_GRID_CHUNK = 4096
_GRID_CACHE_BYTES = 4 << 20


@dataclass(frozen=True)
class EigenPair:
    kind: str
    value: float
    vector: np.ndarray
    converged: bool = True
    residual: float = 0.0


@dataclass(frozen=True)
class ZBounds:
    upper_for_min: float
    lower_for_max: float
    source: str


def _grad_and_jacobian(work, x, outer_idx):
    """A x^(m-1) together with the Hankel matrix M = A x^(m-2).

    M x equals the gradient form and (m-1) M is its Jacobian, so one sliding
    correlation yields the step direction and the local curvature at once.
    """
    c = _power_coeffs(x, work.order - 2)
    w = np.correlate(work.gen, c, mode="valid")
    m_mat = w[outer_idx]
    return m_mat @ x, m_mat


@lru_cache(maxsize=8)
def _plane_lifts(order, dim, gen_bytes):
    """Unit vectors x_min, x_max where the form takes its plane's circle extremes.

    The plane's circle extreme y lifts to w = (y1^(n-1-j) y2^j)_j, where
    A w^m = P(y), so x = w/|w| carries the plane extreme onto the unit
    sphere.  Whether the tensor has a plane is ``assoc_plane``'s to decide;
    at dim 2 the plane is the tensor and the lift is y/|y|.
    Memoised on the tensor's content: the min and max starts of
    ``zeig_extreme`` and ``bounds_prop7`` share one ``z_extremes`` call.
    """
    a = HankelTensor(order, dim, np.frombuffer(gen_bytes))
    ext = z_extremes(assoc_plane(a))
    ys = np.array([ext.y_min, ext.y_max])
    j = np.arange(dim)
    w = ys[:, :1] ** (dim - 1 - j) * ys[:, 1:] ** j
    lifts = w / np.linalg.norm(w, axis=1, keepdims=True)
    lifts.flags.writeable = False
    return lifts


def _newton_polish(work, x, lam, outer_idx, steps=8):
    """Newton steps on [A x^(m-1) - lam x; (|x|^2 - 1)/2] = 0.

    The power iteration's Rayleigh values converge fast but the vector can
    creep when the eigen-gap is small; a few Newton steps land on the nearby
    stationary point at quadratic rate.
    """
    n = work.dim
    eye = np.eye(n)
    for _ in range(steps):
        g, m_mat = _grad_and_jacobian(work, x, outer_idx)
        f = np.concatenate([g - lam * x, [0.5 * (float(x @ x) - 1.0)]])
        if float(np.max(np.abs(f))) <= 1e-15 * (1.0 + abs(lam)):
            break
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = (work.order - 1) * m_mat - lam * eye
        jac[:n, n] = -x
        jac[n, :n] = x
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        x = x + delta[:n]
        lam = lam + float(delta[n])
        nrm = float(np.linalg.norm(x))
        if not 1e-300 <= nrm < np.inf:
            break
        x = x / nrm
    g = eval_gradient_form(work, x)
    lam = float(np.dot(x, g))
    residual = float(np.max(np.abs(g - lam * x)))
    return x, lam, residual


def zeig_extreme(a, mode, restarts=20, iters=500, seed=0):
    """Estimate the extreme Z-eigenpair of ``a``.

    Shifted power iteration x <- normalize(A x^(m-1) + beta x), with beta set
    from the smallest eigenvalue of the local Jacobian A x^(m-2) and raised
    toward the always-sufficient cap (m-1) * sum_k s(k,m,n) |v_k| whenever a
    step fails to increase the Rayleigh value, so the iterate value never
    drops; a stall, or a step whose norm is zero or overflows, ends a start.
    ``mode='min'`` runs the method on -A.
    Deterministic starts are always included: the coordinate vectors, and
    the lifted plane extreme of the mode when dim is 2 or the plane degree
    (dim-1)*order is within the cap; at dim 2 above order 1023 the circle
    extremes, and so the call, are refused by the root engine.
    ``restarts`` seeded random starts are added.  The start of highest value
    (the first on ties) alone gets a guarded Newton polish, and ``converged``
    is its residual test, residual <= 1e-8 * (1 + |lambda|).  A cap sum that
    overflows a float is refused with a ``ValueError``; with |v| <= 1 that
    takes order 647 or more at dim 3.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    restarts = _integer("restarts", restarts)
    iters = _integer("iters", iters)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")

    starts = [np.eye(a.dim)[i] for i in range(a.dim)]
    top = (a.dim - 1) * a.order
    if a.dim == 2 or top <= _PLANE_DEGREE_CAP:
        x_min, x_max = _plane_lifts(a.order, a.dim, a.gen.tobytes())
        starts.append(x_max if mode == "max" else x_min)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        v = rng.standard_normal(a.dim)
        starts.append(v / np.linalg.norm(v))

    scale = float(np.dot(_power_coeffs(np.ones(a.dim), a.order), np.abs(a.gen)))
    if not np.isfinite(scale):
        raise ValueError(f"the shift scale overflows at order {a.order}, dim {a.dim}")
    sign = 1.0 if mode == "max" else -1.0
    work = HankelTensor(a.order, a.dim, sign * np.asarray(a.gen))
    beta_cap = (a.order - 1) * scale + 1e-12
    beta_pad = 1e-9 * (1.0 + scale)
    idx = np.arange(a.dim)
    outer_idx = idx[:, None] + idx[None, :]

    def local_beta(m_mat):
        low = float(np.linalg.eigvalsh(m_mat)[0])
        return (a.order - 1) * max(0.0, -low) + beta_pad

    best = None
    # a step whose norm overflows ends its start (the guard below), so its
    # overflow warning is silenced, by one errstate per call, not per step
    with np.errstate(over="ignore"):
        for x0 in starts:
            x = x0 / np.linalg.norm(x0)
            g, m_mat = _grad_and_jacobian(work, x, outer_idx)
            lam = float(np.dot(x, g))
            beta = local_beta(m_mat)
            for _ in range(iters):
                y = g + beta * x
                nrm = float(np.linalg.norm(y))
                if not 1e-300 <= nrm < np.inf:
                    break
                x_new = y / nrm
                g_new, m_new = _grad_and_jacobian(work, x_new, outer_idx)
                lam_new = float(np.dot(x_new, g_new))
                if lam_new < lam - 1e-14 * (1.0 + abs(lam)) and beta < beta_cap:
                    beta = min(max(2.0 * beta, 1e-6 * (1.0 + scale)), beta_cap)
                    continue
                x, g, m_mat = x_new, g_new, m_new
                if abs(lam_new - lam) <= _LAMBDA_STALL_REL * (1.0 + abs(lam_new)):
                    lam = lam_new
                    break
                lam = lam_new
                beta = local_beta(m_mat)
            if best is None or lam > best[0]:
                best = (lam, x, g)
    lam, x, g = best
    residual = float(np.max(np.abs(g - lam * x)))
    x_p, lam_p, residual_p = _newton_polish(work, x, lam, outer_idx)
    if residual_p < residual and lam_p >= lam - 1e-9 * (1.0 + abs(lam)):
        x, lam, residual = x_p, lam_p, residual_p
    converged = residual <= _RESIDUAL_OK_REL * (1.0 + abs(lam))
    return EigenPair("Z", sign * lam, x, converged, residual)


def heig_dim2(a):
    """All H-eigenpairs of a two-dimensional Hankel tensor.

    With F = A x^(m-1), the eigenvectors are the zero directions of the
    binary form y1^(m-1) F_2(y) - y2^(m-1) F_1(y) of degree 2m-2: the axes
    and the chart roots of the Bernstein root engine.  Each candidate is
    divided by its signed largest coordinate, which becomes 1, and lambda
    is F there; F and its rounding scale max(|A| |x|^(m-1)) (|A| has
    generating vector |v|) are evaluated at all candidates at once.  A
    candidate is kept when the eigen residual is within
    1e-8 * min(1 + |lambda|, max(|A| |x|^(m-1))), so a direction where
    A x^(m-1) is merely small is not an eigenvector.  A chart root within
    1e-9 of a kept axis, lambda within 1e-9 * (1 + |lambda|), is the same
    eigenpair (v_1 or v_(m-1) tiny puts it there); of each such group only
    the member of smallest residual is reported.  When the form vanishes
    (every direction is an eigenvector) the axes are the representatives.
    """
    if a.dim != 2:
        raise ValueError("heig_dim2 requires dim = 2")
    m = a.order
    v = np.asarray(a.gen)
    binom = polyroots._binomials(m - 1)
    g = np.zeros(2 * m - 1)  # monomial weights of y1^(2m-2-j) y2^j
    g[:m] += binom * v[1:]
    g[m - 1 :] -= binom * v[:m]
    xs = polyroots.form_directions(g / polyroots._binomials(2 * m - 2))
    i = np.arange(xs.shape[0])
    top = np.argmax(np.abs(xs), axis=1)
    xs = xs / xs[i, top][:, None]

    rows = np.stack([v[:-1], v[1:]], axis=1)[:, :, None]
    grad = polyroots._value(rows, xs[:, 0], xs[:, 1])
    scale = np.max(polyroots._value(np.abs(rows), np.abs(xs[:, 0]), np.abs(xs[:, 1])), axis=0)
    lam = grad[top, i]
    residual = np.max(np.abs(grad - lam * xs.T ** (m - 1)), axis=0)
    keep = residual <= 1e-8 * np.minimum(1.0 + np.abs(lam), scale)
    near = np.max(np.abs(xs[2:, None] - xs[:2]), axis=2) <= 1e-9
    near &= np.abs(lam[2:, None] - lam[:2]) <= 1e-9 * (1.0 + np.abs(lam[:2]))
    near &= keep[2:, None] & keep[:2]
    for j in np.flatnonzero(np.any(near, axis=0)):
        group = np.r_[j, 2 + np.flatnonzero(near[:, j])]
        keep[group] = group == group[np.argmin(residual[group])]
    pairs = [EigenPair("H", float(lam[j]), xs[j], True, float(residual[j])) for j in np.flatnonzero(keep)]
    return sorted(pairs, key=lambda p: (-p.value, tuple(p.vector)))


def bounds_prop6(a):
    """Coordinate-direction bounds: the form's values at the unit vectors."""
    vals = [float(a.gen[(i - 1) * a.order]) for i in range(1, a.dim + 1)]
    return ZBounds(min(vals), max(vals), "prop6")


def bounds_prop7(a):
    """Bounds from the associated plane tensor's circle extremes.

    Each bound is the form's value at a lifted circle extreme, a point of the
    unit sphere, and any such value lies between the extreme Z-eigenvalues,
    so the bounds hold at every parity of (dim-1)*order.  ``zeig_extreme``
    starts from the same lifts, odd degree included, so its estimates sit
    inside them.  A tensor without a plane is refused by ``assoc_plane``.
    """
    x_min, x_max = _plane_lifts(a.order, a.dim, a.gen.tobytes())
    return ZBounds(eval_form(a, x_min), eval_form(a, x_max), "prop7")


def odd_sign_check(pair, cls, order):
    """Sign pattern required of Z-eigenpairs of odd-order complete/strong tensors.

    lambda > 0 demands x_i >= -1e-9 at every odd (1-based) coordinate, plus
    x_1 >= 1e-12 for class 'complete'; lambda < 0 demands the mirrored signs;
    |lambda| <= 1e-12 passes vacuously.
    """
    if cls not in ("complete", "strong"):
        raise ValueError("cls must be 'complete' or 'strong'")
    if pair.kind != "Z":
        raise ValueError("odd_sign_check applies to Z eigenpairs")
    if order % 2 == 0:
        raise ValueError("odd_sign_check applies to odd orders")
    lam = pair.value
    if abs(lam) <= 1e-12:
        return True
    sgn = 1.0 if lam > 0 else -1.0
    x = sgn * np.asarray(pair.vector)
    if np.any(x[0::2] < -1e-9):
        return False
    if cls == "complete" and x[0] < 1e-12:
        return False
    return True


def _project_simplex(x):
    """Euclidean projection onto the standard simplex."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.shape[0] + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _simplex_chunks(dim, steps):
    """The barycentric grid with denominator ``steps``, in row chunks.

    Rows follow ``itertools.combinations`` of the dim-1 cut positions among
    steps+dim-1 slots; the parts are the gaps between consecutive cuts.
    """
    cuts = itertools.combinations(range(steps + dim - 1), dim - 1)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(cuts, _GRID_CHUNK))
        block = np.fromiter(flat, dtype=np.intp).reshape(-1, dim - 1)
        if block.shape[0] == 0:
            return
        # sentinel cuts one slot before the first and one past the last
        ends = np.full((block.shape[0], 1), -1)
        parts = np.diff(np.hstack([ends, block, ends + steps + dim]), axis=1) - 1
        yield parts / steps


@lru_cache(maxsize=4)
def _simplex_grid(dim, steps):
    """The chunks of ``_simplex_chunks(dim, steps)``, built once and read-only."""
    chunks = tuple(_simplex_chunks(dim, steps))
    for xs in chunks:
        xs.flags.writeable = False
    return chunks


def copositive_falsify(a, depth=1):
    """Search the simplex for a point with A x^m < -1e-12 * max(1, max |v|).

    Scans the barycentric grid of step 1/(64*depth) in row chunks, in the
    order of ``itertools.combinations`` of its cut positions, and keeps the
    first grid minimum.  A grid of at most 4 MB is built once per
    (dim, steps) and reused by later calls; a larger one (dim 5, or dim 4
    at depth 2 and up) is streamed and never held whole.  The worst point
    is then polished with 20 projected-gradient steps.  Returns the witness
    vector or None; absence of a witness is not a copositivity certificate.
    The cutoff grows with max |v|, as the rounding error of the form does.
    """
    depth = _integer("depth", depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    steps = 64 * depth
    rows = math.comb(steps + a.dim - 1, a.dim - 1)
    if rows * a.dim * 8 <= _GRID_CACHE_BYTES:
        grid = _simplex_grid(a.dim, steps)
    else:
        grid = _simplex_chunks(a.dim, steps)
    best_x, best_f = None, np.inf
    for xs in grid:
        fs = _forms(a, xs)
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_x, best_f = xs[i].copy(), fs[i]

    x, fx = best_x, eval_form(a, best_x)
    for _ in range(20):
        g = a.order * eval_gradient_form(a, x)
        eta = 1.0 / (1.0 + float(np.linalg.norm(g)))
        improved = False
        for _ in range(12):
            xn = _project_simplex(x - eta * g)
            fn = eval_form(a, xn)
            if fn < fx:
                x, fx = xn, fn
                improved = True
                break
            eta *= 0.5
        if not improved:
            break
    if fx < -1e-12 * max(1.0, float(np.max(np.abs(a.gen)))):
        return x
    return None
