"""Extreme eigenvalues, bounds, and copositivity falsification.

At order 2 the extreme Z-eigenpairs are the Hankel matrix's extreme
eigenpairs, from one ``eigh``.  Above order 2 they are estimated by a shifted
symmetric power iteration.  The shift adapts to the local curvature (the
gradient's Jacobian is itself a small Hankel matrix, so it costs one extra
correlation per step) and any step that would lower the Rayleigh value is
rejected while the shift doubles toward a globally sufficient cap, so every
start ascends monotonically.  At dim 2 the one start is the associated plane
tensor's certified circle extreme lifted to the unit sphere (the point where
the plane bound is taken).  At dim 3 and up the starts are the coordinate
directions, that lifted plane extreme where the tensor has a plane, and the
best-valued points of one seeded cloud of unit vectors, evaluated in one
batch; the plane start makes the plane-derived bounds hold against the
estimates by construction.  Each start climbs once, until its Rayleigh value
moves by at most max(1e-4 |lambda|, 1e-12 (1 + |lambda|)) in a step; the
start of highest value alone then gets a Newton polish, which finishes the
climb at quadratic rate.  ``converged`` is the returned pair's residual test.
For two-dimensional tensors the full H-spectrum reduces to the zero
directions of a single binary form.
Copositivity falsification evaluates the form on the simplex grid in row
chunks, in the order of ``itertools.combinations``; the first grid minimum
wins, so ties on the grid keep the earliest point.  A grid of up to 4 MB is
built once per (dim, steps) and kept; a larger one is streamed chunk by
chunk.  Every chunk goes through the associated Hankel matrix identity
A x^m = c_lo(x)^T H c_hi(x), with c_k(x) the coefficients of p_x(t)^k,
lo = m // 2, hi = m - lo and H = [v_(i+j)] (the associated Hankel matrix at
even m): one small matrix product per chunk.  The power-k rows for k >= 2
are exact while steps^k <= 2^53.  On a kept grid they are built once per
(dim, steps, k) and kept while they take at most 4 MB; a streamed grid, or
a kept one whose power rows would exceed 4 MB, builds them chunk by chunk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyroots
from .associated import _has_plane, assoc_plane
from .core import HankelTensor, _contract, _forms, _integer, _power_coeffs, eval_form, eval_gradient_form
from .plane import z_extremes

_LAMBDA_STALL_REL = 1e-12
_ROUGH_STALL_REL = 1e-4
_RESIDUAL_OK_REL = 1e-8
_NEWTON_STEPS = 8
_GRID_CHUNK = 4096
_GRID_CACHE_BYTES = 4 << 20
_SCAN_ROWS = 1024


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


def _rayleigh(work, x):
    """The Rayleigh value x . A x^(m-1) and the residual max |A x^(m-1) - lam x|."""
    g = eval_gradient_form(work, x)
    lam = float(np.dot(x, g))
    return lam, float(np.max(np.abs(g - lam * x)))


def _newton_polish(work, x, lam, outer_idx):
    """Newton steps on [A x^(m-1) - lam x; (|x|^2 - 1)/2] = 0.

    The power iteration's Rayleigh values converge fast but the vector can
    creep when the eigen-gap is small; up to eight Newton steps land on the
    nearby stationary point at quadratic rate.
    """
    n = work.dim
    eye = np.eye(n)
    for _ in range(_NEWTON_STEPS):
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
    return (x, *_rayleigh(work, x))


def zeig_extreme(a, mode, restarts=20, iters=500, seed=0):
    """Estimate the extreme Z-eigenpair of ``a``.

    ``mode='min'`` works on -A.  At order 2 the pair is the extreme
    eigenpair of the Hankel matrix, from one ``eigh``.  Above order 2 it is
    the shifted power iteration x <- normalize(A x^(m-1) + beta x), with beta
    set from the smallest eigenvalue of the local Jacobian A x^(m-2) and
    raised toward the always-sufficient cap (m-1) * sum_k s(k,m,n) |v_k|
    whenever a step fails to increase the Rayleigh value, so the iterate
    value never drops.  Its starts:

    - dim 2: the lifted circle extreme of the mode alone, which no other
      start can beat; at dim 2 above order 1023 the circle extremes, and so
      the call, are refused by the root engine.
    - dim 3 and up: the coordinate vectors; the lifted plane extreme of the
      mode when the plane degree (dim-1)*order is within the cap; and the
      ``restarts`` best-valued rows (the first on ties) of one cloud of
      max(1024, restarts) unit vectors drawn from ``seed``, evaluated in one
      batch.

    ``restarts`` and ``seed`` have no effect at order 2 or at dim 2.  Each
    start climbs once: it stops at the first accepted step whose value moves
    by at most max(1e-4 * |lambda|, 1e-12 * (1 + |lambda|)), at a step whose
    norm is zero or overflows, or after ``iters`` power steps per start,
    rejected steps included.  The start of highest value (the first on ties)
    alone then gets a guarded Newton polish, kept when it lowers the residual
    without lowering the value by more than 1e-9 * (1 + |lambda|); the polish
    finishes the climb from where the start stopped.  ``converged`` is the
    returned pair's residual test, residual <= 1e-8 * (1 + |lambda|).  A cap
    sum that overflows a float is refused with a ``ValueError``, at order 2
    too; with |v| <= 1 that takes order 647 or more at dim 3.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    restarts = _integer("restarts", restarts)
    iters = _integer("iters", iters)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")

    starts = [] if a.dim == 2 else list(np.eye(a.dim))
    if a.order > 2 and _has_plane(a):
        x_min, x_max = _plane_lifts(a.order, a.dim, a.gen.tobytes())
        starts.append(x_max if mode == "max" else x_min)

    scale = float(np.dot(_power_coeffs(np.ones(a.dim), a.order), np.abs(a.gen)))
    if not np.isfinite(scale):
        raise ValueError(f"the shift scale overflows at order {a.order}, dim {a.dim}")
    sign = 1.0 if mode == "max" else -1.0
    work = HankelTensor(a.order, a.dim, sign * np.asarray(a.gen))
    beta_cap = (a.order - 1) * scale + 1e-12
    beta_pad = 1e-9 * (1.0 + scale)
    idx = np.arange(a.dim)
    outer_idx = idx[:, None] + idx[None, :]
    if a.order == 2:
        # a Hankel matrix, whose Z-eigenpairs are its eigenpairs
        x = np.linalg.eigh(work.gen[outer_idx])[1][:, -1]
        lam, residual = _rayleigh(work, x)
        return EigenPair("Z", sign * lam, x, residual <= _RESIDUAL_OK_REL * (1.0 + abs(lam)), residual)
    if a.dim > 2:
        rng = np.random.default_rng(seed)
        cloud = rng.standard_normal((max(_SCAN_ROWS, restarts), a.dim))
        cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
        starts.extend(cloud[np.argsort(-_forms(work, cloud), kind="stable")[:restarts]])

    def ascend(x):
        """Power steps from ``x`` until |step| <= max(1e-4 |lambda|, 1e-12 (1 + |lambda|)).

        A step whose norm is zero or overflows, or the end of ``iters``
        steps, also ends the start.  Returns (lambda, x, A x^(m-1)).
        ``beta`` is None where the shift is due from ``m_mat``, so a start
        that stops pays no ``eigvalsh`` it does not use.
        """
        x = x / np.linalg.norm(x)
        g, m_mat = _grad_and_jacobian(work, x, outer_idx)
        lam, beta = float(np.dot(x, g)), None
        for _ in range(iters):
            if beta is None:
                low = float(np.linalg.eigvalsh(m_mat)[0])
                beta = (a.order - 1) * max(0.0, -low) + beta_pad
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
            step = abs(lam_new - lam)
            x, g, m_mat, lam, beta = x_new, g_new, m_new, lam_new, None
            if step <= max(_ROUGH_STALL_REL * abs(lam), _LAMBDA_STALL_REL * (1.0 + abs(lam))):
                break
        return lam, x, g

    # a step whose norm overflows ends its start (the guard in ascend), so its
    # overflow warning is silenced, by one errstate per call, not per step;
    # max keeps the first start of highest lambda
    with np.errstate(over="ignore"):
        lam, x, g = max((ascend(x0) for x0 in starts), key=lambda r: r[0])
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

    grad = _contract(v, xs, m - 1)
    scale = np.max(_contract(np.abs(v), np.abs(xs), m - 1), axis=0)
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


def _power_columns(xs, power):
    """Coefficients of p_x(t)^power, p_x(t) = sum_i x_i t^i, for every row x of ``xs``.

    Entry (k, r) is the t^k coefficient of row r, built by one row-wise
    convolution per power above 1.  Grid coordinates are multiples of
    1/steps, so every coefficient is a multiple of steps^-power, exact in
    float64 while steps^power <= 2^53 (power 8 at 64 steps).
    """
    xt = np.ascontiguousarray(xs.T)
    c = xt
    for _ in range(power - 1):
        nxt = np.zeros((c.shape[0] + xt.shape[0] - 1, c.shape[1]))
        for i in range(xt.shape[0]):
            nxt[i : i + c.shape[0]] += xt[i] * c
        c = nxt
    return c


@lru_cache(maxsize=4)
def _power_rows(dim, steps, power):
    """``_power_columns`` of every chunk of ``_simplex_grid(dim, steps)``, built once and read-only."""
    chunks = tuple(_power_columns(xs, power) for xs in _simplex_grid(dim, steps))
    for c in chunks:
        c.flags.writeable = False
    return chunks


def _grid_forms(a, steps):
    """Pairs (chunk, A x^m at its rows) over the simplex grid of ``steps``, in order.

    Every chunk goes through one kernel, c_lo^T H c_hi; see
    ``copositive_falsify`` for the identity and for which power rows are kept.
    """
    n, lo, hi = a.dim, a.order // 2, a.order - a.order // 2
    rows = math.comb(steps + n - 1, n - 1)
    kept = rows * n * 8 <= _GRID_CACHE_BYTES
    grid = _simplex_grid(n, steps) if kept else _simplex_chunks(n, steps)
    ht = a.gen[np.arange(hi * (n - 1) + 1)[:, None] + np.arange(lo * (n - 1) + 1)]
    cached = kept and rows * (hi * (n - 1) + 1) * 8 <= _GRID_CACHE_BYTES

    def power(j, xs, k):
        if k == 1:
            return xs.T
        return _power_rows(n, steps, k)[j] if cached else _power_columns(xs, k)

    for j, xs in enumerate(grid):
        c_lo = power(j, xs, lo)
        c_hi = c_lo if hi == lo else power(j, xs, hi)
        yield xs, np.einsum("ij,ij->j", ht @ c_lo, c_hi)


def copositive_falsify(a, depth=1):
    """Search the simplex for a point with A x^m < -1e-12 * max(1, max |v|).

    Scans the barycentric grid of step 1/(64*depth) in row chunks, in the
    order of ``itertools.combinations`` of its cut positions, and keeps the
    first grid minimum.  A grid of at most 4 MB is built once per
    (dim, steps) and reused by later calls; a larger one (dim 5, or dim 4
    at depth 2 and up) is streamed and never held whole.  Every chunk's
    form is c_lo(x)^T H c_hi(x), with c_k(x) the coefficients of p_x(t)^k,
    lo = m // 2, hi = m - lo and H = [v_(i+j)], the associated Hankel matrix
    at even m.  On a held grid the rows of c_k for k >= 2 are built once
    per (dim, steps, k) and kept when they take at most 4 MB (orders up to
    6 at dim 4, depth 1); a streamed grid, or a held one whose power rows
    would exceed 4 MB, builds them for each chunk as the scan reaches it.

    The worst point is then polished with 20 projected-gradient steps of
    size 1/(1 + |g|); |g| is taken by ``math.hypot`` where the plain norm
    overflows (max |v| from about 1e154), and the polish ends where g itself
    overflows (max |v| near 1e308), keeping the best point so far.  Returns
    the witness vector or None; absence of a witness is not a copositivity
    certificate.  The cutoff grows with max |v|, as the rounding error of the
    form does.
    """
    depth = _integer("depth", depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    best_x, best_f = None, np.inf
    for xs, fs in _grid_forms(a, 64 * depth):
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_x, best_f = xs[i].copy(), fs[i]

    x, fx = best_x, eval_form(a, best_x)
    for _ in range(20):
        # |g|^2 overflows once max |v| reaches about 1e154, and such a norm is
        # taken again by hypot; g itself can overflow near max |v| ~ 1e308,
        # and a norm that hypot cannot take either ends the polish
        with np.errstate(over="ignore"):
            g = a.order * eval_gradient_form(a, x)
            norm = float(np.linalg.norm(g))
        if not math.isfinite(norm):
            norm = math.hypot(*g)
            if not math.isfinite(norm):
                break
        eta = 1.0 / (1.0 + norm)
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
