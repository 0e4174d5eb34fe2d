"""Extreme eigenvalues, bounds, and copositivity falsification.

At order 2 the extreme Z-eigenpairs are the Hankel matrix's extreme
eigenpairs, from one ``eigh``.  Above order 2 they are estimated by a shifted
symmetric power iteration.  The shift adapts to the local curvature: it is
taken from the smaller eigenvalue of the gradient's Jacobian (itself a small
Hankel matrix, from the same correlation as the gradient) restricted to the
plane of the iterate and its gradient, which holds the whole step, a 2x2
closed form with no eigensolver.  Any step that would lower the Rayleigh
value is rejected while the shift doubles toward a globally sufficient cap,
so every start ascends monotonically.  At dim 2 the one start is the
associated plane tensor's certified circle extreme lifted to the unit sphere
(the point where the plane bound is taken).  At dim 3 and up the starts are
the coordinate directions, that lifted plane extreme where the root engine
takes the plane (degree at most 1023), and the best-valued rows of one
fixed, cached table of 1024 unit vectors, evaluated in one batch; the plane
start makes the plane-derived bounds hold against the estimates by
construction.  Each start climbs once, until its Rayleigh value moves by
at most max(1e-4 |lambda|, 1e-12 (1 + |lambda|)) in a step; the start of
highest value alone then gets a Newton polish, which finishes the climb at
quadratic rate.  ``converged`` is the returned pair's residual test.
For two-dimensional tensors the full H-spectrum reduces to the zero
directions of a single binary form.
Copositivity falsification bisects the standard simplex, on which the
form's Bernstein net is the generating vector itself, and stops at the
first sub-simplex vertex where the form is negative.  At even order the
associated Hankel matrix is tried before the first bisection: a smallest
eigenvalue at or above -cutoff proves that no simplex point is below it,
which settles even-order strong tensors without subdivision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyroots
from .associated import _square, assoc_plane
from .core import HankelTensor, _contract, _integer, _no_overflow, _power_coeffs, _unit_scaled, eval_form
from .plane import z_extremes

_LAMBDA_STALL_REL = 1e-12
_ROUGH_STALL_REL = 1e-4
_RESIDUAL_OK_REL = 1e-8
_NEWTON_STEPS = 8
_SCAN_ROWS = 1024
# the most bytes one level of copositive_falsify's children's nets may take
_NET_BYTES = 64 * 2**20


@dataclass(frozen=True)
class EigenPair:
    kind: str
    value: float
    vector: np.ndarray
    converged: bool = True
    residual: float = 0.0
    steps: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class ZBounds:
    upper_for_min: float
    lower_for_max: float
    source: str


def _grad_and_jacobian(gen, order, x):
    """A x^(m-1) together with the Hankel matrix M = A x^(m-2), for A of generating vector ``gen``.

    M x equals the gradient form and (m-1) M is its Jacobian, so one sliding
    correlation yields the step direction and the local curvature at once.
    """
    m_mat = _square(np.correlate(gen, _power_coeffs(x, order - 2), mode="valid"))
    return m_mat @ x, m_mat


def _plane_low(m_mat, x, g, lam):
    """The smaller eigenvalue of M restricted to span{x, g}, for unit x, g = M x and lam = x . g.

    With t = g - lam x, tau = |t| and d = t / tau, the restriction in the
    orthonormal basis (x, d) is [[lam, tau], [tau, delta]], delta = d . M d,
    so its smaller eigenvalue is (lam + delta)/2 - hypot((lam - delta)/2, tau),
    and lam itself when tau = 0.  By Cauchy interlacing it lies between
    lambda_min(M) and lam; at dim 2 the plane is the whole space and it is
    lambda_min(M).  |t| is taken by ``math.hypot``, which does not overflow
    where the squares of the entries would.
    """
    t = g - lam * x
    tau = math.hypot(*t.tolist())
    if tau == 0.0:
        return lam
    d = t / tau
    delta = float(d @ m_mat @ d)
    return 0.5 * (lam + delta) - math.hypot(0.5 * (lam - delta), tau)


@lru_cache(maxsize=8)
def _plane_lifts(order, dim, gen_bytes):
    """Unit vectors x_min, x_max where the form takes its plane's circle extremes.

    The plane's circle extreme y lifts to w = (y1^(n-1-j) y2^j)_j, where
    A w^m = P(y), so x = w/|w| carries the plane extreme onto the unit
    sphere.  A plane degree above 1023 is refused by the root engine; at
    dim 2 the plane is the tensor and the lift is y/|y|.
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


@lru_cache(maxsize=8)
def _scan_directions(dim):
    """The 1024 scanned starts: normalised standard-normal draws of ``default_rng(0)``, read-only."""
    table = np.random.default_rng(0).standard_normal((_SCAN_ROWS, dim))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _scan_values(order, dim, gen_bytes):
    """The form at the 1024 scanned starts, memoised per tensor (read-only); -A's are their negations."""
    vals = _contract(np.frombuffer(gen_bytes), _scan_directions(dim), order)[0]
    vals.flags.writeable = False
    return vals


def _rayleigh(gen, order, x):
    """The Rayleigh value x . A x^(m-1) and the residual max |A x^(m-1) - lam x|."""
    g = np.correlate(gen, _power_coeffs(x, order - 1), mode="valid")
    lam = float(np.dot(x, g))
    return lam, float(np.abs(g - lam * x).max())


def _newton_polish(gen, order, x, lam):
    """Newton steps on [A x^(m-1) - lam x; (|x|^2 - 1)/2] = 0.

    The power iteration's Rayleigh values converge fast but the vector can
    creep when the eigen-gap is small; up to eight Newton steps land on the
    nearby stationary point at quadratic rate.  A step to 0 or past the
    float range ends the polish at the last x.
    """
    n = len(x)
    eye = np.eye(n)
    for _ in range(_NEWTON_STEPS):
        g, m_mat = _grad_and_jacobian(gen, order, x)
        f = np.concatenate([g - lam * x, [0.5 * (float(x @ x) - 1.0)]])
        if float(np.abs(f).max()) <= 1e-15 * (1.0 + abs(lam)):
            break
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = (order - 1) * m_mat - lam * eye
        jac[:n, n] = -x
        jac[n, :n] = x
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        y = x + delta[:n]
        nrm = float(np.linalg.norm(y))
        if not 1e-300 <= nrm < np.inf:
            break
        x, lam = y / nrm, lam + float(delta[n])
    return (x, *_rayleigh(gen, order, x))


def zeig_extreme(a, mode, restarts=20, iters=500):
    """Estimate the extreme Z-eigenpair of ``a``.

    ``mode='min'`` works on -A.  At order 2 the pair is the extreme
    eigenpair of the Hankel matrix, from one ``eigh``.  Above order 2 it is
    the shifted power iteration x <- normalize(A x^(m-1) + beta x), with
    beta = (m-1) * max(0, -mu) + 1e-9 * (1 + sum_k s(k,m,n) |v_k|), where mu
    is the smaller eigenvalue of M = A x^(m-2) restricted to span{x, A x^(m-1)},
    the plane that holds the step.  By Cauchy interlacing
    lambda_min(M) <= mu <= lambda, so this shift is never larger than one
    from lambda_min(M).  beta is raised toward the always-sufficient cap
    (m-1) * sum_k s(k,m,n) |v_k| whenever a step fails to increase the
    Rayleigh value, so the iterate value never drops.  ``steps`` counts the
    power steps over all starts, rejected ones included, and ``rejected``
    the rejected ones; the polish is not counted.  Its starts:

    - dim 2: the lifted circle extreme of the mode alone, which no other
      start can beat; at dim 2 above order 1023 the circle extremes, and so
      the call, are refused by the root engine.
    - dim 3 and up: the coordinate vectors; the lifted plane extreme of the
      mode when the plane degree (dim-1)*order is at most the root engine's
      1023; and the ``restarts`` best-valued rows (the first on ties) of one
      fixed table of 1024 unit vectors, the normalised standard-normal draws
      of ``default_rng(0)``, evaluated in one batch.

    ``restarts`` must be in 1..1024 and has no effect at order 2 or at
    dim 2.  Each
    start climbs once: it stops at the first accepted step whose value moves
    by at most max(1e-4 * |lambda|, 1e-12 * (1 + |lambda|)), at a step whose
    norm is zero or overflows, or after ``iters`` power steps per start,
    rejected steps included.  The start of highest value (the first on ties)
    alone then gets a guarded Newton polish, kept when it lowers the residual
    without lowering the value by more than 1e-9 * (1 + |lambda|); the polish
    finishes the climb from where the start stopped.  ``converged`` is the
    returned pair's residual test, residual <= 1e-8 * (1 + |lambda|).  A cap
    sum that overflows a float is refused with a ``ValueError``, at order 2
    too; with |v| <= 1 that takes order 647 or more at dim 3.  Within the
    caps ``converged`` can be False at high order.  With
    v = default_rng([m, n, s]).uniform(-1, 1, (n-1)m + 1), restarts=4,
    iters=300, m in {20, 50, 100, 150, 200, 250, 300}, n in {3, 4} and s in
    0..2, 8 of the 42 calls end unconverged in max mode and 6 in min mode,
    all at n = 4: the first at (m, n) = (50, 4) with a relative residual of
    0.42, and some seed fails in each mode for every m from 50 on.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    restarts = _integer("restarts", restarts)
    iters = _integer("iters", iters)
    if not 1 <= restarts <= _SCAN_ROWS:
        raise ValueError(f"restarts must be in 1..{_SCAN_ROWS}")
    if iters < 1:
        raise ValueError("iters must be at least 1")

    starts = [] if a.dim == 2 else list(np.eye(a.dim))
    if a.order > 2 and (a.dim == 2 or (a.dim - 1) * a.order <= polyroots._MAX_DEGREE):
        x_min, x_max = _plane_lifts(a.order, a.dim, a.gen.tobytes())
        starts.append(x_max if mode == "max" else x_min)

    with np.errstate(over="ignore"):
        scale = float(np.dot(_power_coeffs(np.ones(a.dim), a.order), np.abs(a.gen)))
    if not np.isfinite(scale):
        raise ValueError(f"the shift scale overflows at order {a.order}, dim {a.dim}")
    sign = 1.0 if mode == "max" else -1.0
    gen, order = sign * a.gen, a.order
    beta_cap = (order - 1) * scale + 1e-12
    beta_pad = 1e-9 * (1.0 + scale)
    if order == 2:
        # a Hankel matrix, whose Z-eigenpairs are its eigenpairs
        x = np.linalg.eigh(_square(gen))[1][:, -1]
        lam, residual = _rayleigh(gen, order, x)
        return EigenPair("Z", sign * lam, x, residual <= _RESIDUAL_OK_REL * (1.0 + abs(lam)), residual)
    if a.dim > 2:
        vals = _scan_values(a.order, a.dim, a.gen.tobytes())
        starts.extend(_scan_directions(a.dim)[np.argsort(-sign * vals, kind="stable")[:restarts]])

    steps = rejected = 0

    def ascend(x):
        """Power steps from ``x`` until |step| <= max(1e-4 |lambda|, 1e-12 (1 + |lambda|)).

        A step whose norm is zero or overflows, or the end of ``iters``
        steps, also ends the start.  Returns (lambda, x, A x^(m-1)).
        ``beta`` is None where the shift is due from the plane of x and
        A x^(m-1), so a start that stops pays for no shift it does not use.
        """
        nonlocal steps, rejected
        x = x / np.linalg.norm(x)
        g, m_mat = _grad_and_jacobian(gen, order, x)
        lam, beta = float(np.dot(x, g)), None
        for _ in range(iters):
            if beta is None:
                beta = (order - 1) * max(0.0, -_plane_low(m_mat, x, g, lam)) + beta_pad
            y = g + beta * x
            nrm = math.hypot(*y.tolist())
            if not 1e-300 <= nrm < math.inf:
                break
            x_new = y / nrm
            g_new, m_new = _grad_and_jacobian(gen, order, x_new)
            lam_new = float(np.dot(x_new, g_new))
            steps += 1
            if lam_new < lam - 1e-14 * (1.0 + abs(lam)) and beta < beta_cap:
                rejected += 1
                beta = min(max(2.0 * beta, 1e-6 * (1.0 + scale)), beta_cap)
                continue
            step = abs(lam_new - lam)
            x, g, m_mat, lam, beta = x_new, g_new, m_new, lam_new, None
            if step <= max(_ROUGH_STALL_REL * abs(lam), _LAMBDA_STALL_REL * (1.0 + abs(lam))):
                break
        return lam, x, g

    # a step that overflows ends its start (the guard in ascend), so its
    # overflow warning is silenced, by one errstate per call, not per step;
    # max keeps the first start of highest lambda
    with np.errstate(over="ignore"):
        lam, x, g = max((ascend(x0) for x0 in starts), key=lambda r: r[0])
    residual = float(np.abs(g - lam * x).max())
    x_p, lam_p, residual_p = _newton_polish(gen, order, x, lam)
    if residual_p < residual and lam_p >= lam - 1e-9 * (1.0 + abs(lam)):
        x, lam, residual = x_p, lam_p, residual_p
    converged = residual <= _RESIDUAL_OK_REL * (1.0 + abs(lam))
    return EigenPair("Z", sign * lam, x, converged, residual, steps, rejected)


def heig_dim2(a):
    """All H-eigenpairs of a two-dimensional Hankel tensor.

    With F = A x^(m-1), the eigenvectors are the zero directions of the
    binary form y1^(m-1) F_2(y) - y2^(m-1) F_1(y) of degree 2m-2: the axes
    and the chart roots of the Bernstein root engine.  Each candidate is
    divided by its signed largest coordinate, which becomes 1, and lambda
    is F there.  F and its rounding scale max(|A| |x|^(m-1)) (|A| has
    generating vector |v|) are taken at each candidate by Horner's rule in
    its other coordinate, so lambda is wrong by at most 3m eps times its
    entry of |A| |x|^(m-1).  A candidate is kept when the eigen residual is
    within 1e-8 * min(1 + |lambda|, max(|A| |x|^(m-1))), so a direction
    where A x^(m-1) is merely small is not an eigenvector.  A chart root within
    1e-9 of a kept axis, lambda within 1e-9 * (1 + |lambda|), is the same
    eigenpair (v_1 or v_(m-1) tiny puts it there); of each such group only
    the member of smallest residual is reported.  When the form vanishes
    (every direction is an eigenvector) the axes are the representatives.
    The binary form and the Horner terms come from v scaled by 2^-e, e the
    binary exponent of max |v|, which is exact and moves no root; an F past
    the float range, at any candidate, is refused with ``ValueError("the
    gradient form overflows the float range")``, not dropped.
    """
    if a.dim != 2:
        raise ValueError("heig_dim2 requires dim = 2")
    m = a.order
    v = np.asarray(a.gen)
    e, vs = _unit_scaled(v)
    binom = polyroots._binomials(m - 1)
    f1, f2 = vs[:-1] * binom, vs[1:] * binom  # the terms C(m-1,k) v_(i+k) of F_1 and F_2, scaled
    g = np.zeros(2 * m - 1)  # monomial weights of y1^(2m-2-j) y2^j
    g[:m] += f2
    g[m - 1 :] -= f1
    xs = polyroots.form_directions(g / polyroots._binomials(2 * m - 2))
    i = np.arange(xs.shape[0])
    top = np.argmax(np.abs(xs), axis=1)
    xs = xs / xs[i, top][:, None]

    # x = (1, w) weighs term k by w^k, and x = (w, 1) by w^(m-1-k)
    rows = [f1.tolist(), f2.tolist(), np.abs(f1).tolist(), np.abs(f2).tolist()]
    sums = []
    for x, k in zip(xs.tolist(), top.tolist()):
        w = x[1 - k]
        for r, row in enumerate(rows):
            acc, u = 0.0, w if r < 2 else abs(w)
            for c in row if k else reversed(row):
                acc = acc * u + c
            sums.append(acc)
    sums = np.array(sums).reshape(-1, 4).T
    grad = _no_overflow("the gradient form", lambda: np.ldexp(sums[:2], e))
    lam = grad[top, i]
    # a scale, residual or lambda gap past the float range fails the test it enters
    with np.errstate(over="ignore"):
        scale = np.ldexp(sums[2:], e).max(axis=0)
        residual = np.abs(grad - lam * xs.T ** (m - 1)).max(axis=0)
        keep = residual <= 1e-8 * np.minimum(1.0 + np.abs(lam), scale)
        near = np.abs(xs[2:, None] - xs[:2]).max(axis=2) <= 1e-9
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
    inside them.  A plane degree above 1023 is refused by the root engine,
    and a plane or form value past the float range with a ``ValueError``.
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


@lru_cache(maxsize=8)
def _subdivision_tables(order, dim):
    """Multi-index tables for Bernstein nets of degree ``order`` on a simplex of ``dim`` vertices.

    Returns ``(alpha, shift, corners, root, iu, ju)``: the rows of ``alpha``
    are the N multi-indices |alpha| = order; ``shift[i, j, r]`` is the row of
    alpha_r - e_j + e_i (r itself where alpha_r has no j part); ``corners[j]``
    is the row of order * e_j; ``root[r]`` = w(alpha_r) is the slot of the
    generating vector at row r; and ``(iu, ju)`` are the vertex pairs i < j,
    the edges.  Bisecting edge (i, j) at 1/2 and putting the midpoint in
    place of vertex j gives the child net
    c_alpha = sum_k C(alpha_j, k) 2^-alpha_j b_beta, beta being alpha with
    alpha_j -> k and alpha_i -> alpha_i + alpha_j - k.  It is built by
    de Casteljau in place: step s = 1..order replaces b_alpha by
    (b_alpha + b_(alpha - e_j + e_i)) / 2 wherever alpha_j >= s.  The
    tables take O(dim^2 N) entries and a step O(N) per sub-simplex.
    """
    alpha = np.array(
        [np.bincount(c, minlength=dim) for c in itertools.combinations_with_replacement(range(dim), order)]
    )
    rank = {r: k for k, r in enumerate(map(tuple, alpha.tolist()))}
    shift = np.empty((dim, dim, alpha.shape[0]), dtype=np.intp)
    for i, j in itertools.product(range(dim), repeat=2):
        beta = alpha.copy()
        beta[:, i] += 1
        beta[:, j] -= 1
        shift[i, j] = [rank.get(r, k) for k, r in enumerate(map(tuple, beta.tolist()))]
    tables = (alpha, shift, np.argmax(alpha, axis=0), alpha @ np.arange(dim), *np.triu_indices(dim, 1))
    for t in tables:
        t.flags.writeable = False
    return tables


def _matrix_certifies(a, big, cut):
    """Whether the associated Hankel matrix proves A x^m >= -cut on the simplex, at even m = 2k.

    With p(t) = sum_j x_j t^j and c(x) the coefficients of p(t)^k,
    A x^m = c(x)^T M c(x) for the q x q associated matrix M,
    q = (n-1)k + 1, whose generating vector is v itself since (n-1)m is
    even.  On the simplex c >= 0 and sum c = 1, so |c|^2 <= 1
    and A x^m >= min(0, lambda_min(M)).  The computed lambda_min is within
    e = 8 q^2 eps max |v| of the exact one (Weyl's inequality, the backward
    stability of ``eigvalsh`` and |M|_2 <= q max |v|), so
    lambda_min - e >= -cut proves that no simplex point is below -cut.
    """
    mat = _square(a.gen)
    q = mat.shape[0]
    low = float(np.linalg.eigvalsh(mat)[0])
    return low - 8.0 * q * q * np.finfo(float).eps * big >= -cut


def copositive_falsify(a, depth=1):
    """Search the simplex for a point with A x^m < -cut, cut = 1e-12 * max(1, max |v|).

    On the standard simplex the Bernstein coefficients of A x^m are
    b_alpha = v_(w(alpha)), w(alpha) = sum_j j alpha_j, so the generating
    vector is the root net, and the coefficient at order * e_j is the form's
    value at vertex j.  Each level drops every sub-simplex whose net is at
    or above -cut (the form is then at least -cut on it), bisects the
    longest edge of each one left (the first longest on ties), and builds
    both children's nets by batched de Casteljau steps at 1/2.  The first
    level with a vertex value below -cut returns its lowest vertex, a point
    of the simplex with dyadic coordinates, once ``eval_form`` confirms it
    below -cut.  The nets run on the generating vector scaled by 2^-e, e
    the binary exponent of max |v|, against the cut scaled alike: the
    scaling is exact and moves no comparison, and every net is a convex
    combination of entries below 1, so no half-sum overflows, up to max |v|
    near 1e308.

    At even order, when the root's vertices clear the cut but its net does
    not, the associated Hankel matrix M is tried before the first
    bisection: A x^m >= min(0, lambda_min(M)) on the simplex, so a
    lambda_min at or above -cut, less its rounding margin
    e = 8 q^2 eps max |v|, proves the form copositive to within the cut,
    and None comes back at once.  Every
    even-order tensor with M PSD and (n-1)m <= 30 is settled there: its
    computed lambda_min is at least -e, and 2e stays below the cut.

    ``depth`` is the node budget: None also comes back when every net clears
    the cut, or when the next level would take the sub-simplices made past
    4096 * depth.  A level whose children's nets would take more than
    64 MiB is refused, before it is built, with a ``ValueError`` naming the
    cap.  A net holds N = C(m+n-1, n-1) floats, so at depth 1 no shape with
    N <= 2048 reaches the cap.  A None from the matrix certificate, or from
    every net clearing the cut, proves the form at least -cut on the
    simplex; one from the budget proves nothing, and the three are not told
    apart.
    The cutoff grows with max |v|, as the rounding error of the form does.
    It is 100 times finer than the cut of ``copositive_check``: on
    v = (1, -(1 + 1e-11), 1) that check says copositive, with min_phi
    = -5e-12, and this search returns the witness (1/2, 1/2) of that value.
    """
    depth = _integer("depth", depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    big = float(np.abs(a.gen).max())
    cut = 1e-12 * max(1.0, big)
    alpha, shift, corners, root, iu, ju = _subdivision_tables(a.order, a.dim)
    # the nets and their cut are scaled by 2^-e, which moves no comparison and
    # keeps every half-sum below 1; the witness is confirmed on a itself
    e, gen = _unit_scaled(a.gen)
    net_cut = math.ldexp(cut, -e)
    nets, verts = gen[root][None], np.eye(a.dim)[None]
    made = 0
    while True:
        vals = nets[:, corners]
        node, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[node, j] < -net_cut:
            x = verts[node, j].copy()
            return x if eval_form(a, x) < -cut else None
        keep = np.min(nets, axis=1) < -net_cut
        # the root level, before the first bisection
        if made == 0 and keep[0] and a.order % 2 == 0 and _matrix_certifies(a, big, cut):
            return None
        nets, verts = nets[keep], verts[keep]
        made += 2 * len(nets)
        if len(nets) == 0 or made > 4096 * depth:
            return None
        need = 2 * nets.nbytes
        if need > _NET_BYTES:
            raise ValueError(f"the subdivision's next level needs {need} bytes, past the cap of {_NET_BYTES} bytes")
        d = verts[:, iu] - verts[:, ju]
        edge = np.argmax(np.einsum("bek,bek->be", d, d), axis=1)
        # the first half of the children keeps vertex i, the second vertex j
        i, j = np.concatenate([iu[edge], ju[edge]]), np.concatenate([ju[edge], iu[edge]])
        nets, verts = np.concatenate([nets, nets]), np.concatenate([verts, verts])
        rows = np.arange(len(nets))
        verts[rows, j] = (verts[rows, i] + verts[rows, j]) / 2
        moved, back = alpha.T[j], shift[i, j]
        for step in range(1, a.order + 1):
            nets = np.where(moved >= step, (nets + np.take_along_axis(nets, back, axis=1)) / 2, nets)
