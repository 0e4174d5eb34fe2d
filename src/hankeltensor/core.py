"""Hankel tensor construction and evaluation.

An order-``m`` dimensional-``n`` Hankel tensor is determined by a generating
vector ``v`` of length ``(n-1)*m + 1``: the entry at (1-based) index
``(i_1, ..., i_m)`` is ``v[i_1 + ... + i_m - m]``.  Forms and gradients at
one vector are evaluated through polynomial coefficient convolutions; forms
at a batch of vectors through repeated contraction of the generating
vector.  Either way the cost stays polynomial in ``m`` and ``n``.
The two kernels are a measured choice.  For one vector, contraction is
3-9 times slower than convolution (A x^(m-2) took 10.6 against 3.6 us at
order 4, dim 3, and 9.9 against 1.1 us at order 3, dim 5; timeit, numpy
2.4.6) and rounds differently at most shapes, so the power iteration's
bytes would move; a batch, such as the 1024-row scan of ``zeig_extreme``,
has no per-row convolution, so it contracts.  Binary forms at a few points
are not evaluated here: the plane routines and ``heig_dim2`` take them by
the O(l) Horner step of the root engine in ``polyroots``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


def _integer(name, value):
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


# The one cut of the strong and plane copositivity verdicts: a value counts
# as negative below -_VERDICT_CUT * max(1, max |coefficient|).
_VERDICT_CUT = 1e-10


def _as_finite_vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional real vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _no_overflow(what, compute):
    """``compute()`` on finite operands, refused with a ``ValueError`` if it overflows.

    From finite operands a non-finite entry can only come from an overflow
    (inf - inf is the NaN), so numpy's warnings are silenced and the result
    is checked once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise ValueError(f"{what} overflows the float range")
    return out


def _unit_scaled(x):
    """``(e, 2^-e x)``, with e the binary exponent of max |x| (0 when x is zero).

    Every entry of 2^-e x is below 1 in magnitude, and the scaling is exact
    wherever nothing underflows: signs, comparisons, ratios and roots are
    those of x, while sums of a few scaled terms cannot overflow.
    """
    e = math.frexp(np.abs(x).max())[1]
    return e, np.ldexp(x, -e)


def _frozen_vector(x, name):
    """Validated, read-only copy of ``x`` for an immutable array field."""
    arr = _as_finite_vector(x, name).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HankelTensor:
    """Symmetric Hankel tensor held by its generating vector.

    Immutable after construction; ``order`` and ``dim`` are stored as Python
    ints and the generating vector read-only.
    """

    order: int
    dim: int
    gen: np.ndarray

    def __post_init__(self):
        order, dim = _integer("order", self.order), _integer("dim", self.dim)
        if order < 2 or dim < 2:
            raise ValueError("order and dim must both be at least 2")
        gen = _frozen_vector(self.gen, "gen")
        expect = (dim - 1) * order + 1
        if gen.shape[0] != expect:
            raise ValueError(
                f"generating vector has length {gen.shape[0]}, "
                f"expected (dim-1)*order+1 = {expect}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gen", gen)


def make_hankel(order, dim, gen):
    """Build a :class:`HankelTensor` from its generating vector."""
    return HankelTensor(order, dim, gen)


def entry(a, index):
    """Entry of ``a`` at a 1-based multi-index.

    Parameters
    ----------
    a : HankelTensor
    index : sequence of int
        ``order`` many indices, each in ``1..dim``.

    Returns
    -------
    float
        ``gen[i_1 + ... + i_m - m]``.
    """
    idx = list(index)
    if len(idx) != a.order:
        raise ValueError(f"index has {len(idx)} entries, expected order = {a.order}")
    for i in idx:
        if not (1 <= i <= a.dim):
            raise IndexError(f"index component {i} outside 1..{a.dim}")
    return float(a.gen[sum(idx) - a.order])


def _check_x(a, x):
    x = _as_finite_vector(x, "x")
    if x.shape[0] != a.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected dim = {a.dim}")
    return x


def _power_coeffs(x, power):
    """Coefficients of p(t)**power with p(t) = sum_i x[i] t^i."""
    c = np.array([1.0]) if power == 0 else x
    for _ in range(power - 1):
        c = np.convolve(c, x)
    return c


def _contract(gen, xs, times):
    """Contract the Hankel tensor of generating vector ``gen`` ``times`` times.

    One contraction with x of a Hankel tensor of dim n is the Hankel tensor
    of one order lower with generating vector b_j = sum_i x_i b_(i+j)
    (Ding, Qi & Wei, NLAA 22, 2015); at n = 2 it is one homogeneous de
    Casteljau step.  It runs for every row x of ``xs``, an (N, n) array, at
    once and elementwise, so no row's result depends on the others.
    Returns the (len(gen) - times*(n-1), N) array of the final vectors;
    ``times`` is at least 1.
    """
    n = xs.shape[1]
    xt = np.ascontiguousarray(xs.T)
    b = gen[:, None]
    for _ in range(times):
        k = b.shape[0] - n + 1
        nxt = xt[0] * b[:k]
        for i in range(1, n):
            nxt += xt[i] * b[i : i + k]
        b = nxt
    return b


def eval_form(a, x):
    """Evaluate the homogeneous form A x^m.

    Expands p(t) = sum_i x_i t^(i-1); then A x^m = sum_k gen[k] * [t^k] p(t)^m,
    so only m-1 coefficient convolutions are needed.
    """
    x = _check_x(a, x)
    return float(_no_overflow("the form", lambda: np.dot(a.gen, _power_coeffs(x, a.order))))


def eval_gradient_form(a, x):
    """Evaluate A x^(m-1), the gradient of the form divided by m.

    Component i is sum_k gen[i-1+k] * [t^k] p(t)^(m-1), a sliding correlation
    of the generating vector with the coefficients of p(t)^(m-1).
    """
    x = _check_x(a, x)
    return _no_overflow(
        "the gradient form", lambda: np.correlate(a.gen, _power_coeffs(x, a.order - 1), mode="valid")
    )


def hadamard(a, b):
    """Hadamard (entrywise) product; generating vectors multiply componentwise."""
    if a.order != b.order or a.dim != b.dim:
        raise ValueError("operands must share order and dim")
    gen = _no_overflow("the Hadamard product", lambda: a.gen * b.gen)
    return HankelTensor(a.order, a.dim, gen)
