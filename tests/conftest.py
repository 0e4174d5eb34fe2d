import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hankeltensor import DiscreteMeasure, VandermondeDecomposition, make_hankel
from hankeltensor.core import _as_finite_vector, _contract, _frozen_vector

_DENSE_CAP = 10**7


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


def random_hankel(rng, order, dim, scale=1.0):
    gen = rng.uniform(-scale, scale, (dim - 1) * order + 1)
    return make_hankel(order, dim, gen)


def distinct_nodes(rng, count, low=-1.0, high=1.0, sep=0.05):
    while True:
        nodes = rng.uniform(low, high, count)
        if count < 2 or np.min(np.diff(np.sort(nodes))) >= sep:
            return nodes


def random_measure(rng, max_nodes=6):
    k = int(rng.integers(1, max_nodes + 1))
    return DiscreteMeasure(distinct_nodes(rng, k), rng.uniform(0.0, 1.0, k))


def random_positive_decomposition(rng, max_terms=5):
    k = int(rng.integers(1, max_terms + 1))
    return VandermondeDecomposition(distinct_nodes(rng, k), rng.uniform(0.2, 1.0, k))


@dataclass(frozen=True)
class DenseSymmetricTensor:
    """Fully materialised symmetric tensor (row-major flat entries)."""

    order: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        size = self.dim**self.order
        if size > _DENSE_CAP:
            raise ValueError(f"dense size {size} exceeds the cap {_DENSE_CAP}")
        entries = _frozen_vector(self.entries, "entries")
        if entries.shape[0] != size:
            raise ValueError(f"entries has length {entries.shape[0]}, expected {size}")
        object.__setattr__(self, "entries", entries)


def to_dense(a):
    """Materialise every entry (index-sum lookup into the generating vector)."""
    size = a.dim**a.order
    if size > _DENSE_CAP:
        raise ValueError(f"dense size {size} exceeds the cap {_DENSE_CAP}")
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(a.order):
        sums = (sums[:, None] + np.arange(a.dim, dtype=np.int64)[None, :]).ravel()
    return DenseSymmetricTensor(a.order, a.dim, np.asarray(a.gen)[sums])


def dense_matrix(h):
    """The dim x dim array of an order-2 tensor, such as an associated matrix."""
    return to_dense(h).entries.reshape(h.dim, h.dim)


def dense_eval(d, x):
    """Naive form evaluation over all dim^order index tuples (ground truth)."""
    x = _as_finite_vector(x, "x")
    if x.shape[0] != d.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected dim = {d.dim}")
    total = 0.0
    entries = d.entries
    for flat, idx in enumerate(itertools.product(range(d.dim), repeat=d.order)):
        total += entries[flat] * math.prod(x[i] for i in idx)
    return float(total)


def forms(a, xs):
    """A x^m for every row x of ``xs``, an (N, n) array, by the package's contraction kernel."""
    return _contract(a.gen, xs, a.order)[0]


def binary_exact(c, y1, y2):
    """sum_k c_k C(l,k) y1^(l-k) y2^k, and the same sum over |c_k|, |y1| and |y2|, exactly.

    The floats c_k and the rationals y1 = n1/d1 and y2 = n2/d2 are brought
    to one denominator, 2^q (d1 d2)^l with 2^q the largest denominator of
    the c_k, so the sums are taken in integers and divided once.  At
    (y1, y2) = (1-t, t) they are the Bernstein value of c at t and its
    rounding scale sum_k |c_k| B_k(t); a plane tensor's phi(t) is the
    Bernstein value of its coefficients reversed.
    """
    ratios = [x.as_integer_ratio() for x in np.asarray(c, dtype=float).tolist()]
    l = len(ratios) - 1
    (n1, d1), (n2, d2) = Fraction(y1).as_integer_ratio(), Fraction(y2).as_integer_ratio()
    a, b = n1 * d2, n2 * d1
    den = max(d for _, d in ratios)
    # after step k, value = sum_(j<=k) C(l,j) c_j a^(k-j) b^j over den, and power = b^k
    value = scale = 0
    power = 1
    for k, (num, d) in enumerate(ratios):
        w = math.comb(l, k) * num * (den // d) * power
        value = value * a + w
        scale = scale * abs(a) + abs(w)
        power *= b
    den *= (d1 * d2) ** l
    return Fraction(value, den), Fraction(scale, den)


def exact_ldl_pivots(mat, shift):
    # the pivots of the LDL^T factorisation of mat + shift * I without
    # pivoting, in exact arithmetic at the float entries; all of them are
    # positive exactly when the matrix is positive definite, and the first
    # pivot that is not ends the factorisation
    m = [[Fraction(x) + (Fraction(shift) if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mat)]
    pivots = []
    for k in range(len(m)):
        pivots.append(m[k][k])
        if m[k][k] <= 0:
            break
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, len(m)):
                m[i][j] -= f * m[k][j]
    return pivots


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
