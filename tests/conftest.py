import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from hankeltensor import DiscreteMeasure, VandermondeDecomposition, make_hankel
from hankeltensor.core import _as_finite_vector, _frozen_vector

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
