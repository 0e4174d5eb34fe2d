"""Strong Hankel tensors from discrete measures.

Moments of a nonnegative discrete measure generate strong Hankel tensors,
the strong test certifies them (choosing the free corner entry when the
matrix needs one), and the Hadamard product of two strong tensors is strong
again.
"""

import numpy as np

from hankeltensor import DiscreteMeasure, from_measure, hadamard, is_strong

mu = DiscreteMeasure(nodes=[1.0, -1.0], weights=[0.75, 0.25])
a = from_measure(mu, order=3, dim=2)
print("moments of 0.75*delta_1 + 0.25*delta_(-1):", a.gen.tolist())

cert = is_strong(a)
print(f"is_strong -> {cert.is_strong}")
print(f"  smallest eigenvalue after completion: {cert.min_eigenvalue:.2e}")
print(f"  free corner entry chosen: {cert.completion_used:.6f}")
print("  (odd-length generating vectors leave one matrix corner free;")
print("   the test uses the smallest one that can work, here the next moment)")

nu = DiscreteMeasure(nodes=[0.5, 0.0, -0.25], weights=[1.0, 0.5, 2.0])
b = from_measure(nu, order=3, dim=2)
print("\nsecond measure's moments:", np.round(b.gen, 6).tolist())

ab = hadamard(a, b)
print("entrywise product generating vector:", np.round(ab.gen, 6).tolist())
print(f"is_strong(product) -> {is_strong(ab).is_strong}")
print("\nProducts of moment sequences are again moment sequences, so the")
print("strong property survives the Hadamard product.")

# the same closure fails for mere positive semi-definiteness
c = from_measure(DiscreteMeasure([1.0], [1.0]), order=4, dim=2)
print("\nA rank-one example:", c.gen.tolist(), "-> strong:", is_strong(c).is_strong)
