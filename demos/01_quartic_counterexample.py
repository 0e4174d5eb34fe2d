"""A positive semi-definite Hankel tensor that is not strong.

The quartic two-variable tensor generated by [1, 0, -1/6, 0, 1] evaluates to
x1^4 - x1^2 x2^2 + x2^4, which is positive away from the origin, yet its
associated Hankel matrix cannot be positive semi-definite.  This script walks
through both facts.
"""

import numpy as np

from hankeltensor import (
    assoc_matrix,
    assoc_plane,
    eval_form,
    is_strong,
    make_hankel,
    z_extremes,
)

a = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
print("generating vector:", a.gen.tolist())

print("\nThe form it defines, sampled against x1^4 - x1^2 x2^2 + x2^4:")
rng = np.random.default_rng(7)
for x in rng.uniform(-2, 2, (4, 2)):
    direct = x[0] ** 4 - x[0] ** 2 * x[1] ** 2 + x[1] ** 4
    print(f"  x = ({x[0]: .3f}, {x[1]: .3f})  form = {eval_form(a, x): .6f}  direct = {direct: .6f}")

ext = z_extremes(assoc_plane(a))
print("\nExtremes of the form on the unit circle:")
print(f"  minimum {ext.lambda_min:.6f} at {np.round(ext.y_min, 6)}")
print(f"  maximum {ext.lambda_max:.6f} at {np.round(ext.y_max, 6)}")
print("  min > 0, so the tensor is positive semi-definite (in fact positive definite).")

cert = is_strong(a)
h = assoc_matrix(a)
i = np.arange(h.dim)
m = h.gen[i[:, None] + i]
print(f"\nAssociated Hankel matrix: the order-2 tensor of dim {h.dim}, entry (i, j) = gen[i + j]:")
print(m)
print(f"is_strong -> {cert.is_strong}, smallest eigenvalue {cert.min_eigenvalue:.6f}")
z = cert.violation_vector
print(f"violation vector z = {np.round(z, 6)} gives z' M z = {z @ m @ z:.6f} < 0")
print("\nSo positive semi-definiteness does not imply the strong property.")
