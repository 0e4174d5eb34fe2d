"""Deciding copositivity of plane tensors exactly, in two steps.

A plane (binary) tensor P of degree l, built as the two-dimensional Hankel
tensor make_hankel(l, 2, [p_0, ..., p_l]), is copositive iff the segment
function phi(t) = P(t, 1-t) stays nonnegative on [0, 1].  The decision
procedure checks the endpoint coefficients first, then isolates every
interior critical point of phi by Bernstein subdivision (phi is already in
Bernstein form), so the answer comes with a witness or a full list of
examined points.
"""

import numpy as np

from hankeltensor import (
    copositive_check,
    copositive_falsify,
    eval_form,
    make_hankel,
)

p = make_hankel(2, 2, np.array([1.0, -3.0, 1.0]))
print("degree-2 plane tensor with coefficients", p.gen.tolist())
rep = copositive_check(p)
print("copositive:", rep.is_copositive)
print(f"witness t = {rep.witness_t}, phi there = {rep.min_phi}")
print("examined points:", [round(t, 6) for t in rep.critical_points])
print("check: phi(0.5) = P(0.5, 0.5) =", eval_form(p, [0.5, 0.5]))

q = make_hankel(2, 2, np.array([1.0, -0.5, 1.0]))
rep = copositive_check(q)
print("\ncoefficients", q.gen.tolist(), "-> copositive:", rep.is_copositive)
print(f"interior minimum {rep.min_phi:.4f}; phi > 0 on the whole segment")

neg_end = make_hankel(3, 2, np.array([-1.0, 5.0, 5.0, 2.0]))
rep = copositive_check(neg_end)
print("\nnegative leading coefficient fails at an endpoint:")
print(f"  copositive: {rep.is_copositive}, witness t = {rep.witness_t}")

# phi of [1, -1, 1] is (t - (1-t))^2: copositive with a boundary zero
boundary = make_hankel(2, 2, np.array([1.0, -1.0, 1.0]))
rep = copositive_check(boundary)
print("\nperfect square (x - y)^2 touches zero yet passes:")
print(f"  copositive: {rep.is_copositive}, min phi = {rep.min_phi:.2e}")

# cross-check with the simplex search on a full Hankel tensor
a = make_hankel(4, 2, [1.0, -1.0, 0.0, 0.0, 1.0])
w = copositive_falsify(a)
print("\nsimplex search on the quartic generated by [1, -1, 0, 0, 1]:")
if w is None:
    print("  no negative point found")
else:
    print(f"  witness x = {np.round(w, 4).tolist()}, form value {eval_form(a, w):.6f}")
