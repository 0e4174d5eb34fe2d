import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hankeltensor import polyroots
from hankeltensor import (
    DiscreteMeasure,
    VandermondeDecomposition,
    assoc_plane,
    compose,
    copositive_check,
    copositive_falsify,
    eval_form,
    eval_gradient_form,
    from_measure,
    heig_dim2,
    is_strong,
    make_hankel,
    z_extremes,
)
from conftest import binary_exact, forms

EPS = Fraction(float(np.finfo(float).eps))


def phi_direct(p, t):
    # phi(t) = P(t, 1-t), so phi(0) = p_l and phi(1) = p_0
    l = p.order
    t = np.asarray(t, dtype=float)
    out = sum(
        math.comb(l, k) * p.gen[k] * t ** (l - k) * (1 - t) ** k for k in range(l + 1)
    )
    return float(out) if out.ndim == 0 else out


def plane_value(p, y1, y2):
    # the form of the dim-2 tensor p at (y1, y2) through the batch kernel; arrays of one shape allowed
    y1, y2 = np.broadcast_arrays(np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))
    vals = forms(p, np.stack([y1.ravel(), y2.ravel()], axis=1))
    return float(vals[0]) if y1.ndim == 0 else vals.reshape(y1.shape)


def phi_value(p, t):
    return plane_value(p, t, 1.0 - t)


def eval_plane_direct(p, y1, y2):
    l = p.order
    return sum(
        math.comb(l, k) * p.gen[k] * y1 ** (l - k) * y2**k for k in range(l + 1)
    )


class TestPhiEval:
    def test_fixed_quadratic(self):
        p = make_hankel(2, 2, [1.0, -3.0, 1.0])
        assert phi_value(p, 0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_endpoints_exact(self):
        p = make_hankel(3, 2, [0.3, -0.7, 2.0, -1.1])
        assert phi_value(p, 0.0) == -1.1
        assert phi_value(p, 1.0) == 0.3

    def test_matches_direct_sum(self, rng):
        for _ in range(40):
            l = int(rng.integers(2, 11))
            p = make_hankel(l, 2, rng.uniform(-2, 2, l + 1))
            t = float(rng.uniform(0, 1))
            assert phi_value(p, t) == pytest.approx(phi_direct(p, t), rel=1e-12, abs=1e-12)


class TestCopositiveCheck:
    def test_indefinite_quadratic(self):
        rep = copositive_check(make_hankel(2, 2, [1.0, -3.0, 1.0]))
        assert not rep.is_copositive
        assert rep.witness_t == pytest.approx(0.5, abs=1e-10)
        assert rep.min_phi == pytest.approx(-1.0, abs=1e-10)

    def test_copositive_with_negative_entry(self):
        # x^2 - xy + y^2 stays positive on the nonnegative quadrant
        rep = copositive_check(make_hankel(2, 2, [1.0, -0.5, 1.0]))
        assert rep.is_copositive
        assert rep.witness_t is None
        assert rep.min_phi == pytest.approx(0.25, abs=1e-10)

    def test_endpoint_failure(self):
        rep = copositive_check(make_hankel(3, 2, [-1.0, 5.0, 5.0, 2.0]))
        assert not rep.is_copositive
        assert rep.witness_t == 1.0
        rep = copositive_check(make_hankel(3, 2, [2.0, 5.0, 5.0, -1.0]))
        assert not rep.is_copositive
        assert rep.witness_t == 0.0

    def test_boundary_zero_is_copositive(self):
        # (x - y)^2 touches zero at t = 1/2 but never dips below
        rep = copositive_check(make_hankel(2, 2, [1.0, -1.0, 1.0]))
        assert rep.is_copositive
        assert rep.min_phi == pytest.approx(0.0, abs=1e-12)

    def test_takes_no_tol(self):
        with pytest.raises(TypeError):
            copositive_check(make_hankel(2, 2, [1.0, 0.0, 1.0]), tol=1e-10)

    def test_falsify_cuts_finer_than_the_check(self):
        # the check's cut is 1e-10, the falsifier's 1e-12: a form whose
        # minimum lies between them is copositive to one, not to the other
        p = make_hankel(2, 2, [1.0, -(1.0 + 1e-11), 1.0])
        rep = copositive_check(p)
        assert rep.is_copositive and -1e-10 < rep.min_phi < -1e-12
        assert rep.min_phi == pytest.approx(-5e-12, rel=1e-6)
        w = copositive_falsify(p)
        assert w.tolist() == [0.5, 0.5]
        assert eval_form(p, w) == rep.min_phi

    def test_scale_equivariance(self, rng):
        for _ in range(20):
            l = int(rng.integers(2, 9))
            coeffs = rng.uniform(-1, 1, l + 1)
            a = copositive_check(make_hankel(l, 2, coeffs))
            b = copositive_check(make_hankel(l, 2, 1000.0 * coeffs))
            assert a.is_copositive == b.is_copositive
            assert b.min_phi == pytest.approx(1000.0 * a.min_phi, rel=1e-9, abs=1e-9)

    def test_witness_actually_negative(self, rng):
        for _ in range(50):
            l = int(rng.integers(2, 9))
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1))
            rep = copositive_check(p)
            if not rep.is_copositive:
                assert phi_direct(p, rep.witness_t) < 1e-9

    def test_agrees_with_dense_grid(self, rng):
        ts = np.linspace(0.0, 1.0, 20001)
        for _ in range(100):
            l = int(rng.integers(2, 9))
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1))
            rep = copositive_check(p)
            grid_min = float(phi_direct(p, ts).min())
            if grid_min < -1e-6:
                assert not rep.is_copositive
            elif grid_min > 1e-6:
                assert rep.is_copositive
            if p.gen[0] >= 0 and p.gen[-1] >= 0:
                # full critical-point sweep ran, so min_phi is the true minimum
                assert rep.min_phi <= grid_min + 1e-9

    def test_tiny_negative_endpoint_verdict_is_scale_free(self):
        # p_0 = -5e-11 sits within the cut at either scale
        coeffs = np.array([-5e-11, 0.5, 1.0])
        a = copositive_check(make_hankel(2, 2, coeffs))
        b = copositive_check(make_hankel(2, 2, 1000.0 * coeffs))
        assert a.is_copositive and b.is_copositive

    def test_witness_attains_min_phi(self, rng):
        rep = copositive_check(make_hankel(2, 2, [-2.0, 0.0, -1.0]))
        assert not rep.is_copositive
        assert (rep.witness_t, rep.min_phi) == (1.0, -2.0)
        for _ in range(200):
            l = int(rng.integers(2, 13))
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1) * 10.0 ** rng.uniform(-3, 3))
            rep = copositive_check(p)
            if not rep.is_copositive:
                t = rep.witness_t
                if t in (0.0, 1.0):
                    assert bits(rep.min_phi) == bits(p.gen[-1] if t == 0.0 else p.gen[0])
                else:
                    exact, scale = phi_exact(p, t)
                    assert abs(rep.min_phi - exact) <= 3 * (l + 1) * EPS * scale

    def test_verdict_is_min_phi_against_one_cut(self, rng):
        for _ in range(300):
            l = int(rng.integers(2, 13))
            coeffs = rng.uniform(-0.2, 1, l + 1) * 10.0 ** rng.uniform(-3, 3)
            cut = 1e-10 * max(1.0, float(np.max(np.abs(coeffs))))
            # endpoints on both sides of -cut and of -1e-10
            coeffs[0] = -cut * 10.0 ** rng.uniform(-2, 1)
            if rng.uniform() < 0.5:
                coeffs[-1] = -cut * 10.0 ** rng.uniform(-2, 1)
            rep = copositive_check(make_hankel(l, 2, coeffs))
            assert rep.is_copositive == (rep.min_phi >= -cut)

    def test_endpoint_below_cut_skips_the_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sweep reached")

        monkeypatch.setattr(polyroots, "_horner", refuse)
        monkeypatch.setattr(polyroots, "bernstein_roots", refuse)
        for coeffs in ([-1.0, 5.0, 5.0, 2.0], [2.0, 5.0, -1e-7], [-3e3, 1e4, 1e3]):
            rep = copositive_check(make_hankel(len(coeffs) - 1, 2, coeffs))
            assert not rep.is_copositive
            assert rep.critical_points == [0.0, 1.0]

    def test_alternating_degree_50_is_copositive(self):
        # phi = (2t - 1)^50: its monomial coefficients reach 8e22, its
        # Bernstein coefficients stay at +-1
        l = 50
        rep = copositive_check(make_hankel(l, 2, [(-1.0) ** k for k in range(l + 1)]))
        assert rep.is_copositive
        assert rep.min_phi == pytest.approx(0.0, abs=1e-12)
        assert 0.5 in rep.critical_points


def bits(x):
    # the bytes of a float, so -0.0 and 0.0 differ
    return float(x).hex()


def phi_exact(p, t):
    """phi(t) of the plane tensor p, and its rounding scale sum_k |b_k| B_k(t), in rational arithmetic."""
    return binary_exact(p.gen[::-1], 1 - Fraction(t), t)


def check_by_batch(p):
    """copositive_check's examined points and cut, with phi at each point from one ``forms`` batch."""
    coeffs = p.gen
    cut = 1e-10 * max(1.0, float(np.abs(coeffs).max()))
    if min(coeffs[0], coeffs[-1]) < -cut:
        ts = np.array([0.0, 1.0])
    else:
        ts = np.array([0.0] + polyroots.bernstein_roots(np.diff(coeffs[::-1])) + [1.0])
    return ts.tolist(), forms(p, np.stack([ts, 1.0 - ts], axis=1)), cut


def check_against_exact(p):
    """copositive_check(p) examines the batch reference's points, and its min_phi is
    phi there within the stated bound: 3(l+1) eps sum_k |b_k| B_k(t) at an interior
    point, nothing at an end.  The batch's de Casteljau steps err by at most 3l eps
    times the same sum, so min_phi is within twice the largest bound of the batch's
    minimum, and the two verdicts can differ only where min_phi + cut is that close to 0."""
    rep = copositive_check(p)
    ts, batch, cut = check_by_batch(p)
    assert rep.critical_points == ts
    l = p.order
    exact, bound = [], []
    for t in ts:
        value, scale = phi_exact(p, t)
        exact.append(value)
        bound.append(0 if t in (0.0, 1.0) else 3 * (l + 1) * EPS * scale)
    assert min(x - e for x, e in zip(exact, bound)) <= rep.min_phi <= min(x + e for x, e in zip(exact, bound))
    if rep.witness_t is not None:
        i = ts.index(rep.witness_t)
        assert abs(rep.min_phi - exact[i]) <= bound[i]
    band = 2 * max(bound)
    assert abs(Fraction(rep.min_phi) - Fraction(float(batch.min()))) <= band
    if abs(Fraction(rep.min_phi) + Fraction(cut)) > band:
        assert rep.is_copositive == bool(batch.min() >= -cut)


def seeded_planes(rng, count, degrees=(2, 31)):
    # random, nearly nonnegative and moment planes, each scaled by 10^-5..10^5;
    # every fifth has a zero end, of either sign
    for k in range(count):
        l = int(rng.integers(*degrees)) if k % 2 else int(rng.integers(2, 9))
        kind = k % 4
        if kind == 0:
            c = rng.uniform(-1, 1, l + 1)
        elif kind == 1:
            c = rng.uniform(-0.05, 1, l + 1)
        else:
            u, w = rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3)
            c = w @ u[:, None] ** np.arange(l + 1)
        if k % 5 == 0:
            c[[0, -1][k % 2]] = -0.0 if k % 10 else 0.0
        yield make_hankel(l, 2, c * 10.0 ** rng.integers(-5, 6))


class TestScalarEvaluation:
    """phi by the Horner step against the batch contraction's points and verdicts
    and against exact arithmetic, which is its oracle."""

    def test_check_matches_the_batch_reference(self, rng):
        for p in seeded_planes(rng, 600):
            check_against_exact(p)

    @pytest.mark.parametrize("order,dim", [(4, 11), (5, 9), (6, 9), (8, 8), (10, 7), (20, 4)])
    def test_moment_planes_match_the_batch_reference(self, order, dim, rng):
        for _ in range(5):
            measure = DiscreteMeasure(rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3))
            check_against_exact(assoc_plane(from_measure(measure, order, dim)))

    def test_within_the_bound_at_every_degree(self, rng):
        # degrees 2-60 in full, then a few at 200 and at the engine's 1023
        for p in seeded_planes(rng, 240, degrees=(9, 61)):
            check_against_exact(p)
        for l, count in ((200, 3), (1023, 1)):
            for _ in range(count):
                u, w = rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3)
                check_against_exact(make_hankel(l, 2, w @ u[:, None] ** np.arange(l + 1)))

    def test_zero_end_is_the_coefficient(self):
        # an examined end takes p_l or p_0 itself, so the sign of a zero stays
        rep = copositive_check(make_hankel(2, 2, [1.0, 0.5, -0.0]))
        assert (rep.critical_points, bits(rep.min_phi)) == ([0.0, 1.0], bits(-0.0))
        rep = copositive_check(make_hankel(2, 2, [-0.0, 0.5, 1.0]))
        assert (rep.critical_points, bits(rep.min_phi)) == ([0.0, 1.0], bits(-0.0))

    def test_circle_values_at_minus_y_are_signed_copies(self, rng):
        for l in range(2, 40):
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1))
            ys = rng.standard_normal((8, 2))
            assert forms(p, -ys).tobytes() == ((-1.0) ** l * forms(p, ys)).tobytes()


class TestEvalPlane:
    def test_matches_direct(self, rng):
        for _ in range(30):
            l = int(rng.integers(2, 9))
            p = make_hankel(l, 2, rng.uniform(-2, 2, l + 1))
            y1, y2 = rng.uniform(-1.5, 1.5, 2)
            assert plane_value(p, y1, y2) == pytest.approx(
                eval_plane_direct(p, y1, y2), rel=1e-11, abs=1e-11
            )

    def test_homogeneous(self, rng):
        p = make_hankel(4, 2, rng.uniform(-1, 1, 5))
        v = plane_value(p, 0.3, -0.8)
        assert plane_value(p, 0.6, -1.6) == pytest.approx(2.0**4 * v, rel=1e-12)


class TestZExtremes:
    def test_diagonal_quadratic(self):
        # y1^2 + y2^2 on the circle is constant 1
        ext = z_extremes(make_hankel(2, 2, [1.0, 0.0, 1.0]))
        assert ext.lambda_min == pytest.approx(1.0, abs=1e-9)
        assert ext.lambda_max == pytest.approx(1.0, abs=1e-9)

    def test_indefinite_quadratic(self):
        # 2 y1 y2 has extremes -1 and 1 at the diagonals
        ext = z_extremes(make_hankel(2, 2, [0.0, 1.0, 0.0]))
        assert ext.lambda_min == pytest.approx(-1.0, abs=1e-9)
        assert ext.lambda_max == pytest.approx(1.0, abs=1e-9)
        assert abs(ext.y_max[0] * ext.y_max[1]) == pytest.approx(0.5, abs=1e-8)

    def test_quartic_counterexample(self):
        ext = z_extremes(make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0]))
        assert ext.lambda_min == pytest.approx(0.25, abs=1e-8)
        assert ext.lambda_max == pytest.approx(1.0, abs=1e-8)

    def test_extremes_on_unit_circle(self, rng):
        for _ in range(20):
            l = int(rng.integers(2, 7))
            ext = z_extremes(make_hankel(l, 2, rng.uniform(-1, 1, l + 1)))
            assert np.hypot(*ext.y_min) == pytest.approx(1.0, abs=1e-12)
            assert np.hypot(*ext.y_max) == pytest.approx(1.0, abs=1e-12)
            assert ext.lambda_min <= ext.lambda_max + 1e-12

    def test_values_match_their_points(self, rng):
        for _ in range(20):
            l = int(rng.integers(2, 7))
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1))
            ext = z_extremes(p)
            assert plane_value(p, *ext.y_min) == pytest.approx(ext.lambda_min, abs=1e-10)
            assert plane_value(p, *ext.y_max) == pytest.approx(ext.lambda_max, abs=1e-10)

    def test_beats_dense_scan(self, rng):
        thetas = np.linspace(0.0, 2 * np.pi, 100001)
        for _ in range(15):
            l = int(rng.integers(2, 7))
            p = make_hankel(l, 2, rng.uniform(-1, 1, l + 1))
            vals = plane_value(p, np.cos(thetas), np.sin(thetas))
            ext = z_extremes(p)
            assert ext.lambda_min <= vals.min() + 1e-7
            assert ext.lambda_max >= vals.max() - 1e-7

    def test_values_within_the_bound_of_exact(self, rng):
        # a chart value is the Horner step, within 3(l+1) eps of its rounding scale,
        # divided by |y|^l; rounding y to the unit circle and that division add at
        # most (l+2) eps, so each extreme is P(y) at its returned y within
        # 5(l+1) eps sum_k C(l,k) |p_k| |y1|^(l-k) |y2|^k; degrees 2-60, 200 and 1023
        cases = [(l, kind) for l in range(2, 61) for kind in ("random", "moment")]
        cases += [(200, "moment"), (200, "random"), (1023, "moment")]
        for l, kind in cases:
            if kind == "random":
                c = rng.uniform(-1, 1, l + 1) * 10.0 ** rng.integers(-5, 6)
            else:
                u, w = rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3)
                c = w @ u[:, None] ** np.arange(l + 1)
            ext = z_extremes(make_hankel(l, 2, c))
            for lam, y in ((ext.lambda_min, ext.y_min), (ext.lambda_max, ext.y_max)):
                exact, scale = binary_exact(c, *y)
                assert abs(lam - exact) <= 5 * (l + 1) * EPS * scale, (l, kind)

    def test_odd_degree_antisymmetry(self, rng):
        for _ in range(10):
            l = int(rng.integers(1, 4)) * 2 + 1
            ext = z_extremes(make_hankel(l, 2, rng.uniform(-1, 1, l + 1)))
            assert ext.lambda_min == pytest.approx(-ext.lambda_max, rel=1e-8, abs=1e-10)


def grid_min(p):
    return min(phi_value(p, t) for t in np.linspace(0.0, 1.0, 201))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


MEASURES = [([-0.5, 0.25, 0.75], [0.3, 0.5, 0.2]), ([0.0, 1.0], [1.0, 1.0])]


class TestHighDegreeAndMultipleRoots:
    """Inputs that once raised or stalled the root isolation; each now
    finishes in milliseconds, so a one-second limit leaves wide headroom."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("order,dim", [(6, 9), (8, 8), (10, 7)])
    def test_strong_planes_at_degree_48_to_60(self, order, dim, measure):
        p = assoc_plane(from_measure(DiscreteMeasure(*measure), order, dim))
        rep, dt = timed(copositive_check, p)
        assert rep.is_copositive
        assert rep.min_phi >= 0.0
        assert dt < 1.0

    @pytest.mark.parametrize("measure", MEASURES)
    def test_degree_60_minimum_matches_exact_arithmetic(self, measure):
        self.check_minimum_exactly(assoc_plane(from_measure(DiscreteMeasure(*measure), 10, 7)))

    @pytest.mark.parametrize("measure", MEASURES)
    def test_degree_120_minimum_matches_exact_arithmetic(self, measure):
        p = assoc_plane(from_measure(DiscreteMeasure(*measure), 40, 4))
        assert p.order == 120
        self.check_minimum_exactly(p)

    @staticmethod
    def check_minimum_exactly(p):
        rep = copositive_check(p)
        exact = [phi_exact(p, t)[0] for t in rep.critical_points]
        scale = float(np.max(np.abs(p.gen)))
        assert float(min(exact)) == pytest.approx(rep.min_phi, abs=1e-15 * scale)
        t_min = rep.critical_points[exact.index(min(exact))]
        for dt in (-1e-3, -1e-6, 1e-6, 1e-3):
            assert phi_exact(p, t_min + dt)[0] >= min(exact)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_measure(
                DiscreteMeasure(
                    [-0.4682116671061205, -0.8485280161630631, 0.07588680935169334],
                    [0.9083301217185581, 0.05262188720728811, 0.028027177473773146],
                ),
                4,
                11,
            ),
            lambda: compose(
                VandermondeDecomposition(
                    [-0.8153699080168815, -0.45598624027574375], [0.31940990314224876, 0.8054473684232635]
                ),
                10,
                4,
            ),
            lambda: from_measure(DiscreteMeasure([-0.7367683683833885], [0.8528206048308253]), 6, 4),
        ],
        ids=["degree40", "degree30", "rank_one_m6_n4"],
    )
    def test_former_stalls_finish(self, build):
        p = assoc_plane(build())
        rep, dt = timed(copositive_check, p)
        assert rep.is_copositive
        assert dt < 1.0
        assert rep.min_phi <= grid_min(p) + 1e-12 * float(np.max(np.abs(p.gen)))

    def test_rank_one_heig_dim2(self):
        node, weight = -0.07901919773786004, 0.7731754229298827
        pairs, dt = timed(heig_dim2, from_measure(DiscreteMeasure([node], [weight]), 8, 2))
        assert dt < 1.0
        # A = w (1, u)^(x)8 has x = (1, u^(1/7)) with lambda = w (1 + u^(8/7))^7,
        # and x = (-u, 1), orthogonal to (1, u), with lambda = 0
        values = sorted(p.value for p in pairs)
        root = -(abs(node) ** (1.0 / 7.0))
        assert values == pytest.approx([0.0, weight * (1.0 + node * root) ** 7], abs=1e-9)


class TestPlaneIsDim2Tensor:
    ROUTINES = (
        copositive_check,
        z_extremes,
    )

    def test_plane_routines_take_dim2_tensors_only(self):
        square = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
        for routine in self.ROUTINES:
            routine(square)
            with pytest.raises(ValueError, match="dim = 2"):
                routine(make_hankel(2, 3, [1.0, 0.0, 0.0, 0.0, 1.0]))
        assert copositive_check(square).is_copositive
        assert z_extremes(square).lambda_min == pytest.approx(0.25, abs=1e-12)

    def test_tensor_routines_take_the_plane(self, rng):
        a = make_hankel(2, 3, rng.uniform(-1, 1, 5))
        p = assoc_plane(a)
        assert (p.order, p.dim) == (4, 2)
        i = np.arange(3)
        want = np.linalg.eigvalsh(p.gen[i[:, None] + i[None, :]])[0]
        assert is_strong(p).min_eigenvalue == pytest.approx(want, abs=1e-12)
        pairs = heig_dim2(p)
        assert pairs
        for pair in pairs:
            x = pair.vector
            residual = eval_gradient_form(p, x) - pair.value * x**3
            assert np.max(np.abs(residual)) <= 1e-9


class TestValidation:
    def test_degree_and_length(self):
        with pytest.raises(ValueError):
            make_hankel(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            make_hankel(2, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            make_hankel(2, 2, [1.0, np.inf, 2.0])
