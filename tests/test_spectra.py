import itertools
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hankeltensor import (
    DiscreteMeasure,
    EigenPair,
    assoc_matrix,
    assoc_plane,
    bounds_prop6,
    bounds_prop7,
    compose,
    copositive_falsify,
    eval_form,
    eval_gradient_form,
    from_measure,
    heig_dim2,
    is_strong,
    make_hankel,
    odd_sign_check,
    z_extremes,
    zeig_extreme,
)
from hankeltensor import spectra
from hankeltensor.cli import main
from hankeltensor.polyroots import form_directions
from conftest import (
    binary_exact,
    dense_matrix,
    exact_ldl_pivots,
    random_hankel,
    random_measure,
    random_positive_decomposition,
)

COUNTEREXAMPLE = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
CROSS_NEG = make_hankel(4, 2, [0.0, 0.0, -1.0 / 6.0, 0.0, 0.0])


def loop_simplex_grid(dim, steps):
    # reference generator: one grid point per yield, in itertools.combinations
    # order of the cuts
    for cuts in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + dim - 2 - prev)
        yield np.array(parts, dtype=float) / steps


def loop_scan(a, depth=1, stop=-np.inf):
    # point-by-point scan with eval_form; the first grid minimum wins, and
    # the first point below ``stop`` ends the scan
    best_x, best_f = None, np.inf
    for x in loop_simplex_grid(a.dim, 64 * depth):
        f = eval_form(a, x)
        if f < best_f:
            best_x, best_f = x, f
        if f < stop:
            break
    return best_x


def loop_heig_dim2(a):
    # one candidate at a time, with eval_gradient_form on A and on |A|, lambda
    # at the first coordinate with |x_i|^(m-1) > 0.5, and a pairwise dedup
    m = a.order
    v = np.asarray(a.gen)
    binom = np.array([math.comb(m - 1, k) for k in range(m)], dtype=float)
    g = np.zeros(2 * m - 1)
    g[:m] += binom * v[1:]
    g[m - 1 :] -= binom * v[:m]
    weights = np.array([math.comb(2 * m - 2, j) for j in range(2 * m - 1)], dtype=float)
    abs_a = make_hankel(m, 2, np.abs(v))
    pairs = []
    for x in form_directions(g / weights):
        x = x / np.max(np.abs(x))
        imax = int(np.argmax(np.abs(x)))
        if x[imax] < 0:
            x = -x
        grad = eval_gradient_form(a, x)
        powers = x ** (m - 1)
        lam = float([grad[i] / powers[i] for i in range(2) if abs(powers[i]) > 0.5][0])
        residual = float(np.max(np.abs(grad - lam * powers)))
        grad_scale = float(np.max(eval_gradient_form(abs_a, np.abs(x))))
        if residual <= 1e-8 * min(1.0 + abs(lam), grad_scale):
            pairs.append(EigenPair("H", lam, x, True, residual))
    pairs.sort(key=lambda p: (-p.value, tuple(p.vector)))
    deduped = []
    for p in pairs:
        dup = any(
            abs(p.value - q.value) <= 1e-9 * (1.0 + abs(q.value))
            and min(np.max(np.abs(p.vector - q.vector)), np.max(np.abs(p.vector + q.vector))) <= 1e-9
            for q in deduped
        )
        if not dup:
            deduped.append(p)
    return deduped


def cut_of(a):
    return 1e-12 * max(1.0, float(np.max(np.abs(a.gen))))


def project_simplex(x):
    # Euclidean projection onto the standard simplex
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.shape[0] + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def polish(a, x):
    # the 20 projected-gradient steps that followed the grid scan; the
    # value only goes down, so a start below the cut keeps a witness
    fx = eval_form(a, x)
    for _ in range(20):
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
            xn = project_simplex(x - eta * g)
            fn = eval_form(a, xn)
            if fn < fx:
                x, fx = xn, fn
                improved = True
                break
            eta *= 0.5
        if not improved:
            break
    return x if fx < -cut_of(a) else None


def corners_nonnegative(gen, order):
    # the vertex values are v_(j m); with them nonnegative a witness has to
    # come from a subdivision
    return np.where(np.arange(len(gen)) % order == 0, np.abs(gen), gen)


def exact_form(a, x):
    # A x^m from the index-sum definition, in exact arithmetic at the float
    # coordinates of x
    v = [Fraction(t) for t in a.gen]
    xs = [Fraction(t) for t in x]
    return sum(
        v[sum(idx)] * math.prod(xs[i] for i in idx) for idx in itertools.product(range(a.dim), repeat=a.order)
    )


def exact_bisection_finds_witness(a, budget=4096):
    # longest-edge bisection of the standard simplex in Fraction arithmetic:
    # Bernstein nets keyed by multi-index, root net v_(w(alpha)), children by
    # de Casteljau at 1/2, the first longest edge on ties, and the same cut
    # and node budget as copositive_falsify at depth 1
    m, n = a.order, a.dim
    cut = Fraction(cut_of(a))
    alphas = [tuple(c.count(j) for j in range(n)) for c in itertools.combinations_with_replacement(range(n), m)]
    v = [Fraction(t) for t in a.gen]
    corners = [tuple(m * (i == j) for i in range(n)) for j in range(n)]
    root = {al: v[sum(j * aj for j, aj in enumerate(al))] for al in alphas}
    level = [(root, [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)])]
    made = 0
    while True:
        if any(net[c] < -cut for net, _ in level for c in corners):
            return True
        level = [(net, verts) for net, verts in level if min(net.values()) < -cut]
        made += 2 * len(level)
        if not level or made > budget:
            return False
        children = []
        for net, verts in level:
            i, j = max(
                itertools.combinations(range(n), 2),
                key=lambda e: sum((p - q) ** 2 for p, q in zip(verts[e[0]], verts[e[1]])),
            )
            mid = tuple((p + q) / 2 for p, q in zip(verts[i], verts[j]))
            for keep, moved in ((i, j), (j, i)):
                child = {}
                for al in alphas:
                    total = Fraction(0)
                    for k in range(al[moved] + 1):
                        beta = list(al)
                        beta[moved], beta[keep] = k, al[keep] + al[moved] - k
                        total += math.comb(al[moved], k) * net[tuple(beta)]
                    child[al] = total / 2 ** al[moved]
                child_verts = list(verts)
                child_verts[moved] = mid
                children.append((child, child_verts))
        level = children


@pytest.fixture
def casteljau_steps(monkeypatch):
    # the row counts of the de Casteljau half-steps copositive_falsify takes,
    # one np.take_along_axis per half-step
    rows = []
    take = np.take_along_axis

    def spy(arr, indices, axis):
        rows.append(arr.shape[0])
        return take(arr, indices, axis)

    monkeypatch.setattr(np, "take_along_axis", spy)
    return rows


def certificate_calls(monkeypatch, certify=None):
    # record each call of the matrix certificate and its answer; with
    # ``certify`` given, answer that instead, so False runs the subdivision
    # alone
    calls = []
    real = spectra._matrix_certifies

    def record(a, big, cut):
        ok = real(a, big, cut) if certify is None else certify
        calls.append((a, ok))
        return ok

    monkeypatch.setattr(spectra, "_matrix_certifies", record)
    return calls


def zmin(a, **kw):
    return zeig_extreme(a, "min", **kw)


def zmax(a, **kw):
    return zeig_extreme(a, "max", **kw)


class TestZeig:
    def test_identity_matrix(self):
        a = make_hankel(2, 2, [1.0, 0.0, 1.0])
        assert zmin(a).value == pytest.approx(1.0, abs=1e-10)
        assert zmax(a).value == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_matrix(self):
        a = make_hankel(2, 2, [1.0, 1.0, 1.0])
        pair = zmax(a)
        assert pair.value == pytest.approx(2.0, abs=1e-9)
        assert_allclose(np.abs(pair.vector), np.sqrt(0.5), atol=1e-7)
        assert zmin(a).value == pytest.approx(0.0, abs=1e-9)

    def test_quartic_counterexample(self):
        pair = zmin(COUNTEREXAMPLE)
        assert pair.converged
        assert pair.value == pytest.approx(0.25, abs=1e-8)
        assert_allclose(np.abs(pair.vector), np.sqrt(0.5), atol=1e-6)
        assert zmax(COUNTEREXAMPLE).value == pytest.approx(1.0, abs=1e-8)

    def test_all_ones_quartic(self):
        a = make_hankel(4, 2, np.ones(5))
        assert zmax(a).value == pytest.approx(4.0, abs=1e-8)
        assert zmin(a).value == pytest.approx(0.0, abs=1e-8)

    def test_unit_vector_and_value_consistency(self, rng):
        for _ in range(10):
            a = random_hankel(rng, 3, 3)
            pair = zmax(a)
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
            assert eval_form(a, pair.vector) == pytest.approx(pair.value, abs=1e-9)

    def test_residual_is_gradient_defect(self, rng):
        for _ in range(10):
            a = random_hankel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            for mode in ("min", "max"):
                pair = zeig_extreme(a, mode)
                defect = eval_gradient_form(a, pair.vector) - pair.value * pair.vector
                assert float(np.max(np.abs(defect))) == pytest.approx(
                    pair.residual, abs=1e-11
                )

    def test_matrix_case_matches_eigvalsh(self, monkeypatch, rng):
        # one eigh answers at order 2, with no power step
        def refuse(*args):
            raise AssertionError("power step at order 2")

        monkeypatch.setattr(spectra, "_grad_and_jacobian", refuse)
        cases = [random_hankel(rng, 2, int(rng.integers(2, 5))) for _ in range(20)]
        # associated Hankel matrices of dims 8-31, from planes of degree 2q - 2
        for q in range(8, 32):
            dim = 2 + q % 2
            cases.append(assoc_matrix(random_hankel(rng, (2 * q - 2) // (dim - 1), dim)))
            assert cases[-1].dim == q
        for a in cases:
            i = np.arange(a.dim)
            w = np.linalg.eigvalsh(np.asarray(a.gen)[i[:, None] + i[None, :]])
            lo, hi = zmin(a), zmax(a)
            assert lo.converged and hi.converged
            assert lo.value == pytest.approx(w[0], abs=1e-7)
            assert hi.value == pytest.approx(w[-1], abs=1e-7)

    def test_dim2_ignores_restarts(self, rng):
        # the lifted circle extreme is the one start, and order 2 has no start
        for order in (2, 3, 4, 6):
            a = random_hankel(rng, order, 2)
            for mode in ("min", "max"):
                want = zeig_extreme(a, mode)
                for kw in ({"restarts": 1}, {"restarts": 50}):
                    got = zeig_extreme(a, mode, **kw)
                    assert (got.value, got.converged, got.residual) == (
                        want.value, want.converged, want.residual
                    )
                    assert got.vector.tobytes() == want.vector.tobytes()

    def test_scanned_starts_reach_the_global_maximum(self):
        # with four independent random starts the max mode stopped at a local
        # maximum, 2.50974; the best rows of the sphere scan reach the global
        # one, 2.8952984574 (restarts=20 found it too)
        v = [
            0.5056566392047357, -0.3294053142907003, 0.608811039436278, 0.6783075126458522,
            0.1082633833832467, -0.6787095582946998, -0.6959766835641095, 0.3630955285490136,
            -0.04559058181240916, 0.6992832118178847, 0.19595199344075587, -0.12031083810805976,
            0.3243294830833814,
        ]
        pair = zeig_extreme(make_hankel(6, 3, v), "max", restarts=4, iters=300)
        assert pair.value >= 2.895298 - 1e-9 * (1.0 + abs(pair.value))

    def test_min_below_max(self, rng):
        for _ in range(10):
            a = random_hankel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            assert zmin(a).value <= zmax(a).value + 1e-10

    def test_odd_order_sign_symmetry(self, rng):
        for _ in range(10):
            a = random_hankel(rng, int(rng.integers(1, 3)) * 2 + 1, 2)
            assert zmin(a).value == pytest.approx(-zmax(a).value, abs=1e-7)

    def test_dim2_odd_order_matches_circle_extremes(self, rng):
        # at odd order -y is the other extreme, so each mode needs its own start
        for order in (3, 5):
            for _ in range(20):
                a = random_hankel(rng, order, 2)
                ext = z_extremes(assoc_plane(a))
                for mode, lam in (("min", ext.lambda_min), ("max", ext.lambda_max)):
                    pair = zeig_extreme(a, mode, restarts=4, iters=300)
                    assert abs(pair.value - lam) <= 1e-9 * (1.0 + abs(lam))

    def test_odd_plane_degree_gets_the_plane_start(self):
        a = make_hankel(5, 4, np.random.default_rng(118).uniform(-1, 1, 16))
        assert zeig_extreme(a, "max", restarts=4, iters=300).value >= 8.44

    @pytest.mark.parametrize("order,dim", [(3, 4), (5, 4), (3, 6), (7, 4)])
    def test_odd_degree_extremes_reach_the_lifted_plane_extremes(self, rng, order, dim):
        j = np.arange(dim)
        for _ in range(5):
            a = random_hankel(rng, order, dim)
            ext = z_extremes(assoc_plane(a))
            for mode, y in (("min", ext.y_min), ("max", ext.y_max)):
                w = y[0] ** (dim - 1 - j) * y[1] ** j
                lifted = eval_form(a, w / np.linalg.norm(w))
                value = zeig_extreme(a, mode, restarts=4, iters=300).value
                if mode == "max":
                    assert value >= lifted - 1e-9 * (1.0 + abs(lifted))
                else:
                    assert value <= lifted + 1e-9 * (1.0 + abs(lifted))

    def test_plane_extremes_computed_once_per_tensor(self, monkeypatch):
        calls = []
        original = spectra.z_extremes

        def counting(p):
            calls.append(p.order)
            return original(p)

        monkeypatch.setattr(spectra, "z_extremes", counting)
        spectra._plane_lifts.cache_clear()
        a = make_hankel(4, 3, np.linspace(-1.0, 0.5, 9))
        zeig_extreme(a, "min")
        zeig_extreme(a, "max")
        bounds_prop7(a)
        assert calls == [8]

    def test_only_the_winning_start_is_polished(self, monkeypatch):
        calls = []
        original = spectra._newton_polish

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectra, "_newton_polish", counting)
        for order, dim in ((4, 3), (3, 5), (6, 2)):
            a = make_hankel(order, dim, np.linspace(-1.0, 0.5, (dim - 1) * order + 1))
            for mode in ("min", "max"):
                calls.clear()
                pair = zeig_extreme(a, mode, restarts=4)
                assert len(calls) == 1, (order, dim, mode)
                assert pair.converged == (pair.residual <= 1e-8 * (1.0 + abs(pair.value)))

    # _grad_and_jacobian calls per call at commit b210ea4, where every start
    # ran to the 1e-12 stall: (order, dim, seed, mode) -> count
    FULL_STALL_CALLS = {
        (4, 4, 44, "min"): 781,
        (4, 4, 44, "max"): 1574,
        (3, 5, 35, "min"): 2287,
        (3, 5, 35, "max"): 2492,
    }

    def test_every_start_stops_at_the_rough_stall(self, monkeypatch):
        # every start, the winner included, stops once its value moves by at
        # most 1e-4 of itself; the Newton polish finishes the winner
        calls = []
        original = spectra._grad_and_jacobian

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(spectra, "_grad_and_jacobian", counting)
        for (order, dim, seed, mode), full in self.FULL_STALL_CALLS.items():
            gen = np.random.default_rng(seed).uniform(-1, 1, (dim - 1) * order + 1)
            calls.clear()
            assert zeig_extreme(make_hankel(order, dim, gen), mode).converged
            assert len(calls) <= 0.6 * full, (order, dim, mode, len(calls))

    def test_each_start_takes_at_most_iters_steps(self, monkeypatch):
        # each start pays one evaluation at its start point and at most
        # `iters` power steps of its own; polish calls are not steps
        count = [0, 0]
        grad, polish = spectra._grad_and_jacobian, spectra._newton_polish

        def counting(*args):
            count[0] += 1
            return grad(*args)

        def polishing(*args, **kwargs):
            before = count[0]
            out = polish(*args, **kwargs)
            count[1] += count[0] - before
            return out

        monkeypatch.setattr(spectra, "_grad_and_jacobian", counting)
        monkeypatch.setattr(spectra, "_newton_polish", polishing)
        for order, dim in ((4, 2), (4, 3), (3, 5), (5, 4)):
            a = make_hankel(order, dim, np.linspace(-1.0, 0.5, (dim - 1) * order + 1))
            # coordinate vectors, the plane lift and 4 scanned rows; dim 2 has one
            starts = 1 if dim == 2 else dim + 1 + 4
            for iters in range(1, 7):
                for mode in ("min", "max"):
                    count[:] = [0, 0]
                    pair = zeig_extreme(a, mode, restarts=4, iters=iters)
                    steps = count[0] - count[1] - starts
                    assert 0 <= steps <= starts * iters, (order, dim, iters, mode, steps)
                    assert pair.steps == steps

    def test_rejected_step_escalates_the_shift(self, monkeypatch):
        # a start Jacobian of curvature far above the value puts the plane's
        # Ritz value near lambda > 0, which leaves the first start's first
        # power step on the pad alone; on this tensor that step lowers the
        # value from 0.61 to -0.07, so it must be rejected and retried on
        # doubled shifts, with no fresh shift, until the value no longer drops
        a = make_hankel(4, 3, np.random.default_rng(5).uniform(-1, 1, 9))
        log, lows = [], []
        grad, plane_low = spectra._grad_and_jacobian, spectra._plane_low

        def recording(gen, order, x):
            g, m_mat = grad(gen, order, x)
            log.append(float(x @ g))
            if len(log) == 1:
                m_mat = m_mat + 1e6 * np.eye(len(x))
            return g, m_mat

        def shifting(*args):
            log.append("shift")
            lows.append(plane_low(*args))
            return lows[-1]

        monkeypatch.setattr(spectra, "_grad_and_jacobian", recording)
        monkeypatch.setattr(spectra, "_plane_low", shifting)
        pair = zeig_extreme(a, "max")
        # the start's value, its pad-only shift, then every step taken before
        # the next shift: the rejected ones and the one accepted
        start, shift, *steps = log[: log.index("shift", 2)]
        assert shift == "shift" and lows[0] > 0.0
        assert steps[0] < start - 0.5
        assert len(steps) > 1
        assert steps[-1] >= start - 1e-14 * (1.0 + abs(start))
        assert pair.converged and pair.value >= start
        assert pair.rejected >= len(steps) - 1

    def test_no_eigvalsh_above_order_2(self, monkeypatch, rng):
        # the shift comes from the 2x2 restriction to span{x, A x^(m-1)}
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh in zeig_extreme")

        cases = [random_hankel(rng, order, dim) for order, dim in ((3, 2), (4, 2), (3, 3), (4, 4), (5, 3), (3, 5))]
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for a in cases:
            for mode in ("min", "max"):
                assert zeig_extreme(a, mode, restarts=4).steps > 0

    def test_plane_ritz_value_is_interlaced(self, rng):
        # lambda_min(M) <= mu <= x . M x for the restriction of M to
        # span{x, M x}; at dim 2 the plane is R^2 and mu is lambda_min(M)
        for dim in (2, 3, 4, 5, 6):
            i = np.arange(dim)
            for _ in range(200):
                m_mat = rng.uniform(-1, 1, 2 * dim - 1)[i[:, None] + i[None, :]] * 10.0 ** rng.uniform(-3, 3)
                x = rng.standard_normal(dim)
                x /= np.linalg.norm(x)
                g = m_mat @ x
                lam = float(x @ g)
                mu = spectra._plane_low(m_mat, x, g, lam)
                low = np.linalg.eigvalsh(m_mat)[0]
                size = np.linalg.norm(m_mat, 2)
                assert low - 1e-12 * size <= mu <= lam
                if dim == 2:
                    assert mu <= low + 1e-12 * size
            # an eigenvector spans no plane with M x: mu is its eigenvalue
            x = np.eye(dim)[1]
            assert spectra._plane_low(np.diag(np.arange(1.0, dim + 1)), x, 2.0 * x, 2.0) == 2.0

    # power steps per call with the shift from the smallest eigenvalue of
    # A x^(m-2) in place of the plane's Ritz value: (order, dim, seed, mode) -> steps
    EIGVALSH_SHIFT_STEPS = {
        (4, 4, 44, "min"): 213, (4, 4, 44, "max"): 445,
        (4, 4, 45, "min"): 254, (4, 4, 45, "max"): 106,
        (4, 4, 46, "min"): 365, (4, 4, 46, "max"): 226,
        (3, 5, 35, "min"): 582, (3, 5, 35, "max"): 711,
        (3, 5, 36, "min"): 363, (3, 5, 36, "max"): 417,
        (3, 5, 37, "min"): 353, (3, 5, 37, "max"): 290,
    }

    def test_plane_shift_takes_fewer_steps(self):
        # the Ritz value is never below lambda_min(A x^(m-2)), so the shift is
        # never larger; over these calls it takes at most 0.7 of the steps
        total = 0
        for (order, dim, seed, mode), before in self.EIGVALSH_SHIFT_STEPS.items():
            gen = np.random.default_rng(seed).uniform(-1, 1, (dim - 1) * order + 1)
            pair = zeig_extreme(make_hankel(order, dim, gen), mode)
            assert pair.converged
            assert 0 < pair.steps <= before, (order, dim, seed, mode, pair.steps)
            assert 0 <= pair.rejected <= pair.steps
            total += pair.steps
        assert total <= 0.7 * sum(self.EIGVALSH_SHIFT_STEPS.values())
        # order 2 and dim-2 H-eigenpairs take no power step
        assert zmax(make_hankel(2, 3, np.arange(5.0))).steps == 0
        assert all(p.steps == p.rejected == 0 for p in heig_dim2(make_hankel(3, 2, [1.0, 0.5, -1.0, 2.0])))

    @pytest.mark.parametrize("order,dim", [(3, 3), (4, 3), (4, 4), (6, 3), (3, 5)])
    def test_scaled_tensor_gives_the_scaled_extremes(self, order, dim):
        # at 1e200 the squares of the entries overflow a float, so a step
        # norm that squares them would end every start before its first step
        # and leave the answer to the polish; hypot does not square them
        for seed in range(10):
            v = np.random.default_rng([order, dim, seed]).uniform(-1, 1, (dim - 1) * order + 1)
            for mode in ("min", "max"):
                want = zeig_extreme(make_hankel(order, dim, v), mode, restarts=4, iters=300)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = zeig_extreme(make_hankel(order, dim, 1e200 * v), mode, restarts=4, iters=300)
                assert abs(got.value / 1e200 - want.value) <= 1e-12 * (1.0 + abs(want.value))
                assert got.converged == want.converged

    @pytest.mark.parametrize(
        "failure,negative",
        [
            pytest.param("singular", False, id="singular"),
            pytest.param("nan", False, id="nan"),
            pytest.param("zero step", False, id="zero step"),
            pytest.param("zero step", True, id="zero step, negative max"),
        ],
    )
    def test_failed_polish_returns_the_unpolished_winner(self, monkeypatch, failure, negative):
        # the polish stops at its first failed Newton step: a singular
        # system, a non-finite step, or a step to the zero vector.  The
        # negative case has its maximum at -0.00552, so a zero vector, of
        # value 0 and residual 0, would pass the polish's acceptance test
        if negative:
            a = make_hankel(4, 3, -from_measure(DiscreteMeasure([0.3, -0.5, 0.9], [1, 1, 0.5]), 4, 3).gen - 0.01)
        else:
            a = make_hankel(4, 3, np.random.default_rng(5).uniform(-1, 1, 9))
        winners, solves = [], []
        polish = spectra._newton_polish

        def recording(gen, order, x, lam):
            winners.append(x)
            return polish(gen, order, x, lam)

        def failing(jac, rhs):
            solves.append(1)
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            if failure == "nan":
                return np.full(len(rhs), np.nan)
            # the last row of the Jacobian is x, so this step lands on 0
            return np.concatenate([-jac[-1, :-1], [0.0]])

        monkeypatch.setattr(spectra, "_newton_polish", recording)
        monkeypatch.setattr(np.linalg, "solve", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = zeig_extreme(a, "max")
        assert len(solves) == 1
        assert pair.vector.tobytes() == winners[0].tobytes()
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        assert pair.converged == (pair.residual <= 1e-8 * (1.0 + abs(pair.value)))

    def test_unique_winner_matches_the_full_stall_bytes(self):
        # values recorded with float.hex at commit b210ea4, where every start
        # ran to the 1e-12 stall; the Newton polish reaches the same bytes
        # from where the winner now stops.  The dim-2 case was re-recorded
        # when the shift came from the plane's Ritz value: its value moved
        # by 2 ulps
        cases = [
            (5, 2, 7, "min", {}, "-0x1.a17c261a37c1cp+0", "0x1.0000000000000p-53",
             ["-0x1.d19001f2a7ec2p-1", "-0x1.aa1fe1dc24710p-2"]),
            # one start reaches 6.7987; the next best stops at 2.9380
            (5, 3, 5, "max", {"restarts": 1}, "0x1.b31d367098a92p+2", "0x1.0000000000000p-50",
             ["-0x1.0bed2c7085f65p-1", "-0x1.37996421629f0p-1", "-0x1.3164cec37ec74p-1"]),
        ]
        for order, dim, seed, mode, kw, value, residual, vector in cases:
            gen = np.random.default_rng(seed).uniform(-1, 1, (dim - 1) * order + 1)
            pair = zeig_extreme(make_hankel(order, dim, gen), mode, **kw)
            assert pair.converged
            assert pair.value.hex() == value
            assert pair.residual.hex() == residual
            assert [float(x).hex() for x in pair.vector] == vector

    def test_dim2_high_order_reaches_the_circle_extreme(self):
        # 2^m-sized shifts overflow the power step's norm at this order; an
        # overflowing step must end its start, not zero the iterate
        a = make_hankel(550, 2, np.random.default_rng(550).uniform(-1, 1, 551))
        pair = zeig_extreme(a, "max", restarts=4, iters=300)
        lam = z_extremes(a).lambda_max
        assert pair.converged
        assert abs(pair.value - lam) <= 1e-9 * abs(lam)

    @pytest.mark.parametrize("order,dim", [(150, 4), (300, 3)])
    def test_high_order_converges_from_the_plane_start(self, order, dim):
        # plane degrees 450 and 600: from the coordinate and scanned starts
        # alone the winner ends unconverged here
        a = make_hankel(order, dim, np.random.default_rng([order, dim, 0]).uniform(-1, 1, (dim - 1) * order + 1))
        pair = zeig_extreme(a, "max", restarts=4, iters=300)
        assert pair.converged
        assert pair.value >= bounds_prop7(a).lower_for_max

    def test_overflowing_shift_scale_is_refused(self):
        a = make_hankel(660, 3, np.random.default_rng(660).uniform(-1, 1, 1321))
        with pytest.raises(ValueError, match="shift scale overflows at order 660, dim 3"):
            zeig_extreme(a, "max")
        # entries near the float limit overflow the sum at low order, with no warning first
        a = make_hankel(6, 3, 1e306 * np.random.default_rng(1).uniform(-1, 1, 13))
        with pytest.raises(ValueError, match="shift scale overflows at order 6, dim 3"):
            zeig_extreme(a, "max")

    def test_deterministic(self):
        a = make_hankel(3, 3, np.linspace(-1, 1, 7))
        p1 = zmax(a, restarts=5)
        p2 = zmax(a, restarts=5)
        assert p1.value == p2.value
        assert p1.vector.tobytes() == p2.vector.tobytes()

    def test_scan_table_is_one_fixed_read_only_draw(self):
        for dim in (3, 5):
            table = spectra._scan_directions(dim)
            assert spectra._scan_directions(dim) is table
            assert not table.flags.writeable
            want = np.random.default_rng(0).standard_normal((1024, dim))
            want /= np.linalg.norm(want, axis=1, keepdims=True)
            assert table.tobytes() == want.tobytes()

    def test_scan_values_are_computed_once_per_tensor(self, rng):
        # both modes rank one cached batch; -A's values are exactly its negations
        spectra._scan_values.cache_clear()
        a = random_hankel(rng, 4, 3)
        for mode in ("min", "max"):
            zeig_extreme(a, mode, restarts=4, iters=50)
        info = spectra._scan_values.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        vals = spectra._scan_values(a.order, a.dim, a.gen.tobytes())
        assert not vals.flags.writeable
        table = spectra._scan_directions(a.dim)
        assert vals.tobytes() == spectra._contract(a.gen, table, a.order)[0].tobytes()
        assert (-vals).tobytes() == spectra._contract(-a.gen, table, a.order)[0].tobytes()

    def test_restarts_beyond_the_table_are_refused(self):
        # the scan table has 1024 rows; more restarts are refused before any work
        a = make_hankel(3, 5, np.linspace(-1.0, 1.0, 13))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"restarts must be in 1\.\.1024"):
            zeig_extreme(a, "max", restarts=1025)
        assert time.perf_counter() - start < 0.1
        assert zeig_extreme(a, "max", restarts=1024, iters=1).steps > 0

    def test_seed_is_not_an_argument(self):
        a = make_hankel(3, 3, np.linspace(-1, 1, 7))
        with pytest.raises(TypeError):
            zeig_extreme(a, "max", seed=0)

    def test_validation(self):
        a = make_hankel(2, 2, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            zeig_extreme(a, "largest")
        with pytest.raises(ValueError):
            zeig_extreme(a, "max", restarts=0)
        with pytest.raises(ValueError):
            zeig_extreme(a, "max", iters=0)

    @pytest.mark.parametrize("name", ["restarts", "iters"])
    def test_integer_arguments(self, name):
        a = make_hankel(3, 3, np.linspace(-1, 1, 7))
        with pytest.raises(TypeError, match=f"{name} must be an integer, not float"):
            zeig_extreme(a, "max", **{name: 2.5})
        got = zeig_extreme(a, "max", **{name: np.int64(3)})
        want = zeig_extreme(a, "max", **{name: 3})
        assert got.value == want.value
        assert got.vector.tobytes() == want.vector.tobytes()


class TestHeigDim2:
    def test_cubic_all_ones(self):
        pairs = heig_dim2(make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0]))
        assert [p.value for p in pairs] == [
            pytest.approx(4.0, abs=1e-9),
            pytest.approx(0.0, abs=1e-9),
        ]
        assert_allclose(pairs[0].vector, [1.0, 1.0], atol=1e-9)
        # (1,-1) sits at a triple root of the pencil, so float root-finding
        # only pins it to ~cbrt(eps); the eigen residual is still tight
        diff = min(
            np.max(np.abs(pairs[1].vector - [1.0, -1.0])),
            np.max(np.abs(pairs[1].vector + [1.0, -1.0])),
        )
        assert diff < 1e-4
        assert pairs[1].residual < 1e-10

    def test_matrix_case_matches_eigvalsh(self, rng):
        for _ in range(30):
            a = random_hankel(rng, 2, 2)
            got = sorted(p.value for p in heig_dim2(a))
            w = np.linalg.eigvalsh(np.array([[a.gen[0], a.gen[1]], [a.gen[1], a.gen[2]]]))
            assert len(got) == 2
            assert_allclose(got, w, atol=1e-7)

    def test_eigen_equation_holds(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            a = random_hankel(rng, m, 2)
            for p in heig_dim2(a):
                lhs = eval_gradient_form(a, p.vector)
                assert_allclose(lhs, p.value * p.vector ** (m - 1), atol=1e-7)

    def test_small_gradient_is_not_an_eigenvector(self):
        # at (0, 1) the gradient (6.8e-9, 3.3e-9) is not parallel to x^[26]
        # = (0, 1); only its size passes the absolute residual test
        a = from_measure(
            DiscreteMeasure([0.48935747830862475, 0.11919582900698633], [0.7937945369071366, 0.4754797265597622]),
            27,
            2,
        )
        pairs = heig_dim2(a)
        assert not any(np.allclose(p.vector, [0.0, 1.0]) for p in pairs)
        assert len(pairs) == 3
        assert_allclose([p.value for p in pairs[:2]], [19805.061397430425, 0.02308835464791862], rtol=1e-9)
        assert abs(pairs[2].value) < 1e-15  # (-1/3, 1): below the gradient's rounding level

    def test_degenerate_pencil(self):
        # zero tensor: every direction is an eigenvector for lambda = 0
        pairs = heig_dim2(make_hankel(3, 2, np.zeros(4)))
        assert pairs and all(p.value == pytest.approx(0.0, abs=1e-14) for p in pairs)

    def test_vectors_max_normalised(self, rng):
        for _ in range(10):
            a = random_hankel(rng, 4, 2)
            for p in heig_dim2(a):
                assert np.max(np.abs(p.vector)) == pytest.approx(1.0, abs=1e-12)

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            heig_dim2(make_hankel(2, 3, np.ones(5)))

    def test_batched_pass_matches_the_loop(self, rng):
        # same candidates and scaling: equal pairs and vectors bit for bit;
        # lambda is read by another evaluation order, so only to 1e-12
        for m in range(2, 11):
            for kind in ("random", "moment", "integer"):
                for _ in range(12):
                    if kind == "random":
                        a = random_hankel(rng, m, 2)
                    elif kind == "moment":
                        a = from_measure(random_measure(rng, max_nodes=4), m, 2)
                    else:
                        a = make_hankel(m, 2, rng.integers(-3, 4, m + 1).astype(float))
                    got = {p.vector.tobytes(): p.value for p in heig_dim2(a)}
                    want = {p.vector.tobytes(): p.value for p in loop_heig_dim2(a)}
                    assert got.keys() == want.keys()
                    for key, lam in want.items():
                        assert abs(got[key] - lam) <= 1e-12 * (1.0 + abs(lam))

    def test_root_next_to_an_axis_is_reported_once(self):
        # chart roots sit 1e-12 from (1, 0) and (0, 1), and both axes pass
        # the residual gate too; each eigenpair comes back once, by the
        # chart root, whose residual is the smaller
        pairs = heig_dim2(make_hankel(2, 2, [1.0, 1e-12, 2.0]))
        w = np.linalg.eigvalsh(np.array([[1.0, 1e-12], [1e-12, 2.0]]))
        assert len(pairs) == 2
        assert_allclose(sorted(p.value for p in pairs), w, rtol=1e-15)
        assert all(p.vector[0] != 0.0 and p.vector[1] != 0.0 for p in pairs)
        assert all(p.residual < 1e-15 for p in pairs)  # 1e-12 at the axes

    @pytest.mark.parametrize("order", [3, 4, 6, 9, 10])
    def test_near_axis_pairs_match_the_loop(self, rng, order):
        # v_1 and v_(m-1) at 1e-12 of the rest put a chart root next to each
        # axis; the loop's dedup and the grouping by axis give the same pairs,
        # and next to an axis the grouping reports the smaller residual
        for _ in range(8):
            v = rng.uniform(-1.0, 1.0, order + 1)
            v[1], v[order - 1] = rng.choice([-1e-12, 1e-12], 2)
            a = make_hankel(order, 2, v)
            got, want = heig_dim2(a), loop_heig_dim2(a)
            assert len(got) == len(want)
            for q in want:
                p = min(got, key=lambda p: np.max(np.abs(p.vector - q.vector)))
                assert np.max(np.abs(p.vector - q.vector)) <= 1e-9
                assert abs(p.value - q.value) <= 1e-9 * (1.0 + abs(q.value))
            for p in got:
                k = int(np.argmin(np.abs(p.vector)))
                if abs(p.vector[k]) <= 1e-9:  # at most the residual of the axis
                    assert p.residual <= abs(eval_gradient_form(a, np.eye(2)[1 - k])[k])

    def test_lambda_within_the_bound_of_exact(self, rng):
        # lambda = F_top(x) by Horner's rule in x's other coordinate is within
        # 3m eps of its rounding scale sum_k C(m-1,k) |v_(top+k)| |x1|^(m-1-k) |x2|^k;
        # form degrees 2m-2 = 2-60, then 200 and 1022
        eps = Fraction(float(np.finfo(float).eps))
        cases = [(m, kind) for m in range(2, 32) for kind in ("random", "moment")]
        cases += [(101, "moment"), (512, "moment")]
        checked = 0
        for m, kind in cases:
            if kind == "random":
                a = make_hankel(m, 2, rng.uniform(-1, 1, m + 1) * 10.0 ** rng.integers(-5, 6))
            else:
                a = from_measure(random_measure(rng, max_nodes=4), m, 2)
            for pair in heig_dim2(a):
                top = int(np.argmax(np.abs(pair.vector)))
                exact, scale = binary_exact(a.gen[top : top + m], *pair.vector)
                assert abs(pair.value - exact) <= 3 * m * eps * scale, (m, kind)
                checked += 1
        assert checked >= 2 * len(cases)

    def test_no_per_candidate_gradient_calls(self, rng, monkeypatch):
        cases = [random_hankel(rng, m, 2) for m in (2, 5, 9)]
        cases.append(from_measure(DiscreteMeasure([-0.3, 0.6], [0.5, 0.25]), 6, 2))
        want = [[p.vector.tobytes() for p in loop_heig_dim2(a)] for a in cases]

        # the per-vector kernels spectra binds: heig_dim2 reaches none of them
        for name in ("_rayleigh", "_grad_and_jacobian", "_power_coeffs"):

            def refuse(*args, name=name):
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(spectra, name, refuse)
        for a, vectors in zip(cases, want):
            assert sorted(p.vector.tobytes() for p in heig_dim2(a)) == sorted(vectors)


class TestBounds:
    def test_diagonal_bounds_examples(self):
        b = bounds_prop6(COUNTEREXAMPLE)
        assert (b.upper_for_min, b.lower_for_max) == (1.0, 1.0)
        assert b.source == "prop6"
        b = bounds_prop6(make_hankel(2, 3, [5.0, 0.0, -2.0, 0.0, 7.0]))
        assert (b.upper_for_min, b.lower_for_max) == (-2.0, 7.0)

    def test_circle_bounds_counterexample(self):
        b = bounds_prop7(COUNTEREXAMPLE)
        assert b.source == "prop7"
        assert b.upper_for_min == pytest.approx(0.25, abs=1e-8)
        assert b.lower_for_max == pytest.approx(1.0, abs=1e-8)

    def test_circle_bounds_all_ones(self):
        b = bounds_prop7(make_hankel(4, 2, np.ones(5)))
        assert b.upper_for_min == pytest.approx(0.0, abs=1e-9)
        assert b.lower_for_max == pytest.approx(4.0, abs=1e-8)

    def test_circle_bounds_zero_tensor(self):
        b = bounds_prop7(make_hankel(2, 3, np.zeros(5)))
        assert b.upper_for_min == pytest.approx(0.0, abs=1e-12)
        assert b.lower_for_max == pytest.approx(0.0, abs=1e-12)

    def test_degree_cap(self, rng):
        # the root engine's 1023 is the one degree cap: a built plane of degree
        # 62 bounds the extremes, one of degree 1024 is refused by the plane
        # routines, and zeig_extreme then answers without the plane start
        a = random_hankel(rng, 31, 3)
        b = bounds_prop7(a)
        assert zmin(a, restarts=4, iters=300).value <= b.upper_for_min + 1e-9 * (1.0 + abs(b.upper_for_min))
        assert zmax(a, restarts=4, iters=300).value >= b.lower_for_max - 1e-9 * (1.0 + abs(b.lower_for_max))
        a = random_hankel(rng, 512, 3)
        for call in (lambda: bounds_prop7(a), lambda: z_extremes(assoc_plane(a))):
            with pytest.raises(ValueError, match="degree 1024 exceeds the root engine's limit 1023"):
                call()
        assert zmax(a, restarts=1, iters=20).value >= bounds_prop6(a).lower_for_max
        # a dim-2 tensor is its own plane at every order
        a = random_hankel(rng, 62, 2)
        assert assoc_plane(a) is a
        ext = z_extremes(a)
        b = bounds_prop7(a)
        # the lift of y at dim 2 is y / |y|, equal to y up to rounding
        for y, bound in [(ext.y_min, b.upper_for_min), (ext.y_max, b.lower_for_max)]:
            assert bound == pytest.approx(eval_form(a, y / np.linalg.norm(y)), rel=1e-12)

    def test_bounds_sandwich_extremes(self, rng):
        def shapes():
            for _ in range(10):
                yield 2 * int(rng.integers(1, 3)), int(rng.integers(2, 4))
            # odd (dim-1)*order: the bounds need no parity
            yield from [(3, 2), (5, 2), (3, 4), (5, 4)]

        for order, dim in shapes():
            a = random_hankel(rng, order, dim)
            lo = zmin(a).value
            hi = zmax(a).value
            for b in (bounds_prop6(a), bounds_prop7(a)):
                assert lo <= b.upper_for_min + 1e-8
                assert hi >= b.lower_for_max - 1e-8


class TestOddSignCheck:
    def test_positive_value_patterns(self):
        ok = EigenPair("Z", 1.0, np.array([0.5, -0.3, 0.2]))
        assert odd_sign_check(ok, "complete", 3)
        assert odd_sign_check(ok, "strong", 3)
        # zero leading coordinate passes 'strong' but not 'complete'
        edge = EigenPair("Z", 1.0, np.array([0.0, 1.0, 0.0]))
        assert odd_sign_check(edge, "strong", 3)
        assert not odd_sign_check(edge, "complete", 3)
        bad = EigenPair("Z", 1.0, np.array([-1.0, 0.0]))
        assert not odd_sign_check(bad, "strong", 3)

    def test_negative_value_mirrors(self):
        pair = EigenPair("Z", -2.0, np.array([-0.5, 0.7, -0.2]))
        assert odd_sign_check(pair, "complete", 3)
        flipped = EigenPair("Z", -2.0, np.array([0.5, 0.7, -0.2]))
        assert not odd_sign_check(flipped, "strong", 3)

    def test_zero_value_vacuous(self):
        pair = EigenPair("Z", 0.0, np.array([-1.0, 0.0]))
        assert odd_sign_check(pair, "complete", 3)

    def test_validation(self):
        pair = EigenPair("Z", 1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            odd_sign_check(pair, "psd", 3)
        with pytest.raises(ValueError):
            odd_sign_check(pair, "strong", 4)
        with pytest.raises(ValueError):
            odd_sign_check(EigenPair("H", 1.0, np.array([1.0, 0.0])), "strong", 3)

    def test_holds_on_positive_decompositions(self, rng):
        for _ in range(10):
            order = 2 * int(rng.integers(1, 3)) + 1
            dim = int(rng.integers(2, 4))
            a = compose(random_positive_decomposition(rng), order, dim)
            for mode in ("min", "max"):
                pair = zeig_extreme(a, mode)
                if pair.converged:
                    assert odd_sign_check(pair, "complete", order)


class TestCopositiveFalsify:
    def test_negative_cross_term(self):
        w = copositive_falsify(CROSS_NEG)
        assert w is not None
        assert_allclose(w, [0.5, 0.5], atol=1e-4)
        assert eval_form(CROSS_NEG, w) == pytest.approx(-1.0 / 16.0, abs=1e-6)

    def test_positive_definite_none(self):
        assert copositive_falsify(COUNTEREXAMPLE) is None

    def test_cutoff_scales_with_the_generating_vector(self):
        # 1e6 (x1 - 2 x2)^4 is copositive, yet rounding alone takes its
        # polished minimum to about -7.9e-11, below an absolute -1e-12
        assert copositive_falsify(make_hankel(4, 2, 1e6 * (-2.0) ** np.arange(5))) is None
        w = copositive_falsify(make_hankel(4, 2, 1e6 * CROSS_NEG.gen))
        assert_allclose(w, [0.5, 0.5], atol=1e-4)

    def test_witness_just_below_the_cut(self):
        # -6c x1^2 x2^2 has its least value -3c/8 at the midpoint: below the
        # cut of 1e-12 at c = 4e-12, above it at c = 2e-12
        w = copositive_falsify(make_hankel(4, 2, [0.0, 0.0, -4e-12, 0.0, 0.0]))
        assert w.tolist() == [0.5, 0.5]
        assert copositive_falsify(make_hankel(4, 2, [0.0, 0.0, -2e-12, 0.0, 0.0])) is None

    def test_vertex_witness(self):
        w = copositive_falsify(make_hankel(2, 2, [-1.0, 0.0, 0.0]))
        assert w is not None
        assert_allclose(w, [1.0, 0.0], atol=1e-6)

    def test_witness_on_simplex_and_negative(self, rng):
        for _ in range(15):
            a = random_hankel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            w = copositive_falsify(a)
            if w is not None:
                assert np.all(w >= -1e-12)
                assert np.sum(w) == pytest.approx(1.0, abs=1e-9)
                assert eval_form(a, w) < 0

    def test_deterministic(self):
        w1 = copositive_falsify(CROSS_NEG, depth=2)
        w2 = copositive_falsify(CROSS_NEG, depth=2)
        assert w1.tobytes() == w2.tobytes()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            copositive_falsify(CROSS_NEG, depth=0)
        with pytest.raises(TypeError, match="depth must be an integer"):
            copositive_falsify(CROSS_NEG, depth=2.0)
        w = copositive_falsify(CROSS_NEG, depth=np.int64(2))
        assert w.tobytes() == copositive_falsify(CROSS_NEG, depth=2).tobytes()

    def test_level_memory_cap(self, monkeypatch, tmp_path, capsys, rng):
        # the two-node moment tensor with v_2 lowered by 1e-6: the matrix
        # certificate declines and the search runs on; with the cap lowered
        # to 1 MiB its levels pass it, so the named ValueError comes first
        # (exit code 2 from the CLI), while searches whose levels stay below
        # the cap keep their witnesses' bytes
        gen = from_measure(DiscreteMeasure([-0.5, 0.3], [1.0, 0.5]), 6, 6).gen.copy()
        gen[2] -= 1e-6
        a = make_hankel(6, 6, gen)
        shapes = rng.integers(2, 5, (20, 2)).tolist()
        tensors = [CROSS_NEG] + [random_hankel(rng, order, dim) for order, dim in shapes]
        want = [copositive_falsify(b, depth=2) for b in tensors]
        assert sum(w is not None for w in want) >= 5
        monkeypatch.setattr(spectra, "_NET_BYTES", 2**20)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="past the cap of 1048576 bytes"):
            copositive_falsify(a)
        assert time.perf_counter() - start < 1.0
        for b, w in zip(tensors, want):
            got = copositive_falsify(b, depth=2)
            assert (got is None) == (w is None)
            if w is not None:
                assert got.tobytes() == w.tobytes()
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"order": 6, "dim": 6, "gen": gen.tolist()}))
        assert main(["falsify", str(path)]) == 2
        assert "past the cap" in capsys.readouterr().err

    def test_huge_generating_vector_subdivides_without_overflow(self):
        # every net is a convex combination of the generating vector, so no
        # level overflows, up to max |v| near 1e308
        gen = np.random.default_rng(0).uniform(-1, 1, 5)
        values = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for s in (1.0, 1e200, 1e308):
                a = make_hankel(2, 3, s * gen)
                values.append(eval_form(a, copositive_falsify(a)) / s)
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] < 0

    def test_huge_strong_tensor_is_certified_without_overflow(self, casteljau_steps):
        # an even-order moment tensor with a negative node: its odd slots
        # are below the cut and its vertex entries are not, so the matrix
        # certificate settles it, at max |v| near 1e308 too
        gen = from_measure(DiscreteMeasure([-0.6, 0.8], [0.7, 0.3]), 4, 3).gen
        a = make_hankel(4, 3, 1e308 / np.max(np.abs(gen)) * gen)
        assert np.max(np.abs(a.gen)) > 9e307
        assert np.min(a.gen) < -cut_of(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert copositive_falsify(a) is None
        assert casteljau_steps == []

    def test_index_tables_are_cached_read_only(self):
        tables = spectra._subdivision_tables(4, 3)
        assert spectra._subdivision_tables(4, 3) is tables
        assert not any(t.flags.writeable for t in tables)
        alpha, _, corners, root, iu, ju = tables
        assert (alpha[corners] == 4 * np.eye(3)).all()
        assert root.tolist() == [int(r @ np.arange(3)) for r in alpha]
        assert (iu.tolist(), ju.tolist()) == ([0, 0, 1], [1, 2, 2])

    def test_witness_equals_point_by_point_scan(self, rng):
        # a witness comes back exactly when the 1/64 grid scan and its polish
        # find one; the scan can stop at the first point below the cut,
        # since the polish only lowers the value
        kinds = ("random", "moment", "palindromic")
        cases = [(m, n, k) for m in range(2, 6) for n in (2, 3) for k in kinds]
        cases += [(2, 4, "random"), (3, 4, "moment"), (4, 4, "palindromic")]
        tensors = []
        for order, dim, kind in cases:
            if kind == "moment":
                a = from_measure(random_measure(rng), order, dim)
            else:
                a = random_hankel(rng, order, dim)
            if kind == "palindromic":
                a = make_hankel(order, dim, a.gen + a.gen[::-1])
            tensors.append(a)
        for order, dim in ((3, 5), (7, 4)):
            gen = np.random.default_rng(10 * order + dim).uniform(-1, 1, (dim - 1) * order + 1)
            tensors += [make_hankel(order, dim, gen), make_hankel(order, dim, corners_nonnegative(gen, order))]
        for a in tensors:
            got = copositive_falsify(a)
            want = polish(a, loop_scan(a, stop=-cut_of(a)))
            assert (got is None) == (want is None)
            if got is not None:
                assert np.sum(got) == 1.0
                assert np.min(got) >= 0.0
                assert eval_form(a, got) < -cut_of(a)

    @pytest.mark.parametrize("order, dim", [(4, 4), (3, 5)])
    def test_exact_arithmetic_agrees(self, order, dim):
        # a witness's form value at its dyadic coordinates is below the cut
        # in exact arithmetic, and where None comes back the bisection run
        # again exactly finds no vertex below it
        rng = np.random.default_rng(10 * order + dim)
        found = []
        for low in (-1.0, -0.5, -0.3, -0.2):
            for _ in range(4):
                gen = rng.uniform(low, 1.0, (dim - 1) * order + 1)
                a = make_hankel(order, dim, corners_nonnegative(gen, order))
                w = copositive_falsify(a)
                found.append(w is not None)
                if w is None:
                    assert not exact_bisection_finds_witness(a)
                else:
                    assert exact_form(a, w) < -Fraction(cut_of(a))
        assert any(found) and not all(found)

    def test_budget_bound_strong_tensor_is_certified_at_the_root(self, monkeypatch, casteljau_steps):
        # the form of a one-node moment tensor with a negative node is
        # (sum_j x_j t^j)^4, which vanishes on a surface through the
        # simplex: the subdivision alone ends on its budget, since depth 2
        # takes more steps than depth 1, while the matrix certificate
        # settles it with no de Casteljau step
        a = from_measure(random_measure(np.random.default_rng(14)), 4, 4)
        assert is_strong(a).is_strong
        calls = certificate_calls(monkeypatch)
        assert copositive_falsify(a) is None
        assert [ok for _, ok in calls] == [True]
        assert casteljau_steps == []
        certificate_calls(monkeypatch, certify=False)
        assert copositive_falsify(a, 1) is None
        steps_at_depth_1 = len(casteljau_steps)
        assert copositive_falsify(a, 2) is None
        assert len(casteljau_steps) - steps_at_depth_1 > steps_at_depth_1 > 0

    @pytest.mark.parametrize("order, dim", [(4, 4), (2, 5), (6, 4)])
    def test_certificate_agrees_with_exact_ldl(self, monkeypatch, order, dim):
        # wherever the certificate settles a seeded strong tensor, M + cut I
        # is positive definite in exact arithmetic: its LDL^T pivots are all
        # positive.  The moment tensors come plain and with v_0 lowered by
        # 5e-13 or 3e-12, which takes a singular M to lambda_min about
        # -5e-13, inside the cut of 1e-12, or about -3e-12, outside it
        calls = certificate_calls(monkeypatch)
        rng = np.random.default_rng(10 * order + dim)
        for _ in range(8):
            gen = from_measure(random_measure(rng), order, dim).gen
            for low in (0.0, 5e-13, 3e-12):
                a = make_hankel(order, dim, gen - low * (np.arange(len(gen)) == 0))
                assert is_strong(a).is_strong
                assert copositive_falsify(a) is None
        fired = [a for a, ok in calls if ok]
        assert len(fired) >= 4
        for a in fired:
            mat = dense_matrix(assoc_matrix(a))
            pivots = exact_ldl_pivots(mat, cut_of(a))
            assert len(pivots) == len(mat)
            assert min(pivots) > 0

    def test_non_strong_tensors_still_subdivide(self, monkeypatch, casteljau_steps):
        # even-order tensors that are not strong, with vertex entries
        # nonnegative and some other slot below the cut: the certificate is
        # tried and declines, the subdivision runs, a witness comes back
        # exactly when the kept reference scan finds one, and its bytes are
        # those of the subdivision alone
        rng = np.random.default_rng(5)
        tensors = []
        for order, dim in ((2, 3), (4, 3), (6, 3), (2, 4)):
            size = (dim - 1) * order + 1
            for _ in range(3):
                moment = from_measure(random_measure(rng), order, dim).gen
                tensors.append(make_hankel(order, dim, moment - 0.02 * rng.uniform(0, 1, size)))
                tensors.append(make_hankel(order, dim, corners_nonnegative(rng.uniform(-1, 1, size), order)))
                tensors.append(make_hankel(order, dim, rng.uniform(-0.1, 1, size)))
        tensors = [
            a
            for a in tensors
            if not is_strong(a).is_strong and np.min(a.gen[:: a.order]) >= 0 and np.min(a.gen) < -cut_of(a)
        ]
        assert len(tensors) >= 20
        calls = certificate_calls(monkeypatch)
        got = []
        for a in tensors:
            casteljau_steps.clear()
            got.append(copositive_falsify(a))
            assert casteljau_steps
        assert [ok for _, ok in calls] == [False] * len(tensors)
        certificate_calls(monkeypatch, certify=False)
        for a, w in zip(tensors, got):
            alone = copositive_falsify(a)
            want = polish(a, loop_scan(a, stop=-cut_of(a)))
            assert (w is None) == (alone is None) == (want is None)
            if w is not None:
                assert w.tobytes() == alone.tobytes()
        assert any(w is None for w in got) and not all(w is None for w in got)
