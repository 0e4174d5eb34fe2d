import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hankeltensor import (
    bounds_prop7,
    copositive_check,
    heig_dim2,
    make_hankel,
    polyroots,
    z_extremes,
    zeig_extreme,
)
from hankeltensor.polyroots import _halving, _horner, _scaled_terms, bernstein_roots, form_directions
from conftest import binary_exact

EPS = Fraction(float(np.finfo(float).eps))


def poly_from_roots(roots):
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    return c


def to_bernstein(c):
    """Bernstein coefficients on [0, 1] of the monomial polynomial c (low to high)."""
    l = len(c) - 1
    return np.array(
        [sum(math.comb(k, i) / math.comb(l, i) * c[i] for i in range(k + 1)) for k in range(l + 1)]
    )


def roots_01(c):
    return bernstein_roots(to_bernstein(c))


def real_roots(c):
    """Nonzero real roots of the monomial polynomial c, read off the zero
    directions (y1, y2) of its homogenisation at t = y2 / y1; the chart
    corners (1, 0) and (0, 1) are left out."""
    l = len(c) - 1
    q = [c[j] / math.comb(l, j) for j in range(l + 1)]
    return sorted(y[1] / y[0] for y in form_directions(q) if y[0] != 0.0 and y[1] != 0.0)


def bernstein_product(a, c):
    """Exact Bernstein coefficients of the product of two polynomials given by theirs."""
    p, q = len(a) - 1, len(c) - 1
    out = [Fraction(0)] * (p + q + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(c):
            out[i + j] += math.comb(p, i) * math.comb(q, j) * x * y
    return [x / math.comb(p + q, k) for k, x in enumerate(out)]


def casteljau(b, t):
    b = np.asarray(b, dtype=float)
    while b.size > 1:
        b = (1.0 - t) * b[:-1] + t * b[1:]
    return b[0]


class TestBasics:
    def test_root_at_split_point(self):
        # the first halving lands exactly on the root
        assert roots_01(poly_from_roots([0.5])) == [0.5]
        assert roots_01(poly_from_roots([0.5, 0.25, 0.75])) == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)

    def test_rounding_level_cluster_is_one_candidate(self):
        # a five-fold root sits at rounding level over a whole neighbourhood;
        # it comes back once, near the root, neither dropped nor repeated
        got = roots_01(poly_from_roots([0.3] * 5))
        assert len(got) == 1
        assert got[0] == pytest.approx(0.3, abs=1e-2)

    def test_scale_does_not_change_roots(self, rng):
        b = to_bernstein(poly_from_roots([0.2, 0.6]))
        assert np.allclose(bernstein_roots(b), [0.2, 0.6], atol=1e-12)
        # at the degree cap of 60, b_k C(l,k) reaches 1.2e17 |b_k|
        for b in [b] + [rng.uniform(-1, 1, 61) for _ in range(5)]:
            want = bernstein_roots(b)
            for s in (1e-300, 1e-6, 1e6, 1e300):
                assert bernstein_roots(s * b) == pytest.approx(want, abs=1e-12)

    def test_halving_matches_de_casteljau(self, rng):
        for l in (1, 4, 17):
            left, right = _halving(l)
            assert _halving(l)[0] is left
            assert not left.flags.writeable
            b = rng.uniform(-1, 1, l + 1)
            for s in (0.0, 0.3, 1.0):
                assert casteljau(left @ b, s) == pytest.approx(casteljau(b, 0.5 * s), abs=1e-14)
                assert casteljau(right @ b, s) == pytest.approx(casteljau(b, 0.5 + 0.5 * s), abs=1e-14)

    def test_halving_blocks_equal_the_per_degree_matrices(self):
        # each degree's matrices are blocks of one table per power-of-two size,
        # byte for byte the Pascal construction at that degree alone
        def per_degree(l):
            left = np.zeros((l + 1, l + 1))
            row = [1]
            for i in range(l + 1):
                left[i, : i + 1] = np.array(row, dtype=float) * 2.0**-i
                row = [x + y for x, y in zip([0] + row, row + [0])]
            return left, left[::-1, ::-1].copy()

        _halving.cache_clear()
        polyroots._pascal.cache_clear()
        for l in [*range(1, 65), 127, 128, 200, 513, 1023]:
            left, right = _halving(l)
            want_left, want_right = per_degree(l)
            assert left.tobytes() == want_left.tobytes(), l
            assert right.tobytes() == want_right.tobytes(), l
        # one table each for sizes 2, 4, ..., 256 and 1024, at most 10 up to degree 1023
        assert polyroots._pascal.cache_info().misses == 9
        assert polyroots._pascal.cache_info().currsize <= 10

    def test_halving_entries_are_correctly_rounded(self):
        # every entry is exactly C(i,j) / 2^i rounded once, up to the engine's
        # limit, where 2^-1023 and the smallest ratios are subnormal
        for l, rows in ((1, None), (2, None), (5, None), (30, None), (60, None),
                        (1023, (0, 1, 2, 511, 1000, 1022, 1023))):
            left, right = _halving(l)
            for i in range(l + 1) if rows is None else rows:
                want = np.zeros(l + 1)
                want[: i + 1] = [math.comb(i, j) / 2**i for j in range(i + 1)]
                assert left[i].tobytes() == want.tobytes(), (l, i)
                assert right[l - i].tobytes() == want[::-1].tobytes(), (l, i)


class TestCounting:
    def test_quadratic(self):
        # t^2 - 1/2 has one root in (0, 1); t^2 - 2 has none
        assert roots_01(np.array([-0.5, 0.0, 1.0])) == pytest.approx([0.5**0.5], abs=1e-15)
        assert roots_01(np.array([-2.0, 0.0, 1.0])) == []
        assert len(roots_01(poly_from_roots([0.1, 0.95]))) == 2

    def test_multiple_root_counted_once(self):
        got = roots_01(poly_from_roots([0.5, 0.5, 0.7]))
        assert len(got) == 2
        assert np.allclose(got, [0.5, 0.7], atol=1e-9)


class TestRootsInInterval:
    def test_known_roots(self):
        got = roots_01(poly_from_roots([0.2, 0.5, 0.9]))
        assert np.allclose(got, [0.2, 0.5, 0.9], atol=1e-9)

    def test_double_root(self):
        got = roots_01(poly_from_roots([0.5, 0.5]))
        assert len(got) == 1
        assert got[0] == pytest.approx(0.5, abs=1e-6)
        got = roots_01(poly_from_roots([0.3, 0.3]))
        assert len(got) == 1
        assert got[0] == pytest.approx(0.3, abs=1e-6)

    def test_open_interval_excludes_endpoints(self):
        got = roots_01(poly_from_roots([0.0, 1.0, 0.5]))
        assert np.allclose(got, [0.5], atol=1e-9)

    def test_no_roots(self):
        assert roots_01(np.array([1.0, 0.0, 1.0])) == []

    def test_constant_and_zero(self):
        assert bernstein_roots([3.0]) == []
        assert bernstein_roots([0.0]) == []
        assert bernstein_roots(np.zeros(5)) == []

    def test_cross_check_random(self, rng):
        mismatches = 0
        for _ in range(200):
            deg = int(rng.integers(2, 8))
            c = rng.uniform(-1, 1, deg + 1)
            if abs(c[-1]) < 0.1:
                c[-1] = 0.5
            got = np.array([t for t in real_roots(c) if -1.0 < t < 1.0])
            r = np.roots(c[::-1])
            real = np.sort([x.real for x in r if abs(x.imag) < 1e-9 and -1.0 + 1e-7 < x.real < 1.0 - 1e-7])
            # skip cases where np.roots itself sits near the boundary of realness
            if any(0 < abs(x.imag) < 1e-6 for x in r):
                continue
            if len(got) != len(real) or (len(got) and not np.allclose(got, real, atol=1e-6)):
                mismatches += 1
        assert mismatches == 0

    def test_residuals_small(self, rng):
        for _ in range(50):
            c = rng.uniform(-1, 1, 7)
            c[-1] = 1.0
            scale = max(abs(c))
            for t in (t for t in real_roots(c) if -1.0 < t < 1.0):
                val = np.polynomial.polynomial.polyval(t, c)
                assert abs(val) < 1e-7 * scale


class TestRealRoots:
    def test_examples(self):
        got = real_roots(np.array([-6.0, 11.0, -6.0, 1.0]))  # (t-1)(t-2)(t-3)
        assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-8)
        assert real_roots(np.array([1.0, 0.0, 1.0])) == []

    def test_linear(self):
        got = real_roots(np.array([4.0, -2.0]))
        assert np.allclose(got, [2.0], atol=1e-10)

    def test_large_roots_within_bound(self):
        got = real_roots(poly_from_roots([-50.0, 125.0]))
        assert np.allclose(got, [-50.0, 125.0], rtol=1e-12)

    def test_directions_cover_both_charts(self):
        # y1^2 - y2^2 vanishes on the two diagonals, one in each chart
        dirs = form_directions([1.0, 0.0, -1.0])
        assert len(dirs) == 4
        assert {tuple(d) for d in dirs[:2]} == {(1.0, 0.0), (0.0, 1.0)}
        assert sorted(d[1] / d[0] for d in dirs[2:]) == pytest.approx([-1.0, 1.0], abs=1e-15)


class TestScalarRefinement:
    """The O(l) evaluation behind each regula falsi step, up to the degree cap of 60."""

    def test_within_stated_bound_of_exact_value(self, rng):
        # |2^e _horner(terms, t) - b(t)| <= 3(l+1) eps sum_k |b_k| B_k(t), from the docstring,
        # for coefficients at moderate scales and near both ends of the float range
        for scale in (1.0, 2.0**1000, 2.0**-1000):
            for _ in range(30):
                l = int(rng.integers(2, 61))
                b = rng.uniform(-1, 1, l + 1) * 10.0 ** rng.uniform(-3, 3) * scale
                e, _, terms = _scaled_terms(b)
                # one t anywhere, one near each end of [0, 1] and the branch point 1/2
                ts = [float(rng.uniform(0, 1)), float(rng.uniform(0, 1e-3)), 1.0 - float(rng.uniform(0, 1e-3)), 0.5]
                for t in ts:
                    exact, bound = binary_exact(b, 1 - Fraction(t), t)
                    got = Fraction(_horner(terms, t)) * Fraction(2) ** e
                    assert abs(got - exact) <= 3 * (l + 1) * EPS * bound

    def test_known_simple_roots_at_degree_60(self, rng):
        # prod (t - r) times a factor with positive Bernstein coefficients, which has
        # no root in [0, 1]; the product is formed exactly and rounded once
        roots = [Fraction(1, 20), Fraction(3, 16), Fraction(1, 3), Fraction(1, 2), Fraction(5, 8), Fraction(4, 5),
                 Fraction(19, 20)]
        for _ in range(3):
            b = [Fraction(float(x)) for x in rng.uniform(0.5, 2.0, 61 - len(roots))]
            for r in roots:
                b = bernstein_product(b, [-r, 1 - r])
            got = bernstein_roots(np.array([float(x) for x in b]))
            assert got == pytest.approx([float(r) for r in roots], abs=1e-12)


class TestDegreeLimit:
    def test_limit_is_where_scaled_terms_stay_finite(self):
        assert np.isfinite(polyroots._binomials(1023)).all()
        with pytest.raises(ValueError, match="degree 1024 exceeds the root engine's limit 1023"):
            polyroots._binomials(1024)

    def test_public_routines_refuse_before_any_work(self):
        # the engine's degree: l for the circle extremes and for copositive_check with
        # positive endpoints (phi's terms), 2m - 2 for heig_dim2; at order 1030
        # zeig_extreme's entry counts no longer fit a float, so the refusal must come first
        gen = np.random.default_rng(0).uniform(0.5, 1.0, 1031)
        cases = [
            (z_extremes, (make_hankel(1024, 2, gen[:1025]),), 1024),
            (bounds_prop7, (make_hankel(1024, 2, gen[:1025]),), 1024),
            (heig_dim2, (make_hankel(513, 2, gen[:514]),), 1024),
            (copositive_check, (make_hankel(1024, 2, gen[:1025]),), 1024),
            (zeig_extreme, (make_hankel(1030, 2, gen), "max"), 1030),
        ]
        for fn, args, degree in cases:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"degree {degree} exceeds the root engine's limit 1023"):
                fn(*args)
            assert time.perf_counter() - start < 0.1
