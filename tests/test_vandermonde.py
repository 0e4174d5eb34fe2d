import numpy as np
import pytest
from numpy.testing import assert_allclose

from hankeltensor import (
    DiscreteMeasure,
    NumericalError,
    VandermondeDecomposition,
    assoc_plane,
    compose,
    decompose,
    from_measure,
    hadamard,
    hadamard_vd,
    is_positive,
    make_hankel,
)
from hankeltensor import vandermonde
from hankeltensor.core import _unit_scaled
from hankeltensor.vandermonde import _moment_solve
from conftest import distinct_nodes, random_hankel, random_measure, random_positive_decomposition


def loop_moment_solve(nodes, rhs):
    # element-by-element elimination on numpy scalars, which the solve and the slice updates must reproduce
    u = np.asarray(nodes, dtype=float)
    z = np.asarray(rhs, dtype=float).copy()
    r = u.shape[0]
    for k in range(r - 1):
        for j in range(r - 1, k, -1):
            z[j] -= u[k] * z[j - 1]
    for k in range(r - 2, -1, -1):
        for j in range(k + 1, r):
            z[j] /= u[j] - u[j - k - 1]
        for j in range(k, r - 1):
            z[j] -= z[j + 1]
    return z


def slice_moment_solve(nodes, rhs):
    # the same elimination by vectorised slice updates
    u = np.asarray(nodes, dtype=float)
    z = np.asarray(rhs, dtype=float).copy()
    r = u.shape[0]
    for k in range(r - 1):
        z[k + 1 :] -= u[k] * z[k : r - 1]
    for k in range(r - 2, -1, -1):
        z[k + 1 :] /= u[k + 1 :] - u[: r - k - 1]
        z[k : r - 1] = z[k : r - 1] - z[k + 1 :]
    return z


def slice_decompose(a, nodes=None):
    # decompose with the slice solve and the power matrix built per call: (nodes, coeffs)
    # or the residual of the NumericalError
    r = (a.dim - 1) * a.order + 1
    nodes = np.cos(np.arange(r) * np.pi / (r - 1)) if nodes is None else np.asarray(nodes, dtype=float)
    e, v = _unit_scaled(a.gen)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = slice_moment_solve(nodes, a.gen)
        powers = nodes[None, :] ** np.arange(r)[:, None]
        residual = np.linalg.norm(np.ldexp(powers @ alpha - a.gen, -e))
        if not residual <= 1e-6 * np.linalg.norm(v):
            return float(np.ldexp(residual, e))
    keep = np.abs(alpha) > 1e-12 * np.abs(alpha).max()
    return nodes[keep], alpha[keep]


class TestCompose:
    def test_single_node(self):
        d = VandermondeDecomposition([2.0], [1.0])
        a = compose(d, 2, 3)
        assert_allclose(a.gen, [1.0, 2.0, 4.0, 8.0, 16.0], atol=0)

    def test_symmetric_pair_cancels_odd_slots(self):
        d = VandermondeDecomposition([1.0, -1.0], [0.5, 0.5])
        a = compose(d, 2, 3)
        assert_allclose(a.gen, [1.0, 0.0, 1.0, 0.0, 1.0], atol=0)

    def test_empty_is_zero_tensor(self):
        for order, dim in [(3, 2), (2, 2), (4, 3), (5, 4)]:
            a = compose(VandermondeDecomposition([], []), order, dim)
            assert (a.order, a.dim) == (order, dim)
            assert a.gen.tolist() == [0.0] * ((dim - 1) * order + 1)

    def test_order_and_dim_checked(self):
        for d in (VandermondeDecomposition([], []), VandermondeDecomposition([0.5], [2.0])):
            for order, dim in [(1, 2), (2, 1), (0, 3), (-1, 2), (3, -2)]:
                with pytest.raises(ValueError, match="^order and dim must both be at least 2$"):
                    compose(d, order, dim)

    def test_zero_node_convention(self):
        # 0^0 counts as 1 so a zero node only feeds the leading slot
        a = compose(VandermondeDecomposition([0.0], [3.0]), 2, 2)
        assert_allclose(a.gen, [3.0, 0.0, 0.0], atol=0)

    def test_overflow_is_refused(self):
        # 1e10^40 overflows in the power; at odd powers of ±1e10, inf - inf is a NaN
        for nodes, coeffs in (([1e10, 0.5], [1.0, 1.0]), ([1e10, -1e10], [1.0, 1.0])):
            d = VandermondeDecomposition(nodes, coeffs)
            with pytest.raises(ValueError, match="^the generating vector overflows the float range$"):
                compose(d, 40, 2)


class TestDecompose:
    def test_recovers_planted_nodes(self):
        target = VandermondeDecomposition([0.0, 1.0, -1.0], [1.0, 1.0, 1.0])
        a = compose(target, 2, 2)  # gen = [3, 0, 2]
        d = decompose(a, nodes=[0.0, 1.0, -1.0])
        assert_allclose(d.nodes, [0.0, 1.0, -1.0], atol=0)
        assert_allclose(d.coeffs, [1.0, 1.0, 1.0], atol=1e-12)

    def test_planted_two_nodes(self):
        a = compose(VandermondeDecomposition([2.0, 3.0], [1.0, -1.0]), 2, 2)
        d = decompose(a, nodes=[2.0, 3.0, 10.0])
        assert_allclose(sorted(d.coeffs), [-1.0, 1.0], atol=1e-10)

    def test_roundtrip_random(self, rng):
        worst = 0.0
        for _ in range(100):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            a = random_hankel(rng, order, dim)
            d = decompose(a)
            assert len(d) <= (dim - 1) * order + 1
            b = compose(d, order, dim)
            worst = max(worst, float(np.max(np.abs(b.gen - a.gen))))
        assert worst <= 1e-8

    def test_roundtrip_at_degree_20(self, rng):
        # the documented working range of the default Chebyshev nodes
        for order, dim in [(2, 11), (4, 6), (5, 5), (10, 3), (20, 2)]:
            for _ in range(8):
                a = random_hankel(rng, order, dim)
                b = compose(decompose(a), order, dim)
                assert np.max(np.abs(b.gen - a.gen)) <= 1e-8 * np.max(np.abs(a.gen))

    def test_custom_nodes_roundtrip(self, rng):
        a = random_hankel(rng, 3, 3)
        nodes = np.linspace(-2.0, 2.0, 7)
        d = decompose(a, nodes=nodes)
        assert_allclose(compose(d, 3, 3).gen, a.gen, atol=1e-9)

    def test_drops_negligible_coefficients(self):
        a = make_hankel(2, 2, [2.0, 0.0, 2.0])  # even vector
        d = decompose(a, nodes=[1.0, -1.0, 0.0])
        assert len(d) == 2
        assert 0.0 not in d.nodes
        assert all(abs(c) > 1e-13 for c in d.coeffs)

    def test_node_validation(self):
        a = make_hankel(2, 2, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            decompose(a, nodes=[1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            decompose(a, nodes=[1.0, 2.0])

    def test_clustered_nodes_raise(self):
        a = make_hankel(4, 4, np.sin(np.arange(13.0)))
        nodes = 1.0 + 1e-9 * np.arange(13.0)
        with pytest.raises(NumericalError):
            decompose(a, nodes=nodes)


    def test_overflowing_solve_raises(self):
        # the solve overflows, so the residual is NaN: the gate must still trip
        a = make_hankel(30, 2, np.ones(31))
        with pytest.raises(NumericalError):
            decompose(a, nodes=np.arange(31) * 2e-12)


class TestMomentSolve:
    def test_equals_loop_elimination(self, rng):
        for _ in range(300):
            r = int(rng.integers(1, 40))
            if rng.random() < 0.5:
                nodes = np.cos(np.pi * np.arange(r) / max(r - 1, 1))
            else:
                nodes = distinct_nodes(rng, r, sep=1e-3)
            rhs = rng.uniform(-1.0, 1.0, r)
            want = loop_moment_solve(nodes, rhs).tobytes()
            assert _moment_solve(nodes, rhs).tobytes() == want == slice_moment_solve(nodes, rhs).tobytes()


    def test_decompose_equals_the_slice_solve(self, rng):
        # nodes, coefficients and the residual of a refusal, bit for bit, at r = 3-64
        for r in range(3, 65):
            equispaced = np.linspace(-1.0, 1.0, r)
            random = rng.uniform(-1.0, 1.0, r)
            for scale in (1.0, 1e308):
                a = make_hankel(r - 1, 2, scale * rng.uniform(-1.0, 1.0, r))
                for nodes in (None, equispaced, random):
                    want = slice_decompose(a, nodes)
                    try:
                        d = decompose(a, nodes)
                    except NumericalError as exc:
                        assert isinstance(want, float), (r, scale)
                        assert float(exc.residual).hex() == want.hex()
                        continue
                    assert not isinstance(want, float), (r, scale)
                    assert (d.nodes.tobytes(), d.coeffs.tobytes()) == (want[0].tobytes(), want[1].tobytes())

    def test_default_nodes_are_cached_read_only(self):
        nodes, powers = vandermonde._chebyshev(13)
        assert vandermonde._chebyshev(13)[0] is nodes
        assert not nodes.flags.writeable and not powers.flags.writeable
        assert nodes.tobytes() == np.cos(np.arange(13) * np.pi / 12).tobytes()
        assert powers.tobytes() == (nodes[None, :] ** np.arange(13)[:, None]).tobytes()
        d = decompose(from_measure(DiscreteMeasure([-0.5, 0.25], [1.0, 0.5]), 6, 3))
        assert d.nodes.flags.owndata and not np.shares_memory(d.nodes, nodes)


class TestTypes:
    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            VandermondeDecomposition([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            VandermondeDecomposition([1.0, 2.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            VandermondeDecomposition([1.0], [1.0, 2.0])

    def test_collision_between_non_adjacent_nodes(self):
        # the rule is relative: 1e-12 * max(1, |u|, |w|)
        for nodes in ([0.5, -1.0, 0.5 + 1e-14], [1e6, 0.0, 1e6 + 1e-7]):
            with pytest.raises(ValueError):
                VandermondeDecomposition(nodes, [1.0, 1.0, 1.0])
            with pytest.raises(ValueError):
                DiscreteMeasure(nodes, [1.0, 1.0, 1.0])
        for nodes in ([0.5, -1.0, 0.5 + 1e-11], [1e6, 0.0, 1e6 + 1e-5]):
            assert len(VandermondeDecomposition(nodes, [1.0, 1.0, 1.0])) == 3

    def test_is_positive(self):
        assert is_positive(VandermondeDecomposition([1.0, 2.0], [0.5, 3.0]))
        assert not is_positive(VandermondeDecomposition([1.0, 2.0], [0.5, -3.0]))
        assert is_positive(VandermondeDecomposition([], []))

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, 2.0], [0.5, -0.1])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="^nodes and weights must have the same length$"):
            DiscreteMeasure([0.0, 1.0], [1.0])


class TestHadamardVd:
    def test_product_nodes_merge(self):
        x = VandermondeDecomposition([1.0, -1.0], [1.0, 1.0])
        y = VandermondeDecomposition([1.0, -1.0], [1.0, 1.0])
        z = hadamard_vd(x, y)
        # products {1*1, 1*-1, -1*1, -1*-1} merge to nodes {1, -1}
        assert sorted(z.nodes) == [-1.0, 1.0]
        assert_allclose(sorted(z.coeffs), [2.0, 2.0], atol=0)

    def test_neighbour_chain_merges_into_one_node(self):
        # products 2, 2 + 1.6e-12 and 2 + 3.2e-12: each collides with its
        # neighbour though the ends lie 3.2e-12 > 2e-12 apart
        x = VandermondeDecomposition([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
        y = VandermondeDecomposition([0.5, 1.0 + 0.8e-12, 2.0 + 3.2e-12], [1.0, 2.0, 4.0])
        z = hadamard_vd(x, y)
        assert len(z) == 5
        near_two = np.abs(z.nodes - 2.0) < 1e-9
        assert z.nodes[near_two].tolist() == [2.0]
        assert z.coeffs[near_two].tolist() == [7.0]

    def test_composes_to_entrywise_product(self, rng):
        for _ in range(30):
            order = int(rng.integers(2, 4))
            dim = int(rng.integers(2, 4))
            x = random_positive_decomposition(rng)
            y = random_positive_decomposition(rng)
            a = compose(x, order, dim)
            b = compose(y, order, dim)
            z = hadamard_vd(x, y)
            assert_allclose(
                compose(z, order, dim).gen, hadamard(a, b).gen, atol=1e-8, rtol=1e-8
            )

    def test_preserves_positivity(self, rng):
        for _ in range(20):
            z = hadamard_vd(
                random_positive_decomposition(rng), random_positive_decomposition(rng)
            )
            assert is_positive(z)

    def test_empty_factor_gives_empty_product(self):
        empty = VandermondeDecomposition([], [])
        full = VandermondeDecomposition([0.5, -2.0], [1.0, 0.25])
        for x, y in [(empty, full), (full, empty), (empty, empty)]:
            z = hadamard_vd(x, y)
            assert len(z) == 0
            assert z.nodes.dtype == z.coeffs.dtype == np.float64

    def test_small_coefficients_are_kept(self):
        # every product coefficient is of order 1e-16: the drop rule is
        # relative to the largest, not an absolute level
        d = VandermondeDecomposition([0.5, -0.3], [1e-8, 2e-8])
        z = hadamard_vd(d, d)
        assert len(z) == 3
        a = compose(d, 3, 2)
        assert_allclose(compose(z, 3, 2).gen, hadamard(a, a).gen, rtol=1e-12, atol=0)

    def test_overflowing_products_are_refused(self):
        big = VandermondeDecomposition([1e200], [1e200])
        with pytest.raises(ValueError, match="^the product of the nodes overflows the float range$"):
            hadamard_vd(big, big)
        with pytest.raises(ValueError, match="^the product of the coefficients overflows the float range$"):
            hadamard_vd(VandermondeDecomposition([1.0], [1e200]), big)

    def test_cancelling_products_drop_out(self):
        x = VandermondeDecomposition([1.0, -1.0], [1.0, 1.0])
        y = VandermondeDecomposition([1.0, -1.0], [1.0, -1.0])
        z = hadamard_vd(x, y)
        # every merged node collects +1 and -1, so the product tensor is zero
        assert len(z) == 0
        assert_allclose(compose(z, 2, 2).gen, np.zeros(3), atol=0)


class TestFromMeasure:
    def test_moment_vector(self):
        m = DiscreteMeasure([1.0, -1.0], [0.75, 0.25])
        a = from_measure(m, 3, 2)
        assert_allclose(a.gen, [1.0, 0.5, 1.0, 0.5], atol=0)

    def test_point_mass(self):
        a = from_measure(DiscreteMeasure([2.0], [1.0]), 2, 2)
        assert_allclose(a.gen, [1.0, 2.0, 4.0], atol=0)

    def test_even_moments_nonnegative(self, rng):
        for _ in range(25):
            m = random_measure(rng)
            a = from_measure(m, 4, 3)
            assert np.all(a.gen[0::2] >= 0)

    def test_matches_compose(self, rng):
        m = random_measure(rng)
        d = VandermondeDecomposition(m.nodes, m.weights)
        assert_allclose(
            from_measure(m, 3, 3).gen, compose(d, 3, 3).gen, atol=0
        )

    def test_overflow_is_refused(self):
        with pytest.raises(ValueError, match="^the generating vector overflows the float range$"):
            from_measure(DiscreteMeasure([1e10, 0.5], [1.0, 1.0]), 40, 2)

    def test_empty_measure_is_zero_tensor(self):
        for order, dim in [(2, 3), (3, 2), (4, 4)]:
            a = from_measure(DiscreteMeasure([], []), order, dim)
            assert (a.order, a.dim) == (order, dim)
            assert a.gen.tolist() == [0.0] * ((dim - 1) * order + 1)

    def test_order_and_dim_checked(self):
        for mu in (DiscreteMeasure([], []), DiscreteMeasure([0.5, -1.0], [0.25, 0.75])):
            for order, dim in [(1, 2), (2, 1), (0, 3), (-1, 2), (3, -2), (1, 1)]:
                with pytest.raises(ValueError, match="^order and dim must both be at least 2$"):
                    from_measure(mu, order, dim)


class TestBuiltResults:
    """Results are built through the public constructors, which copy their
    arrays: they must be float64, read-only, and apart from every array a
    caller holds."""

    @staticmethod
    def built(rng):
        d1, d2 = random_positive_decomposition(rng), random_positive_decomposition(rng)
        mu = random_measure(rng)
        a = from_measure(mu, 4, 3)
        empty = VandermondeDecomposition([], [])
        return {
            "hadamard": hadamard(a, from_measure(random_measure(rng), 4, 3)),
            "compose": compose(d1, 3, 3),
            "from_measure": a,
            "assoc_plane": assoc_plane(a),
            "hadamard_vd": hadamard_vd(d1, d2),
            "hadamard_vd empty": hadamard_vd(empty, d1),
            "hadamard_vd both empty": hadamard_vd(empty, empty),
            "compose empty": compose(empty, 2, 3),
            "decompose": decompose(a),
            "decompose given nodes": decompose(a, np.linspace(-1.0, 1.0, 9)),
        }

    def test_arrays_are_read_only_float64(self, rng):
        for name, obj in self.built(rng).items():
            for field in ("gen",) if hasattr(obj, "gen") else ("nodes", "coeffs"):
                arr = getattr(obj, field)
                assert arr.dtype == np.float64 and arr.ndim == 1, (name, field)
                assert not arr.flags.writeable, (name, field)
                if arr.size:
                    with pytest.raises(ValueError):
                        arr[0] = 9.0

    def test_results_do_not_alias_the_callers_arrays(self, rng):
        a = from_measure(random_measure(rng), 3, 3)
        nodes = np.linspace(-1.0, 1.0, 7)
        d = decompose(a, nodes)
        before = (d.nodes.tobytes(), d.coeffs.tobytes())
        nodes[:] = 5.0
        assert (d.nodes.tobytes(), d.coeffs.tobytes()) == before
        # inputs handed to the public constructors are copied there, so a
        # built result never shares memory with them either
        raw = {"nodes": np.array([0.5, -0.25]), "weights": np.array([1.0, 2.0])}
        mu = DiscreteMeasure(raw["nodes"], raw["weights"])
        dd = VandermondeDecomposition(raw["nodes"], raw["weights"])
        for out in (from_measure(mu, 3, 2).gen, compose(dd, 3, 2).gen, *vars(hadamard_vd(dd, dd)).values()):
            assert not any(np.shares_memory(out, arr) for arr in raw.values())

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda big: hadamard_vd(big, big), "the product of the nodes"),
            (
                lambda big: hadamard_vd(VandermondeDecomposition([1.0, 2.0], [1e200, 1.0]), big),
                "the product of the coefficients",
            ),
            (lambda big: compose(big, 3, 2), "the generating vector"),
            (lambda big: from_measure(DiscreteMeasure([1e200], [1.0]), 3, 2), "the generating vector"),
            (lambda big: hadamard(*[make_hankel(2, 2, [1e200] * 3)] * 2), "the Hadamard product"),
        ],
    )
    def test_non_finite_results_still_raise(self, build, message):
        big = VandermondeDecomposition([1e200, 2e200], [1e200, 1.0])
        with pytest.raises(ValueError, match=f"^{message} overflows the float range$"):
            build(big)

    def test_built_tensors_keep_the_integer_and_shape_checks(self):
        d = VandermondeDecomposition([0.5], [1.0])
        with pytest.raises(TypeError, match="^order must be an integer, not float$"):
            compose(d, 2.5, 2)
        with pytest.raises(ValueError, match="^order and dim must both be at least 2$"):
            compose(d, 1, 2)
