import numpy as np
import pytest
from numpy.testing import assert_allclose

from hankeltensor import (
    DiscreteMeasure,
    NumericalError,
    VandermondeDecomposition,
    compose,
    decompose,
    from_measure,
    hadamard,
    hadamard_vd,
    is_positive,
    make_hankel,
)
from conftest import random_hankel, random_measure, random_positive_decomposition


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
        a = compose(VandermondeDecomposition([], []), 3, 2)
        assert_allclose(a.gen, np.zeros(4), atol=0)

    def test_zero_node_convention(self):
        # 0^0 counts as 1 so a zero node only feeds the leading slot
        a = compose(VandermondeDecomposition([0.0], [3.0]), 2, 2)
        assert_allclose(a.gen, [3.0, 0.0, 0.0], atol=0)


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


class TestHadamardVd:
    def test_product_nodes_merge(self):
        x = VandermondeDecomposition([1.0, -1.0], [1.0, 1.0])
        y = VandermondeDecomposition([1.0, -1.0], [1.0, 1.0])
        z = hadamard_vd(x, y)
        # products {1*1, 1*-1, -1*1, -1*-1} merge to nodes {1, -1}
        assert sorted(z.nodes) == [-1.0, 1.0]
        assert_allclose(sorted(z.coeffs), [2.0, 2.0], atol=0)

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
