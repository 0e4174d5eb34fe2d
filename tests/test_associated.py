import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hankeltensor import (
    DiscreteMeasure,
    assoc_matrix,
    assoc_plane,
    copositive_necessary,
    count_s,
    eval_form,
    from_measure,
    is_strong,
    make_hankel,
)
from hankeltensor import associated
from hankeltensor.serialize import to_dict
from conftest import dense_matrix, distinct_nodes, exact_ldl_pivots, psd_check, random_hankel, random_measure

COUNTEREXAMPLE = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
# every (order, dim) with (dim - 1) * order odd and at most 30
ODD_SHAPES = [(m, 2) for m in range(3, 30, 2)] + [
    (3, 4), (3, 6), (3, 8), (3, 10), (5, 4), (5, 6), (7, 4), (9, 4)
]


def brute_count(k, order, dim):
    return sum(
        1 for idx in itertools.product(range(1, dim + 1), repeat=order) if sum(idx) - order == k
    )


class TestCounts:
    def test_fixed_values(self):
        assert count_s(2, 4, 2) == 6
        assert count_s(0, 3, 5) == 1
        assert count_s(1, 5, 3) == 5

    def test_matches_enumeration(self):
        for order, dim in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (4, 3)]:
            for k in range((dim - 1) * order + 1):
                assert count_s(k, order, dim) == brute_count(k, order, dim)

    def test_total_and_reflection(self):
        for order in range(2, 7):
            for dim in range(2, 7):
                top = (dim - 1) * order
                counts = [count_s(k, order, dim) for k in range(top + 1)]
                assert sum(counts) == dim**order
                assert counts == counts[::-1]

    def test_second_slot_formula_needs_dim_3(self):
        for order in range(2, 7):
            for dim in range(3, 7):
                assert count_s(2, order, dim) == order * (order + 1) // 2
        # two-dimensional tensors fall short of the formula
        assert count_s(2, 4, 2) == math.comb(4, 2) != 4 * 5 // 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_s(-1, 3, 3)
        with pytest.raises(ValueError):
            count_s(7, 3, 3)
        with pytest.raises(ValueError, match="^order and dim must be positive$"):
            count_s(0, 0, 2)


class TestAssocMatrix:
    def test_counterexample(self):
        hm = assoc_matrix(COUNTEREXAMPLE)
        assert (hm.order, hm.dim) == (2, 3)
        # even degree: nothing is appended to the generating vector
        assert_allclose(hm.gen, COUNTEREXAMPLE.gen, atol=0)
        assert_allclose(
            dense_matrix(hm),
            [[1.0, 0.0, -1 / 6], [0.0, -1 / 6, 0.0], [-1 / 6, 0.0, 1.0]],
            atol=0,
        )

    def test_odd_needs_completion(self):
        a = make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0])
        hm = assoc_matrix(a, completion=1.0)
        assert (hm.order, hm.dim) == (2, 3)
        assert_allclose(dense_matrix(hm), np.ones((3, 3)), atol=0)
        # default completion is zero
        assert dense_matrix(assoc_matrix(a))[2, 2] == 0.0
        # the completion is appended to the generating vector, at dim q
        for order, dim in ODD_SHAPES:
            a = make_hankel(order, dim, np.arange(1.0, (dim - 1) * order + 2))
            q = ((dim - 1) * order + 3) // 2
            for completion, want in [(None, 0.0), (0.25, 0.25), (-3, -3.0)]:
                hm = assoc_matrix(a, completion)
                assert (hm.order, hm.dim) == (2, q)
                assert hm.gen[:-1].tolist() == a.gen.tolist()
                assert hm.gen[-1] == want

    def test_completion_rejected_when_even(self):
        with pytest.raises(ValueError):
            assoc_matrix(COUNTEREXAMPLE, completion=1.0)

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="^completion must be finite$"):
            assoc_matrix(make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0]), completion=np.inf)

    def test_matrix_is_hankel(self, rng):
        a = random_hankel(rng, 3, 4)
        m = dense_matrix(assoc_matrix(a, completion=0.5))
        q = m.shape[0]
        for i in range(q):
            for j in range(q):
                assert m[i, j] == m[j, i]
                if i + 1 < q and j > 0:
                    assert m[i, j] == m[i + 1, j - 1]


class TestPsdCheck:
    def test_identity(self):
        ok, min_eig, witness = psd_check(np.eye(2))
        assert ok and witness is None
        assert min_eig == pytest.approx(1.0, abs=1e-14)

    def test_counterexample_matrix(self):
        ok, min_eig, witness = psd_check(dense_matrix(assoc_matrix(COUNTEREXAMPLE)))
        assert not ok
        assert min_eig == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert abs(witness[1]) == pytest.approx(1.0, abs=1e-10)

    def test_exchange_matrix(self):
        m = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        ok, min_eig, witness = psd_check(m)
        assert not ok
        assert min_eig == pytest.approx(-1.0, abs=1e-12)
        assert witness @ m @ witness < 0

    def test_witness_is_violation(self, rng):
        for _ in range(20):
            m = rng.uniform(-1, 1, (4, 4))
            m = (m + m.T) / 2
            ok, min_eig, witness = psd_check(m)
            if not ok:
                assert witness @ m @ witness == pytest.approx(min_eig, rel=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            psd_check(np.ones((2, 3)))
        with pytest.raises(ValueError):
            psd_check(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestIsStrong:
    def test_counterexample_not_strong(self):
        cert = is_strong(COUNTEREXAMPLE)
        assert not cert.is_strong
        assert cert.min_eigenvalue == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert cert.completion_used is None
        m = dense_matrix(assoc_matrix(COUNTEREXAMPLE))
        assert cert.violation_vector @ m @ cert.violation_vector < 0

    def test_all_ones_odd_case(self):
        cert = is_strong(make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0]))
        assert cert.is_strong
        assert cert.completion_used == pytest.approx(1.0, abs=1e-10)
        assert cert.min_eigenvalue >= -1e-12

    def test_zero_tensor_strong(self):
        cert = is_strong(make_hankel(3, 2, np.zeros(4)))
        assert cert.is_strong
        assert cert.completion_used == pytest.approx(0.0, abs=1e-14)

    def test_magnitude_does_not_refuse_a_strong_tensor(self):
        # bh^2 ~ 1e320 would overflow unscaled; the certificate is the unit
        # tensor's, up to rounding, times 1e160
        unit = is_strong(make_hankel(3, 2, [1.0] * 4))
        cert = is_strong(make_hankel(3, 2, [1e160] * 4))
        assert cert.is_strong and cert.violation_vector is None
        assert cert.completion_used == pytest.approx(1e160 * unit.completion_used, rel=1e-12)
        assert abs(cert.min_eigenvalue) <= 1e-14 * 1e160

    def test_infinite_completion_is_refused(self):
        # P = diag(1e300, 2e290) clears the cut 1e290, and
        # c* = (1e300)^2 / 2e290 = 5e309 is beyond the float range
        with pytest.raises(ValueError, match="^completion must be finite$"):
            is_strong(make_hankel(3, 2, [1e300, 0.0, 2e290, 1e300]))

    def test_takes_no_tol(self):
        with pytest.raises(TypeError):
            is_strong(COUNTEREXAMPLE, tol=1e-10)

    def test_builds_the_square_from_the_generating_vector(self, monkeypatch):
        # even and odd (dim-1)*order: no associated-matrix tensor is built
        cases = [COUNTEREXAMPLE, make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0]), make_hankel(3, 2, [0.0, 0.0, 1.0, 0.0])]
        want = [to_dict(is_strong(a)) for a in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("assoc_matrix called")

        monkeypatch.setattr(associated, "assoc_matrix", refuse)
        assert [to_dict(is_strong(a)) for a in cases] == want

    def test_odd_case_range_failure(self):
        # P = [[0,0],[0,1]] is PSD but b = (1,0) misses range(P)
        cert = is_strong(make_hankel(3, 2, [0.0, 0.0, 1.0, 0.0]))
        assert not cert.is_strong
        full = np.array([0.0, 0.0, 1.0, 0.0, cert.completion_used])
        i = np.arange(3)
        m = full[i[:, None] + i[None, :]]
        assert cert.violation_vector @ m @ cert.violation_vector < 0

    def test_odd_case_block_failure(self):
        # P itself indefinite; in the second case P also has the eigenvalue
        # 2e-10, just above the cut, so the completion is 5e9 and a threshold
        # scaled by the completed matrix would pass the -1e-4 eigenvalue
        for gen in ([0.0, 0.0, -1.0, 0.0], [1.0, 0.01, 0.0, 0.0, 2e-10, 1.0]):
            cert = is_strong(make_hankel(len(gen) - 1, 2, gen))
            assert not cert.is_strong
            assert cert.min_eigenvalue < -1e-5

    @pytest.mark.parametrize(
        "nodes, weights, order, dim",
        [
            (
                [-0.9380102803718009, -0.8202633079220121, -0.6963758487713647, -0.33417803659989276, -0.13237336735402772],
                [0.9124049565560147, 0.06409039781496906, 0.44834050983301055, 0.4353444633861965, 0.07713023107025874],
                3, 4,
            ),
            (
                [-0.5772296891002251, -0.25551795160996216, -0.18149709763284383, -0.12186357897527245, 0.9905996067757221],
                [0.8584353255541872, 0.6209088984199513, 0.19391794786825467, 0.687914521389034, 0.7589990022820635],
                9, 4,
            ),
        ],
    )
    def test_nearly_singular_block_is_strong(self, nodes, weights, order, dim):
        cert = is_strong(from_measure(DiscreteMeasure(nodes, weights), order, dim))
        assert cert.is_strong and cert.violation_vector is None
        next_moment = np.dot(weights, np.array(nodes) ** ((dim - 1) * order + 1))
        assert cert.completion_used == pytest.approx(next_moment, abs=1e-7)

    def test_completion_is_next_moment(self, rng):
        # with at most as many nodes as P has rows, b lies in range(P) and the
        # minimal completion is the next moment (a flat extension)
        for order, dim in ODD_SHAPES:
            top = (dim - 1) * order
            for _ in range(20):
                k = int(rng.integers(1, min(6, (top + 1) // 2) + 1))
                nodes, weights = distinct_nodes(rng, k, sep=1e-3), rng.uniform(0.0, 1.0, k)
                a = from_measure(DiscreteMeasure(nodes, weights), order, dim)
                cert = is_strong(a)
                assert cert.is_strong
                scale = max(1.0, float(np.max(np.abs(a.gen))))
                assert abs(cert.completion_used - weights @ nodes ** (top + 1)) <= 1e-7 * scale

    def test_violation_vectors_are_violations(self, rng):
        # random tensors, and tensors whose b misses range(P): the case above,
        # and moment tensors with fewer nodes than P has rows and v_top moved
        cases = [(make_hankel(3, 2, [0.0, 0.0, 1.0, 0.0]), True)]
        for order, dim in ODD_SHAPES:
            cases += [(random_hankel(rng, order, dim), False) for _ in range(10)]
            top = (dim - 1) * order
            gen = from_measure(random_measure(rng, min(6, (top - 1) // 2)), order, dim).gen.copy()
            gen[-1] += 1e-3
            cases.append((make_hankel(order, dim, gen), True))
        for a, off_range in cases:
            cert = is_strong(a)
            assert not (off_range and cert.is_strong)
            if not cert.is_strong:
                z = cert.violation_vector
                m = dense_matrix(assoc_matrix(a, cert.completion_used))
                assert z @ m @ z < 0
                assert z @ m @ z == pytest.approx(cert.min_eigenvalue, rel=1e-8, abs=1e-12)

    def test_even_degree_is_psd_check(self, rng):
        for order, dim in [(2, 2), (4, 2), (6, 2), (2, 3), (3, 3), (4, 3), (2, 5), (4, 4)]:
            for a in (random_hankel(rng, order, dim), from_measure(random_measure(rng), order, dim)):
                cert = is_strong(a)
                ok, min_eig, witness = psd_check(dense_matrix(assoc_matrix(a)))
                assert cert.is_strong is ok
                assert cert.min_eigenvalue == min_eig
                assert cert.completion_used is None
                if ok:
                    assert cert.violation_vector is None and witness is None
                else:
                    assert np.array_equal(cert.violation_vector, witness)
                # the associated matrix of the matrix is the matrix itself
                assert to_dict(is_strong(assoc_matrix(a))) == to_dict(cert)

    @pytest.mark.parametrize("order, dim", [(2, 31), (4, 16), (30, 3)])
    def test_degree_60_verdict_matches_exact_ldl(self, order, dim):
        # at (n-1)m = 60, wherever min_eigenvalue is farther from -cut than
        # eigvalsh's error bound 8 q^2 eps max|v|, the verdict is whether the
        # exact LDL^T pivots of M + cut I are all positive; moment tensors,
        # moment tensors lowered by 1e-3 U(0, 1), and U(-1, 1)
        rng = np.random.default_rng(order * dim)
        size = (dim - 1) * order + 1
        moment = from_measure(random_measure(rng), order, dim).gen
        verdicts = []
        for gen in (moment, moment - 1e-3 * rng.uniform(0, 1, size), rng.uniform(-1, 1, size)):
            a = make_hankel(order, dim, gen)
            cert = is_strong(a)
            big = float(np.abs(a.gen).max())
            cut = 1e-10 * max(1.0, big)
            mat = dense_matrix(assoc_matrix(a))
            q = len(mat)
            assert q == 31
            if abs(cert.min_eigenvalue + cut) <= 8 * q * q * np.finfo(float).eps * big:
                continue
            pivots = exact_ldl_pivots(mat, cut)
            assert cert.is_strong == (len(pivots) == q and min(pivots) > 0)
            verdicts.append(cert.is_strong)
        assert verdicts == [True, False, False]

    def test_completion_monotonicity(self):
        a = make_hankel(3, 2, [1.0, 1.0, 1.0, 1.0])
        cert = is_strong(a)
        for delta, expect in [(0.0, True), (1.0, True), (-0.1, False)]:
            hm = assoc_matrix(a, completion=cert.completion_used + delta)
            assert psd_check(dense_matrix(hm))[0] is expect


class TestAssocPlane:
    def test_dim2_is_generating_vector(self, rng):
        a = random_hankel(rng, 4, 2)
        p = assoc_plane(a)
        assert p.order == 4
        assert_allclose(p.gen, a.gen, atol=0)

    def test_matrix_dim3(self):
        a = make_hankel(2, 3, [1.0, 0.0, 0.0, 0.0, 1.0])
        p = assoc_plane(a)
        assert p.order == 4
        assert_allclose(p.gen, [1.0, 0.0, 0.0, 0.0, 1.0], atol=0)

    def test_weights(self):
        # s = (1,2,3,2,1), C(4,k) = (1,4,6,4,1)
        a = make_hankel(2, 3, [1.0, 1.0, 1.0, 1.0, 1.0])
        assert_allclose(assoc_plane(a).gen, [1.0, 0.5, 0.5, 0.5, 1.0], atol=1e-16)

    def test_plane_evaluation_identity(self, rng):
        # P(1, u)^l equals A(1, u, ..., u^(n-1))^m
        for _ in range(30):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            a = random_hankel(rng, order, dim)
            p = assoc_plane(a)
            u = float(rng.uniform(-1, 1))
            direct = sum(
                math.comb(p.order, k) * p.gen[k] * 1.0 ** (p.order - k) * u**k
                for k in range(p.order + 1)
            )
            expect = eval_form(a, u ** np.arange(dim))
            assert direct == pytest.approx(expect, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("order,dim", [(2, 32), (31, 3)])
    def test_built_at_every_degree(self, rng, order, dim):
        # degree 62: p_k = s(k,m,n) v_k / C(l,k), each within eps (1 + eps/4)
        a = random_hankel(rng, order, dim)
        p = assoc_plane(a)
        assert (p.order, p.dim) == (62, 2)
        eps = Fraction(np.finfo(float).eps)
        for k, (pk, vk) in enumerate(zip(p.gen.tolist(), a.gen.tolist())):
            exact = Fraction(count_s(k, order, dim), math.comb(62, k)) * Fraction(vk)
            assert abs(Fraction(pk) - exact) <= eps * (1 + eps / 4) * abs(exact)


class TestCopositiveNecessary:
    def test_counterexample_passes(self):
        assert copositive_necessary(COUNTEREXAMPLE) == (True, None)

    def test_failing_index(self):
        ok, idx = copositive_necessary(make_hankel(2, 2, [-1.0, 0.0, 0.0]))
        assert not ok and idx == 1
        ok, idx = copositive_necessary(make_hankel(2, 3, [1.0, 0.0, -2.0, 0.0, 1.0]))
        assert not ok and idx == 2

    def test_failure_is_a_negative_vertex(self, rng):
        for _ in range(20):
            a = random_hankel(rng, 3, 4)
            ok, idx = copositive_necessary(a)
            if not ok:
                e = np.zeros(4)
                e[idx - 1] = 1.0
                assert eval_form(a, e) < 0
