import itertools
import json
import math
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hankeltensor
from hankeltensor import (
    DiscreteMeasure,
    HankelTensor,
    VandermondeDecomposition,
    entry,
    eval_form,
    eval_gradient_form,
    hadamard,
    make_hankel,
)
from hankeltensor.core import _forms
from hankeltensor.serialize import to_dict
from conftest import dense_eval, random_hankel, to_dense

COUNTEREXAMPLE = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])


def brute_form(a, x):
    # enumeration over all index tuples, independent of the convolution path
    total = 0.0
    for idx in itertools.product(range(1, a.dim + 1), repeat=a.order):
        total += entry(a, idx) * math.prod(x[i - 1] for i in idx)
    return total


def brute_gradient(a, x):
    out = np.zeros(a.dim)
    for i in range(1, a.dim + 1):
        for rest in itertools.product(range(1, a.dim + 1), repeat=a.order - 1):
            out[i - 1] += entry(a, (i,) + rest) * math.prod(x[j - 1] for j in rest)
    return out


def test_make_hankel_validates():
    with pytest.raises(ValueError):
        make_hankel(1, 2, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_hankel(2, 1, [0.0, 0.0])
    with pytest.raises(ValueError):
        make_hankel(2, 2, [0.0, 0.0])  # needs length 3
    with pytest.raises(ValueError):
        make_hankel(2, 2, [0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="^gen must be a one-dimensional real vector$"):
        make_hankel(2, 2, [[1.0, 2.0, 3.0]])


def test_order_and_dim_are_integers():
    for order, dim, name in [(2.0, 2, "order"), (2, 2.0, "dim")]:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, not float$"):
            make_hankel(order, dim, np.ones(3))
    a = make_hankel(np.int64(2), np.int64(2), np.ones(3))
    assert type(a.order) is int and type(a.dim) is int
    assert json.loads(json.dumps(to_dict(a))) == {"order": 2, "dim": 2, "gen": [1.0, 1.0, 1.0]}


def test_gen_is_read_only():
    a = make_hankel(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        a.gen[0] = 5.0


def test_array_fields_are_frozen_copies():
    # every array field is stored read-only, as a copy of the caller's array
    cases = [
        (lambda g: HankelTensor(2, 2, g), {"gen": [1.0, 2.0, 3.0]}),
        (VandermondeDecomposition, {"nodes": [0.5, -2.0], "coeffs": [1.0, 0.25]}),
        (DiscreteMeasure, {"nodes": [0.5, -2.0], "weights": [0.75, 0.25]}),
    ]
    for make, fields in cases:
        inputs = {name: np.array(v) for name, v in fields.items()}
        obj = make(*inputs.values())
        for name, arr in inputs.items():
            stored = getattr(obj, name)
            assert not stored.flags.writeable, (type(obj).__name__, name)
            with pytest.raises(ValueError):
                stored[0] = 9.0
            arr[:] = 7.0
            assert stored.tolist() == fields[name], (type(obj).__name__, name)


def test_entry_examples():
    assert entry(COUNTEREXAMPLE, [1, 1, 1, 1]) == 1.0
    assert entry(COUNTEREXAMPLE, [1, 1, 2, 2]) == -1.0 / 6.0
    assert entry(COUNTEREXAMPLE, [2, 2, 2, 2]) == 1.0
    b = make_hankel(2, 3, [0.0, 10.0, 20.0, 30.0, 40.0])
    assert entry(b, [2, 3]) == 30.0


def test_entry_symmetry(rng):
    a = random_hankel(rng, 3, 4)
    for _ in range(50):
        idx = tuple(rng.integers(1, 5, 3))
        for perm in itertools.permutations(idx):
            assert entry(a, perm) == entry(a, idx)


def test_entry_errors():
    with pytest.raises(ValueError):
        entry(COUNTEREXAMPLE, [1, 1, 1])
    with pytest.raises(IndexError):
        entry(COUNTEREXAMPLE, [1, 1, 1, 3])
    with pytest.raises(IndexError):
        entry(COUNTEREXAMPLE, [0, 1, 1, 1])


def test_eval_form_examples():
    # 2x2 Hankel matrix [[0,1],[1,2]] at (1,2): 0 + 2*1*2 + 4*2 = 12
    m = make_hankel(2, 2, [0.0, 1.0, 2.0])
    assert eval_form(m, [1.0, 2.0]) == pytest.approx(12.0, abs=1e-14)
    assert eval_form(COUNTEREXAMPLE, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
    assert eval_form(COUNTEREXAMPLE, [0.0, 0.0]) == 0.0


def test_eval_form_is_counterexample_polynomial(rng):
    for _ in range(100):
        x1, x2 = rng.uniform(-2, 2, 2)
        expect = x1**4 - x1**2 * x2**2 + x2**4
        assert eval_form(COUNTEREXAMPLE, [x1, x2]) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_eval_form_matches_enumeration(rng):
    for _ in range(60):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        a = random_hankel(rng, order, dim)
        x = rng.uniform(-1, 1, dim)
        expect = brute_form(a, x)
        assert eval_form(a, x) == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_eval_form_homogeneity(rng):
    a = random_hankel(rng, 3, 3)
    x = rng.uniform(-1, 1, 3)
    c = 1.7
    assert eval_form(a, c * x) == pytest.approx(c**3 * eval_form(a, x), rel=1e-10)


def test_eval_form_rejects_bad_x():
    with pytest.raises(ValueError):
        eval_form(COUNTEREXAMPLE, [1.0])
    with pytest.raises(ValueError):
        eval_form(COUNTEREXAMPLE, [1.0, np.inf])


def test_gradient_examples():
    m = make_hankel(2, 2, [0.0, 1.0, 2.0])
    assert_allclose(eval_gradient_form(m, [1.0, 2.0]), [2.0, 5.0], atol=1e-14)
    assert_allclose(eval_gradient_form(COUNTEREXAMPLE, [1.0, 0.0]), [1.0, 0.0], atol=1e-14)


def test_gradient_matches_enumeration(rng):
    for _ in range(40):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        a = random_hankel(rng, order, dim)
        x = rng.uniform(-1, 1, dim)
        assert_allclose(eval_gradient_form(a, x), brute_gradient(a, x), rtol=1e-10, atol=1e-10)


def test_gradient_contraction_identity(rng):
    # x . (A x^(m-1)) = A x^m
    for _ in range(50):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        a = random_hankel(rng, order, dim)
        x = rng.uniform(-1, 1, dim)
        assert np.dot(x, eval_gradient_form(a, x)) == pytest.approx(eval_form(a, x), rel=1e-10, abs=1e-12)


def test_hadamard_example():
    b = make_hankel(4, 2, [0.0, 0.0, 1.0, 0.0, 0.0])
    ab = hadamard(COUNTEREXAMPLE, b)
    assert_allclose(ab.gen, [0.0, 0.0, -1.0 / 6.0, 0.0, 0.0], atol=0)


def test_hadamard_algebra(rng):
    a = random_hankel(rng, 3, 3)
    b = random_hankel(rng, 3, 3)
    c = random_hankel(rng, 3, 3)
    assert_allclose(hadamard(a, b).gen, hadamard(b, a).gen, atol=0)
    assert_allclose(hadamard(hadamard(a, b), c).gen, hadamard(a, hadamard(b, c)).gen, rtol=1e-15)
    with pytest.raises(ValueError):
        hadamard(a, random_hankel(rng, 3, 4))
    with pytest.raises(ValueError):
        hadamard(a, random_hankel(rng, 2, 3))


def test_form_overflow_is_refused():
    # finite input whose terms pass the float range; a numpy warning would
    # fail the suite before the ValueError
    a = make_hankel(4, 2, [1.0, 0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^the form overflows the float range$"):
        eval_form(a, [1e100, 1e100])
    with pytest.raises(ValueError, match="^the gradient form overflows the float range$"):
        eval_gradient_form(a, [1e200, 1e200])


def test_hadamard_overflow_is_refused():
    a = make_hankel(2, 2, [1e200, 1.0, 1.0])
    with pytest.raises(ValueError, match="^the Hadamard product overflows the float range$"):
        hadamard(a, a)


def test_to_dense_matrix_case():
    m = make_hankel(2, 2, [0.0, 1.0, 2.0])
    assert_allclose(to_dense(m).entries, [0.0, 1.0, 1.0, 2.0], atol=0)


def test_to_dense_counterexample_slots():
    d = to_dense(COUNTEREXAMPLE)
    assert d.entries.shape == (16,)
    assert np.sum(d.entries == -1.0 / 6.0) == 6  # six entries read slot 2
    assert np.sum(d.entries == 1.0) == 2


def test_to_dense_agrees_with_entry(rng):
    a = random_hankel(rng, 3, 3)
    d = to_dense(a)
    for flat, idx in enumerate(itertools.product(range(1, 4), repeat=3)):
        assert d.entries[flat] == entry(a, idx)


def test_to_dense_capacity():
    a = make_hankel(8, 10, np.zeros(73))
    with pytest.raises(ValueError):
        to_dense(a)


def test_dense_eval_matches_fast_path(rng):
    for _ in range(20):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        a = random_hankel(rng, order, dim)
        x = rng.uniform(-1, 1, dim)
        assert dense_eval(to_dense(a), x) == pytest.approx(eval_form(a, x), rel=1e-10, abs=1e-12)


def test_forms_match_eval_form_row_by_row(rng):
    # each path is within ((m-1)n + L) eps |A| |x|^m of the exact value
    # (|A| has generating vector |v|), so they differ by at most twice that
    eps = np.finfo(float).eps
    for order in range(2, 7):
        for dim in range(2, 6):
            a = random_hankel(rng, order, dim)
            abs_a = make_hankel(order, dim, np.abs(a.gen))
            simplex = rng.dirichlet(np.ones(dim), 20)
            sphere = rng.standard_normal((20, dim))
            sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
            xs = np.vstack([simplex, sphere])
            got = _forms(a, xs)
            assert got.shape == (40,)
            bound = 2 * ((order - 1) * dim + a.gen.shape[0]) * eps
            for x, f in zip(xs, got):
                assert abs(f - eval_form(a, x)) <= bound * eval_form(abs_a, np.abs(x))


def test_forms_rows_do_not_depend_on_the_batch(rng):
    # a row's value is the same bytes alone as in any batch, so a scan's minimum
    # does not move with the chunking
    for order in range(2, 9):
        for dim in range(2, 6):
            a = random_hankel(rng, order, dim)
            xs = rng.standard_normal((257, dim))
            got = _forms(a, xs)
            for j in range(xs.shape[0]):
                assert got[j].tobytes() == _forms(a, xs[j : j + 1])[0].tobytes()


def test_all_lists_exactly_the_public_root_names():
    bound = {
        name
        for name, value in vars(hankeltensor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(hankeltensor.__all__)) == len(hankeltensor.__all__)
    assert set(hankeltensor.__all__) == bound | {"__version__"}
