import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hankeltensor
from hankeltensor import (
    DiscreteMeasure,
    HankelTensor,
    VandermondeDecomposition,
    bounds_prop7,
    copositive_check,
    copositive_falsify,
    decompose,
    entry,
    eval_form,
    eval_gradient_form,
    hadamard,
    heig_dim2,
    make_hankel,
    z_extremes,
)
from hankeltensor.errors import NumericalError
from hankeltensor.serialize import to_dict
from conftest import dense_eval, forms, random_hankel, to_dense

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


def _uniform(seed, size):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size)


# name -> (the call on the generating vector scaled by s, and its answer
# split into the parts that scale with s and the parts that do not)
FLOAT_RANGE = {
    "z_extremes": (
        lambda s: z_extremes(make_hankel(40, 2, s * _uniform(1, 41))),
        lambda e: ([e.lambda_min, e.lambda_max], [*e.y_min, *e.y_max]),
    ),
    "z_extremes (2, 2)": (
        lambda s: z_extremes(make_hankel(2, 2, [0.0, s, 0.0])),
        lambda e: ([e.lambda_min, e.lambda_max], [*e.y_min, *e.y_max]),
    ),
    "bounds_prop7": (
        lambda s: bounds_prop7(make_hankel(2, 2, [0.0, s, 0.0])),
        lambda b: ([b.upper_for_min, b.lower_for_max], []),
    ),
    "copositive_check": (
        lambda s: copositive_check(make_hankel(4, 2, s * np.array([1.0, -1.0, 1.0, -1.0, 1.0]))),
        lambda r: ([r.min_phi], [r.is_copositive, r.witness_t is None, *r.critical_points]),
    ),
    "heig_dim2": (
        lambda s: heig_dim2(make_hankel(4, 2, [0.0, s, 0.0, 0.0, 0.0])),
        lambda pairs: ([p.value for p in pairs], [c for p in pairs for c in p.vector]),
    ),
    "copositive_falsify": (
        lambda s: copositive_falsify(make_hankel(4, 3, s * _uniform(0, 9))),
        lambda x: ([], list(x)),
    ),
    "decompose": (
        lambda s: decompose(make_hankel(2, 18, s * _uniform(0, 35))),
        lambda d: (list(d.coeffs), list(d.nodes)),
    ),
}


@pytest.mark.parametrize("name", FLOAT_RANGE)
def test_float_range(name):
    # up to max |v| near 1e308, each call returns its unit-scale answer
    # scaled, or refuses where that answer, or the unit call, does; a numpy
    # overflow warning would fail the suite first
    call, parts = FLOAT_RANGE[name]
    try:
        unit = parts(call(1.0))
    except NumericalError:
        unit = None
    for s in (1e154, 1e300, 1e308):
        if unit is None:
            with pytest.raises(NumericalError, match="^decomposition residual"):
                call(s)
        elif np.max(np.abs(unit[0]), initial=0.0) > np.finfo(float).max / s:
            with pytest.raises(ValueError, match="overflows the float range$"):
                call(s)
        else:
            scaled, fixed = parts(call(s))
            big = np.max(np.abs(unit[0]), initial=1.0)
            assert_allclose(np.divide(scaled, s), unit[0], rtol=1e-12, atol=1e-12 * big, err_msg=f"{s:g}")
            assert_allclose(fixed, unit[1], rtol=0, atol=1e-9, err_msg=f"{s:g}")


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
            got = forms(a, xs)
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
            got = forms(a, xs)
            for j in range(xs.shape[0]):
                assert got[j].tobytes() == forms(a, xs[j : j + 1])[0].tobytes()


def test_all_lists_exactly_the_public_root_names():
    # names bind in the package namespace on first use, so use every one first
    exec("from hankeltensor import *", {})
    bound = {
        name
        for name, value in vars(hankeltensor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(hankeltensor.__all__)) == len(hankeltensor.__all__)
    assert set(hankeltensor.__all__) == bound | {"__version__"}


def _fresh_process(code):
    """Standard output of ``code`` run by a new interpreter that imports this package's source."""
    src = os.path.dirname(os.path.dirname(hankeltensor.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_loads_no_submodule():
    code = "import sys, hankeltensor; print(sorted(m for m in sys.modules if m.startswith('hankeltensor.')))"
    assert _fresh_process(code).strip() == "[]"


def test_every_public_name_is_its_home_modules_object():
    for name in hankeltensor.__all__:
        if name == "__version__":
            continue
        value = getattr(hankeltensor, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("hankeltensor.")
        assert getattr(home, name) is value


def test_submodules_resolve_after_a_bare_import():
    out = _fresh_process("import hankeltensor; print(hankeltensor.spectra.__name__)")
    assert out.strip() == "hankeltensor.spectra"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hankeltensor' has no attribute 'no_such_name'"):
        getattr(hankeltensor, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(hankeltensor.__all__) <= set(dir(hankeltensor))
