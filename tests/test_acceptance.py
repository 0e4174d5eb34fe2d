"""End-to-end acceptance suite.

Each test prints exactly one verdict line (criterion number, PASS/FAIL,
elapsed time, short detail) even when capture is on, then asserts.  Every
random sweep uses its own fixed seed so reruns are bit-identical.
"""

import math
import time

import numpy as np

from hankeltensor import (
    assoc_matrix,
    assoc_plane,
    bounds_prop6,
    bounds_prop7,
    compose,
    copositive_check,
    copositive_falsify,
    count_s,
    decompose,
    eval_form,
    from_measure,
    hadamard,
    hadamard_vd,
    heig_dim2,
    is_positive,
    is_strong,
    make_hankel,
    odd_sign_check,
    z_extremes,
    zeig_extreme,
)
from hankeltensor.worked_examples import run_worked_examples
from conftest import random_hankel, random_measure, random_positive_decomposition

A_GEN = [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0]
B_GEN = [0.0, 0.0, 1.0, 0.0, 0.0]


def _report(capsys, num, ok, dt, budget, detail):
    in_time = dt < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {status} ({dt:.2f}s) - {detail}")
    assert ok, detail
    assert in_time, f"runtime {dt:.2f}s over the {budget}s budget"


def test_criterion_1_quartic_counterexample(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    a = make_hankel(4, 2, A_GEN)

    xs = rng.uniform(-2.0, 2.0, (1000, 2))
    dev = 0.0
    for x in xs:
        want = x[0] ** 4 - x[0] ** 2 * x[1] ** 2 + x[1] ** 4
        dev = max(dev, abs(eval_form(a, x) - want) / max(1.0, abs(want)))
    form_ok = dev <= 1e-10

    ext = z_extremes(assoc_plane(a))
    psd_ok = abs(ext.lambda_min - 0.25) <= 1e-8

    cert = is_strong(a)
    want_m = np.array([[1.0, 0.0, -1 / 6], [0.0, -1 / 6, 0.0], [-1 / 6, 0.0, 1.0]])
    matrix_ok = np.array_equal(assoc_matrix(a).matrix(), want_m)
    strong_ok = not cert.is_strong and matrix_ok

    dt = time.perf_counter() - t0
    _report(
        capsys, 1, form_ok and psd_ok and strong_ok, dt, 1.0,
        f"form dev {dev:.1e}, plane min {ext.lambda_min:.9f}, strong={cert.is_strong}",
    )


def test_criterion_2_hadamard_counterexample(capsys):
    t0 = time.perf_counter()
    a = make_hankel(4, 2, A_GEN)
    b = make_hankel(4, 2, B_GEN)

    ab = hadamard(a, b)
    gen_ok = np.array_equal(ab.gen, [0.0, 0.0, -1.0 / 6.0, 0.0, 0.0])

    ext = z_extremes(assoc_plane(ab))
    notpsd_ok = abs(ext.lambda_min - (-0.25)) <= 1e-8

    eigs = np.linalg.eigvalsh(assoc_matrix(b).matrix())
    b_spectrum_ok = np.allclose(eigs, [-1.0, 1.0, 1.0], atol=1e-12)
    b_not_strong = not is_strong(b).is_strong

    lines, harness_ok = run_worked_examples()
    flagged = any("paper claim not reproduced" in line for line in lines)

    dt = time.perf_counter() - t0
    _report(
        capsys, 2,
        gen_ok and notpsd_ok and b_spectrum_ok and b_not_strong and harness_ok and flagged,
        dt, 1.0,
        f"product min {ext.lambda_min:.9f}, B eigs {np.round(eigs, 12).tolist()}, "
        f"discrepancy flagged={flagged}",
    )


def test_criterion_3_decomposition_roundtrip(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    sizes_ok = True
    for _ in range(100):
        order = int(rng.choice([2, 3, 4]))
        dim = int(rng.choice([2, 3, 4]))
        a = random_hankel(rng, order, dim)
        d = decompose(a)
        sizes_ok = sizes_ok and len(d) <= (dim - 1) * order + 1
        worst = max(worst, float(np.max(np.abs(compose(d, order, dim).gen - a.gen))))
    dt = time.perf_counter() - t0
    _report(
        capsys, 3, worst <= 1e-8 and sizes_ok, dt, 5.0,
        f"worst roundtrip error {worst:.1e} over 100 tensors",
    )


def test_criterion_4_strong_closure_under_product(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = 0
    for _ in range(50):
        order = int(rng.choice([2, 3, 4]))
        dim = int(rng.choice([2, 3, 4]))
        a = from_measure(random_measure(rng), order, dim)
        b = from_measure(random_measure(rng), order, dim)
        if not is_strong(hadamard(a, b)).is_strong:
            failures += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 4, failures == 0, dt, 5.0,
        f"{50 - failures}/50 products certified strong",
    )


def test_criterion_5_positive_decomposition_product(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    all_positive = True
    for _ in range(50):
        order = int(rng.choice([2, 3, 4]))
        dim = int(rng.choice([2, 3, 4]))
        x = random_positive_decomposition(rng)
        y = random_positive_decomposition(rng)
        z = hadamard_vd(x, y)
        all_positive = all_positive and is_positive(z)
        want = hadamard(compose(x, order, dim), compose(y, order, dim)).gen
        got = compose(z, order, dim).gen
        worst = max(worst, float(np.max(np.abs(got - want))))
    dt = time.perf_counter() - t0
    _report(
        capsys, 5, all_positive and worst <= 1e-8, dt, 2.0,
        f"positive={all_positive}, worst product deviation {worst:.1e}",
    )


def test_criterion_6_copositivity_vs_grid_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    ts = np.linspace(0.0, 1.0, 100001)
    disagreements = 0
    decided = 0
    for _ in range(200):
        l = int(rng.integers(2, 9))
        p = make_hankel(l, 2, rng.uniform(-1.0, 1.0, l + 1))
        grid = np.zeros_like(ts)
        for k in range(l + 1):
            grid += math.comb(l, k) * p.gen[k] * ts ** (l - k) * (1.0 - ts) ** k
        grid_min = float(grid.min())
        if abs(grid_min) <= 1e-6:
            continue
        decided += 1
        if copositive_check(p).is_copositive != (grid_min > 0.0):
            disagreements += 1

    fixed = copositive_check(make_hankel(2, 2, [1.0, -3.0, 1.0]))
    fixed_ok = (
        not fixed.is_copositive
        and abs(fixed.witness_t - 0.5) <= 1e-10
        and abs(fixed.min_phi - (-1.0)) <= 1e-10
    )
    dt = time.perf_counter() - t0
    _report(
        capsys, 6, disagreements == 0 and fixed_ok, dt, 10.0,
        f"{decided}/200 oracle-decided, {disagreements} disagreements, "
        f"fixed witness {fixed.witness_t:.12f}",
    )


def test_criterion_7_eigenvalue_bound_sandwiches(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    shapes = [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2), (4, 3), (4, 4)]
    bound_ok = True
    plane_dev = 0.0
    for _ in range(100):
        order, dim = shapes[int(rng.integers(len(shapes)))]
        a = random_hankel(rng, order, dim)
        lo = zeig_extreme(a, "min", restarts=4, iters=300)
        hi = zeig_extreme(a, "max", restarts=4, iters=300)
        for b in (bounds_prop6(a), bounds_prop7(a)):
            bound_ok = bound_ok and lo.value <= b.upper_for_min + 1e-6
            bound_ok = bound_ok and hi.value >= b.lower_for_max - 1e-6
        if dim == 2:
            ext = z_extremes(assoc_plane(a))
            plane_dev = max(
                plane_dev,
                abs(lo.value - ext.lambda_min),
                abs(hi.value - ext.lambda_max),
            )
    dt = time.perf_counter() - t0
    _report(
        capsys, 7, bound_ok and plane_dev <= 1e-6, dt, 30.0,
        f"bounds held={bound_ok}, max n=2 deviation from exact extremes {plane_dev:.1e}",
    )


def test_criterion_8_odd_order_sign_structure(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)

    heig_ok = True
    for _ in range(50):
        order = int(rng.choice([3, 5]))
        a = compose(random_positive_decomposition(rng), order, 2)
        for p in heig_dim2(a):
            heig_ok = heig_ok and p.value >= -1e-8
            if p.value > 1e-10:
                heig_ok = heig_ok and abs(p.vector[0]) >= 1e-12

    sign_ok = True
    for cls in ("complete", "strong"):
        for _ in range(50):
            order = int(rng.choice([3, 5]))
            dim = int(rng.choice([2, 3]))
            if cls == "complete":
                a = compose(random_positive_decomposition(rng), order, dim)
            else:
                a = from_measure(random_measure(rng), order, dim)
            for mode in ("min", "max"):
                pair = zeig_extreme(a, mode, restarts=4, iters=300)
                sign_ok = sign_ok and pair.converged
                sign_ok = sign_ok and odd_sign_check(pair, cls, order)

    dt = time.perf_counter() - t0
    _report(
        capsys, 8, heig_ok and sign_ok, dt, 30.0,
        f"H-eigenvalues nonnegative={heig_ok}, Z sign patterns held={sign_ok}",
    )


def test_criterion_9_entry_count_combinatorics(capsys):
    t0 = time.perf_counter()
    totals_ok = True
    mirror_ok = True
    for order in range(1, 7):
        for dim in range(1, 7):
            counts = [count_s(k, order, dim) for k in range((dim - 1) * order + 1)]
            totals_ok = totals_ok and sum(counts) == dim**order
            mirror_ok = mirror_ok and counts == counts[::-1]
    slot2_ok = all(
        count_s(2, order, dim) == order * (order + 1) // 2
        for order in range(1, 7)
        for dim in range(3, 7)
    )
    dt = time.perf_counter() - t0
    _report(
        capsys, 9, totals_ok and mirror_ok and slot2_ok, dt, 1.0,
        f"totals={totals_ok}, reflection={mirror_ok}, slot-2 formula={slot2_ok}",
    )


def test_criterion_10_psd_tensors_have_copositive_planes(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)

    strong_plane_min = np.inf
    for _ in range(50):
        order = int(rng.choice([2, 4]))
        dim = int(rng.choice([2, 3, 4]))
        a = from_measure(random_measure(rng), order, dim)
        strong_plane_min = min(strong_plane_min, z_extremes(assoc_plane(a)).lambda_min)
    strong_ok = strong_plane_min >= -1e-8

    kept = 0
    cop_ok = True
    attempts = 0
    while kept < 50 and attempts < 400:
        attempts += 1
        order = int(rng.choice([2, 4]))
        dim = int(rng.choice([2, 3]))
        if attempts % 2:
            a = from_measure(random_measure(rng), order, dim)
        else:
            a = random_hankel(rng, order, dim)
        if copositive_falsify(a) is not None:
            continue
        if zeig_extreme(a, "min", restarts=4, iters=300).value < 0.0:
            continue
        kept += 1
        cop_ok = cop_ok and copositive_check(assoc_plane(a)).is_copositive

    dt = time.perf_counter() - t0
    _report(
        capsys, 10, strong_ok and cop_ok and kept == 50, dt, 30.0,
        f"strong plane min {strong_plane_min:.2e}, {kept} PSD candidates, "
        f"all planes copositive={cop_ok}",
    )
