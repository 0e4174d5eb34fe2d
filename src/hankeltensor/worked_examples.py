"""Reproduction harness for the canonical worked examples.

Re-derives the published example computations that motivated this package
and reports one line per check.  One published claim (strength of the
counterexample factor B) does not survive recomputation; the harness flags
it explicitly and treats the *documented* outcome as the expected one.
"""

from __future__ import annotations

import numpy as np

from .associated import _square, assoc_plane, count_s, is_strong
from .core import eval_form, hadamard, make_hankel
from .plane import z_extremes
from .spectra import bounds_prop6, bounds_prop7, copositive_falsify, zeig_extreme
from .vandermonde import DiscreteMeasure, from_measure


def run_worked_examples():
    """Run every check; returns (report_lines, all_as_expected)."""
    lines = []
    failures = []

    def check(label, ok, detail):
        tag = "ok  " if ok else "FAIL"
        lines.append(f"[{tag}] {label}: {detail}")
        if not ok:
            failures.append(label)

    a = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
    b = make_hankel(4, 2, [0.0, 0.0, 1.0, 0.0, 0.0])
    ab = hadamard(a, b)

    # A agrees with x1^4 - x1^2 x2^2 + x2^4 and is PSD but not strong
    grid = [(1.0, 1.0), (1.0, 0.0), (0.5, -2.0), (-1.5, 0.25)]
    worst = max(
        abs(eval_form(a, np.array([x1, x2])) - (x1**4 - x1**2 * x2**2 + x2**4))
        for x1, x2 in grid
    )
    check("form of A", worst <= 1e-12, f"max deviation {worst:.2e} from x1^4 - x1^2*x2^2 + x2^4")

    ext_a = z_extremes(assoc_plane(a))
    check(
        "A is positive semidefinite",
        abs(ext_a.lambda_min - 0.25) <= 1e-8 and abs(ext_a.lambda_max - 1.0) <= 1e-8,
        f"circle extremes [{ext_a.lambda_min:.12g}, {ext_a.lambda_max:.12g}], expected [0.25, 1]",
    )

    cert_a = is_strong(a)
    check(
        "A is not strong",
        (not cert_a.is_strong) and abs(cert_a.min_eigenvalue + 1.0 / 6.0) <= 1e-10,
        f"associated matrix min eigenvalue {cert_a.min_eigenvalue:.12g}, expected -1/6",
    )

    # B evaluates to 6 x1^2 x2^2; its associated matrix has a negative eigenvalue
    worst_b = max(
        abs(eval_form(b, np.array([x1, x2])) - 6.0 * x1**2 * x2**2) for x1, x2 in grid
    )
    check("form of B", worst_b <= 1e-12, f"max deviation {worst_b:.2e} from 6*x1^2*x2^2")

    eigs = np.linalg.eigvalsh(_square(b.gen))
    spectrum_ok = np.allclose(np.sort(eigs), [-1.0, 1.0, 1.0], atol=1e-10)
    cert_b = is_strong(b)
    check(
        "B strongness discrepancy detected",
        spectrum_ok and not cert_b.is_strong,
        "documented as strong, but the associated matrix has eigenvalues "
        f"{{{', '.join(f'{e:.10g}' for e in np.sort(eigs))}}} -> not strong: "
        "paper claim not reproduced",
    )

    # the Hadamard product of the PSD pair is not PSD
    gen_ok = np.allclose(ab.gen, [0.0, 0.0, -1.0 / 6.0, 0.0, 0.0], atol=0)
    ext_ab = z_extremes(assoc_plane(ab))
    check(
        "A o B is not positive semidefinite",
        gen_ok and abs(ext_ab.lambda_min + 0.25) <= 1e-8,
        f"generating vector [0, 0, -1/6, 0, 0]; circle minimum {ext_ab.lambda_min:.12g}, expected -0.25",
    )

    witness = copositive_falsify(ab)
    wval = None if witness is None else eval_form(ab, witness)
    check(
        "A o B copositivity witness",
        witness is not None and wval <= -1.0 / 16.0 + 1e-9,
        f"witness {None if witness is None else np.round(witness, 6).tolist()} with value {wval}",
    )

    # eigenvalue bounds around the extreme Z-eigenvalues of A
    b6 = bounds_prop6(a)
    b7 = bounds_prop7(a)
    zmin = zeig_extreme(a, "min").value
    zmax = zeig_extreme(a, "max").value
    sandwich = (
        zmin <= b6.upper_for_min + 1e-6
        and zmax >= b6.lower_for_max - 1e-6
        and zmin <= b7.upper_for_min + 1e-6
        and zmax >= b7.lower_for_max - 1e-6
    )
    check(
        "bounds on extreme Z-eigenvalues of A",
        sandwich and abs(zmin - 0.25) <= 1e-6 and abs(zmax - 1.0) <= 1e-6,
        f"lambda in [{zmin:.9g}, {zmax:.9g}]; coordinate bounds ({b6.upper_for_min:.9g}, "
        f"{b6.lower_for_max:.9g}); plane bounds ({b7.upper_for_min:.9g}, {b7.lower_for_max:.9g})",
    )

    # entry-count identities, including the documented two-dimensional edge
    counts_ok = all(count_s(0, m, n) == 1 and count_s(1, m, n) == m for m in (2, 3, 4) for n in (2, 3, 4))
    formula_ok = all(count_s(2, m, n) == m * (m + 1) // 2 for m in (3, 4, 5) for n in (3, 4, 5))
    edge = count_s(2, 4, 2)
    check(
        "entry counts s(k, m, n)",
        counts_ok and formula_ok and edge == 6,
        "s(0)=1, s(1)=m; s(2)=m(m+1)/2 holds for n >= 3 only "
        f"(s(2,4,2) = {edge} = C(4,2), not 10)",
    )

    # moment sequences of nonnegative measures generate strong tensors
    mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    t_mu = from_measure(mu, 3, 2)
    cert_mu = is_strong(t_mu)
    check(
        "moment tensor is strong",
        np.allclose(t_mu.gen, [2.0, 1.0, 1.0, 1.0]) and cert_mu.is_strong,
        f"gen {t_mu.gen.tolist()}, completion {cert_mu.completion_used:.12g}",
    )

    return lines, not failures
