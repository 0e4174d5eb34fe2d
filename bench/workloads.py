"""The four workloads: seeded inputs, the pipeline one operation runs, and
the checks of its outputs against ``oracles``.

An operation is one tensor taken through its workload's pipeline (one
process in ``cli_paper_examples``).  Inputs come in rounds: every round has
the same shapes and kinds in the same order, and only the values depend on
the seed, so each run measures the same mix of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles


class Overrun(Exception):
    """An operation passed its deadline."""


@dataclass
class Op:
    kind: str
    order: int
    dim: int
    data: dict = field(default_factory=dict)


def _distinct(rng, count, sep=0.05):
    while True:
        nodes = np.sort(rng.uniform(-1.0, 1.0, count))
        if count < 2 or np.min(np.diff(nodes)) >= sep:
            return nodes


# At least two nodes: on rank-one tensors the package's Sturm root isolation
# can stall (FOUND note in CHANGES.md).
def _measure(rng, max_nodes=6):
    k = int(rng.integers(2, max_nodes + 1))
    return _distinct(rng, k), rng.uniform(0.0, 1.0, k)


def _positive_decomposition(rng, max_terms=5):
    k = int(rng.integers(2, max_terms + 1))
    return _distinct(rng, k), rng.uniform(0.2, 1.0, k)


def _close(got, want, tol):
    return float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))) <= tol


def _plane_verdict_problems(report, gen, order, dim, must_be_copositive):
    """Plane copositivity against the phi grid (and, for even-order strong
    tensors, against the theorem that their planes are copositive)."""
    if must_be_copositive and not report.is_copositive:
        return ["plane of an even-order strong tensor reported not copositive"]
    low = float(np.min(oracles.phi_grid(oracles.plane_coeffs(gen, order, dim))))
    if abs(low) >= 1e-6 and report.is_copositive != (low > 0.0):
        return [f"plane verdict {report.is_copositive} against grid minimum {low:.3e}"]
    return []


def _strong_problems(cert, gen, order, dim, must_be_strong):
    if must_be_strong and not cert.is_strong:
        return ["strong tensor not certified strong"]
    margin = oracles.hankel_margins(gen, order, dim)
    limit = 1e-8 * oracles.scale_of(gen)
    # At odd (n-1)m is_strong can miss a strong tensor even when the leading
    # block is definite (FOUND note in CHANGES.md); only a refutation is checked.
    decided = margin < -limit if (dim - 1) * order % 2 else abs(margin) > limit
    if decided and cert.is_strong != (margin > 0.0):
        return [f"is_strong {cert.is_strong} against associated-matrix eigenvalue {margin:.3e}"]
    return []


# The machine this benchmark runs on is shared, and its speed swings by a
# quarter within seconds.  Every operation's time is therefore scaled by
# ``cal_ref_s`` over the time of a fixed probe measured just before and just
# after it, so the reported times read as on a machine where the probe takes
# ``cal_ref_s`` (about a quiet 2-core Xeon).  The probes do not call the
# package, so a change to the package moves only the operation times.
CAL_REF_S = 0.0015
_THETA = np.linspace(0.0, 2.0 * np.pi, 4096)
_SHORT = np.linspace(-1.0, 1.0, 5)


def kernel_seconds():
    """Best of two timings of a kernel with the package's mix of work: a
    Python loop, short convolutions and dot products, and vectorised
    trigonometry on 4096 points."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += (i % 7) * 0.5
        c = _SHORT
        for _ in range(150):
            c = np.convolve(c, _SHORT)[:16]
            acc += float(np.dot(c[:5], _SHORT))
        g = np.cos(_THETA) ** 3 * np.sin(_THETA)
        for _ in range(8):
            g = g * np.cos(_THETA) + np.sin(_THETA) ** 2
        acc += float(g.sum())
        best = min(best, time.perf_counter() - t0)
    return best


class Workload:
    """Base: a seeded source of rounds of operations."""

    name = ""
    deadline_s = 60.0
    trace_rounds = 1
    cal_ref_s = CAL_REF_S

    def calibrate(self):
        """Seconds the speed probe takes now."""
        return kernel_seconds()

    def __init__(self, ht, seed, root):
        self.ht = ht
        self.seed = seed
        self.root = root

    def rng(self, r):
        return np.random.default_rng([self.seed, r])

    def round(self, r):
        raise NotImplementedError

    def warm_up_op(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Benchmark-side tables the checks need; not part of set-up time."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError


class ZeigSweep(Workload):
    """Extreme Z-eigenvalues and the Prop. 6/7 bounds of random tensors."""

    name = "zeig_sweep"
    # The acceptance-criterion-7 shapes twice, then a few larger ones.  Two
    # copies put the median inside the criterion shapes' cluster of times
    # rather than at the gap above it, where it would flip between seeds.
    CRITERION_7 = [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2), (4, 3), (4, 4)]
    SHAPES = CRITERION_7 * 2 + [(6, 2), (6, 3), (3, 5), (4, 5)]
    trace_rounds = 2

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for m, n in self.SHAPES:
            gen = rng.uniform(-1.0, 1.0, (n - 1) * m + 1)
            sphere = rng.standard_normal((256, n))
            ops.append(Op("random", m, n, {"gen": gen, "sphere": sphere / np.linalg.norm(sphere, axis=1)[:, None]}))
        return ops

    def warm_up_op(self):
        return Op("random", 2, 2, {"gen": np.array([1.0, -0.5, 0.25])})

    def run(self, op):
        ht = self.ht
        a = ht.make_hankel(op.order, op.dim, op.data["gen"])
        out = {
            "min": ht.zeig_extreme(a, "min", restarts=4, iters=300),
            "max": ht.zeig_extreme(a, "max", restarts=4, iters=300),
            "prop6": ht.bounds_prop6(a),
        }
        if (op.dim - 1) * op.order % 2 == 0:
            out["prop7"] = ht.bounds_prop7(a)
        return out

    def check(self, op, out):
        gen, m, n = op.data["gen"], op.order, op.dim
        t = oracles.dense(gen, m, n)
        lo, hi = out["min"], out["max"]
        bad = []
        for pair in (lo, hi):
            lam, x = pair.value, np.asarray(pair.vector)
            if abs(float(np.linalg.norm(x)) - 1.0) > 1e-10:
                bad.append(f"eigenvector norm {np.linalg.norm(x)!r}")
            resid = float(np.max(np.abs(oracles.gradient(t, x) - lam * x)))
            if resid > 1e-8 * (1.0 + abs(lam)):
                bad.append(f"dense eigen residual {resid:.3e} at lambda {lam:.6g}")
        # The extremes are global only where the starts make them so: order 2
        # (a symmetric matrix) and dim 2 (the plane seed is exact).  Elsewhere
        # a local extreme can win (FOUND note in CHANGES.md).
        if m == 2 or n == 2:
            vals = oracles.forms(t, op.data["sphere"])
            if float(np.min(vals)) < lo.value - 1e-9 * (1.0 + abs(lo.value)):
                bad.append(f"sphere sample {np.min(vals):.9g} below lambda_min {lo.value:.9g}")
            if float(np.max(vals)) > hi.value + 1e-9 * (1.0 + abs(hi.value)):
                bad.append(f"sphere sample {np.max(vals):.9g} above lambda_max {hi.value:.9g}")
        corners = [float(gen[i * m]) for i in range(n)]
        b6 = out["prop6"]
        if (b6.upper_for_min, b6.lower_for_max) != (min(corners), max(corners)):
            bad.append("prop6 bounds are not the coordinate form values")
        for b in (out["prop6"], out.get("prop7")):
            if b is None:
                continue
            if b.upper_for_min is not None and lo.value > b.upper_for_min + 1e-6:
                bad.append(f"{b.source}: lambda_min {lo.value:.9g} above bound {b.upper_for_min:.9g}")
            if b.lower_for_max is not None and hi.value < b.lower_for_max - 1e-6:
                bad.append(f"{b.source}: lambda_max {hi.value:.9g} below bound {b.lower_for_max:.9g}")
        if n == 2:
            cmin, cmax = oracles.circle_extremes(gen)
            if abs(lo.value - cmin) > 1e-6 * (1.0 + abs(cmin)) or abs(hi.value - cmax) > 1e-6 * (1.0 + abs(cmax)):
                bad.append(f"extremes [{lo.value:.9g}, {hi.value:.9g}] against circle scan [{cmin:.9g}, {cmax:.9g}]")
        return bad


class CopositivityScreen(Workload):
    """Necessary test, simplex falsification and plane copositivity."""

    name = "copositivity_screen"
    # dim-4 shapes twice per round: they carry the 1/64 simplex scan's cost,
    # and a majority of them keeps the median inside one cluster of op times
    SHAPES = [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4), (2, 4), (3, 4), (4, 4)]

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for m, n in self.SHAPES:
            nodes, weights = _measure(rng)
            ops.append(Op("moment", m, n, {"gen": oracles.moments(nodes, weights, (n - 1) * m)}))
            ops.append(Op("random", m, n, {"gen": rng.uniform(-1.0, 1.0, (n - 1) * m + 1)}))
        for op in ops:
            op.data["tensor"] = self.ht.make_hankel(op.order, op.dim, op.data["gen"])
        return ops

    def warm_up_op(self):
        gen = np.array([1.0, -0.5, 0.25, 0.5, 1.0])
        return Op("random", 2, 3, {"gen": gen, "tensor": self.ht.make_hankel(2, 3, gen)})

    def prepare_checks(self):
        self.grids = {n: oracles.simplex_grid(n, 64) for n in (3, 4)}

    def run(self, op):
        ht = self.ht
        a = op.data["tensor"]
        return {
            "necessary": ht.copositive_necessary(a),
            "witness": ht.copositive_falsify(a, 1),
            "plane": ht.copositive_check(ht.assoc_plane(a)),
        }

    def check(self, op, out):
        gen, m, n = op.data["gen"], op.order, op.dim
        t = oracles.dense(gen, m, n)
        bad = []
        corner_bad = [i + 1 for i in range(n) if gen[i * m] < 0]
        want = (not corner_bad, corner_bad[0] if corner_bad else None)
        if tuple(out["necessary"]) != want:
            bad.append(f"copositive_necessary {out['necessary']} against {want}")
        w = out["witness"]
        if w is not None:
            w = np.asarray(w, dtype=float)
            if np.min(w) < -1e-12 or abs(float(np.sum(w)) - 1.0) > 1e-9:
                bad.append("witness is not on the simplex")
            if float(oracles.forms(t, w)[0]) >= 0.0:
                bad.append("witness has a nonnegative form value")
        low = oracles.grid_min(t, self.grids[n])
        if low < -1e-9 * oracles.scale_of(gen) and w is None:
            bad.append(f"no witness, but the 1/64 grid reaches {low:.3e}")
        strong_even = op.kind == "moment" and m % 2 == 0
        bad += _plane_verdict_problems(out["plane"], gen, m, n, strong_even)
        return bad


class StructureCertify(Workload):
    """Construction of structured tensors next to the structural verdicts."""

    name = "structure_certify"
    deadline_s = 1.0
    trace_rounds = 3
    SHAPES = [
        # plane degree below 20
        (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2),
        (2, 5), (4, 3), (3, 4), (5, 3), (2, 9), (8, 3), (6, 4), (3, 7), (9, 3), (2, 10),
        # plane degree 20-30, up to dim 16
        (5, 5), (7, 4), (3, 8), (4, 7), (6, 5), (9, 4), (10, 3), (2, 16), (3, 11), (6, 6),
    ]
    KINDS = ("moment", "complete", "hadamard_vd", "hadamard", "random")
    # Seeded inputs stay at plane degree 30 or less, and decompose runs up to
    # degree 20: past these the package fails or stalls on some seeds but not
    # on others (FOUND notes in CHANGES.md).
    DECOMPOSE_UP_TO = 20
    # Seed-independent inputs at plane degrees 40-60, attempted once per
    # round.  The first three pass; the next three raise NumericalError in
    # copositive_check ("monomial conversion coefficient growth"); the last
    # one sends copositive_check's root isolation into a bisection that
    # does not finish, so it fails on the deadline.
    FIXED = [
        ("moment", 6, 9, [-0.5, 0.25, 0.75], [0.3, 0.5, 0.2]),
        ("moment", 8, 8, [-0.5, 0.25, 0.75], [0.3, 0.5, 0.2]),
        ("moment", 10, 7, [-0.5, 0.25, 0.75], [0.3, 0.5, 0.2]),
        ("moment", 6, 9, [0.0, 1.0], [1.0, 1.0]),
        ("moment", 8, 8, [0.0, 1.0], [1.0, 1.0]),
        ("moment", 10, 7, [0.0, 1.0], [1.0, 1.0]),
        (
            "moment", 4, 11,
            [-0.4682116671061205, -0.8485280161630631, 0.07588680935169334],
            [0.9083301217185581, 0.05262188720728811, 0.028027177473773146],
        ),
    ]

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for m, n in self.SHAPES:
            for kind in self.KINDS:
                if kind == "moment":
                    data = {"measure": _measure(rng)}
                elif kind == "complete":
                    data = {"decomposition": _positive_decomposition(rng)}
                elif kind == "hadamard_vd":
                    data = {"decompositions": (_positive_decomposition(rng), _positive_decomposition(rng))}
                elif kind == "hadamard":
                    data = {"measures": (_measure(rng), _measure(rng))}
                else:
                    data = {"gen": rng.uniform(-1.0, 1.0, (n - 1) * m + 1)}
                ops.append(Op(kind, m, n, data))
        for kind, m, n, nodes, weights in self.FIXED:
            ops.append(Op(kind, m, n, {"measure": (np.array(nodes), np.array(weights))}))
        return ops

    def warm_up_op(self):
        return Op("moment", 3, 2, {"measure": (np.array([-0.5, 0.5]), np.array([1.0, 0.5]))})

    def _build(self, op):
        ht = self.ht
        m, n = op.order, op.dim
        if op.kind == "moment":
            return ht.from_measure(ht.DiscreteMeasure(*op.data["measure"]), m, n), None
        if op.kind == "complete":
            return ht.compose(ht.VandermondeDecomposition(*op.data["decomposition"]), m, n), None
        if op.kind == "hadamard_vd":
            d1, d2 = (ht.VandermondeDecomposition(*d) for d in op.data["decompositions"])
            d = ht.hadamard_vd(d1, d2)
            return ht.compose(d, m, n), d
        if op.kind == "hadamard":
            a, b = (ht.from_measure(ht.DiscreteMeasure(*mu), m, n) for mu in op.data["measures"])
            return ht.hadamard(a, b), None
        return ht.make_hankel(m, n, op.data["gen"]), None

    def run(self, op):
        ht = self.ht
        a, product = self._build(op)
        top = (op.dim - 1) * op.order
        out = {"tensor": a, "product": product, "strong": ht.is_strong(a)}
        out["plane"] = ht.copositive_check(ht.assoc_plane(a))
        if top <= self.DECOMPOSE_UP_TO:
            d = ht.decompose(a)
            out["decomposition"] = d
            out["recomposed"] = ht.compose(d, op.order, op.dim)
        if op.dim == 2:
            out["heig"] = ht.heig_dim2(a)
        return out

    def _expected_gen(self, op):
        top = (op.dim - 1) * op.order
        if op.kind == "moment":
            return oracles.moments(*op.data["measure"], top)
        if op.kind == "complete":
            return oracles.moments(*op.data["decomposition"], top)
        if op.kind == "hadamard_vd":
            d1, d2 = op.data["decompositions"]
            return oracles.moments(*d1, top) * oracles.moments(*d2, top)
        if op.kind == "hadamard":
            mu1, mu2 = op.data["measures"]
            return oracles.moments(*mu1, top) * oracles.moments(*mu2, top)
        return op.data["gen"]

    def check(self, op, out):
        m, n = op.order, op.dim
        top = (n - 1) * m
        want = self._expected_gen(op)
        gen = np.asarray(out["tensor"].gen)
        scale = oracles.scale_of(want)
        bad = []
        if not _close(gen, want, 1e-12 * scale * (top + 1)):
            bad.append(f"{op.kind} construction differs from the moment sums")
        if out["product"] is not None:
            d = out["product"]
            if not np.all(np.asarray(d.coeffs) > 0.0):
                bad.append("hadamard_vd of positive decompositions is not positive")
            if not _close(oracles.moments(d.nodes, d.coeffs, top), want, 1e-8 * scale):
                bad.append("hadamard_vd does not recompose to the entrywise product")
        # Every kind but random is strong by construction.  Moment tensors and
        # their products must be certified so when (n-1)m is even; at odd
        # (n-1)m is_strong misses some of them (FOUND note in CHANGES.md), and
        # only the associated-matrix oracle is applied.
        must = op.kind in ("moment", "hadamard") and top % 2 == 0
        bad += _strong_problems(out["strong"], gen, m, n, must)
        bad += _plane_verdict_problems(out["plane"], gen, m, n, op.kind != "random" and m % 2 == 0)
        if "decomposition" in out:
            d = out["decomposition"]
            if not _close(oracles.moments(d.nodes, d.coeffs, top), gen, 1e-8 * scale):
                bad.append("decomposition does not recompose to the generating vector")
            if not _close(out["recomposed"].gen, gen, 1e-8 * scale):
                bad.append("compose(decompose(a)) differs from a")
        if "heig" in out:
            t = oracles.dense(gen, m, n)
            for pair in out["heig"]:
                x, lam = np.asarray(pair.vector), pair.value
                resid = float(np.max(np.abs(oracles.gradient(t, x) - lam * x ** (m - 1))))
                if resid > 1e-8 * (1.0 + abs(lam)) * scale:
                    bad.append(f"H-eigen residual {resid:.3e} at lambda {lam:.6g}")
                if op.kind == "complete" and m % 2 == 1 and lam < -1e-8:
                    bad.append(f"complete odd-order tensor has H-eigenvalue {lam:.3e}")
        return bad


class CliPaperExamples(Workload):
    """Processes run as a shell user runs them: ``python -m hankeltensor.cli``."""

    name = "cli_paper_examples"
    # (kind, order, dim) of the tensors each round sends through the JSON chain
    TENSORS = [("moment", 4, 3), ("random", 3, 3)]

    def __init__(self, ht, seed, root):
        super().__init__(ht, seed, root)
        self.work = Path("bench") / "out" / "cli-work"
        (root / self.work).mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.cli = importlib.import_module(f"{ht.__name__}.cli")
        self.in_process = False
        self.child_rss_kb = 0

    # The in-process kernel does not follow process start-up and import
    # times, which are most of a CLI operation; a child that imports numpy does.
    cal_ref_s = 0.15

    def calibrate(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root, env=self.env, check=True)
        return time.perf_counter() - t0

    def _file(self, stem, i):
        return str(self.work / f"{stem}{i}.json")

    def round(self, r):
        rng = self.rng(r)
        ops = [Op("paper-examples", 0, 0, {"argv": ["paper-examples"]})]
        for i, (kind, m, n) in enumerate(self.TENSORS):
            if kind == "moment":
                gen = oracles.moments(*_measure(rng), (n - 1) * m)
            else:
                gen = rng.uniform(-1.0, 1.0, (n - 1) * m + 1)
            t, f = self._file("t", i), self._file
            chain = [
                # "--gen=" form: a value that starts with "-" is read as an option otherwise
                ("build", ["build", "--order", str(m), "--dim", str(n), "--gen=" + ",".join(map(repr, map(float, gen))), "-o", t]),
                ("is-strong", ["is-strong", t, "-o", f("s", i)]),
                ("plane", ["plane", t, "-o", f("p", i)]),
                ("copositive-plane", ["copositive-plane", f("p", i), "-o", f("c", i)]),
                ("zeig", ["zeig", t, "--mode", "min", "--restarts", "4", "--iters", "300", "-o", f("z", i)]),
                ("bounds", ["bounds", t, "--source", "prop7", "-o", f("b", i)]),
                ("decompose", ["decompose", t, "-o", f("d", i)]),
                ("compose", ["compose", f("d", i), "--order", str(m), "--dim", str(n), "-o", f("r", i)]),
            ]
            for step, argv in chain:
                ops.append(Op(step, m, n, {"argv": argv, "gen": gen, "index": i}))
        return ops

    def warm_up_op(self):
        return Op("build", 2, 2, {"argv": ["build", "--order", "2", "--dim", "2", "--gen", "1,0,1", "-o", self._file("w", 0)]})

    def run(self, op):
        if self.in_process:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(list(op.data["argv"]))
            return {"code": code, "stdout": stdout.getvalue()}
        argv = [sys.executable, "-m", "hankeltensor.cli", *op.data["argv"]]
        with open(self.root / self.work / "stdout", "w+b") as out_f:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out_f, stderr=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            out_f.seek(0)
            text = out_f.read().decode()
        return {"code": proc.returncode, "stdout": text}

    def _load(self, stem, i):
        with open(self.root / self._file(stem, i), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, op, out):
        code = out["code"]
        if op.kind == "paper-examples":
            last = out["stdout"].strip().splitlines()[-1:]
            if code != 0 or last != ["all checks behaved as documented"]:
                return [f"paper-examples exited {code} with {last}"]
            return []
        i, m, n, gen = op.data["index"], op.order, op.dim, op.data["gen"]
        expect = {0}
        if op.kind == "is-strong":
            margin = oracles.hankel_margins(gen, m, n)
            expect = {0, 1} if abs(margin) <= 1e-8 * oracles.scale_of(gen) else {0 if margin > 0 else 1}
        elif op.kind == "copositive-plane":
            low = float(np.min(oracles.phi_grid(oracles.plane_coeffs(gen, m, n))))
            expect = {0, 1} if abs(low) < 1e-6 else {0 if low > 0 else 1}
        if code not in expect:
            return [f"{op.kind} exited {code}, expected {sorted(expect)}"]
        bad = []
        scale = oracles.scale_of(gen)
        if op.kind == "build":
            if self._load("t", i)["gen"] != [float(v) for v in gen]:
                bad.append("build did not keep the generating vector exactly")
        elif op.kind == "is-strong":
            if self._load("s", i)["is_strong"] != (code == 0):
                bad.append("is-strong verdict and exit code disagree")
        elif op.kind == "plane":
            if not _close(self._load("p", i)["p"], oracles.plane_coeffs(gen, m, n), 1e-12 * scale):
                bad.append("plane coefficients differ from s(k,m,n) v_k / C(l,k)")
        elif op.kind == "copositive-plane":
            if self._load("c", i)["copositive"] != (code == 0):
                bad.append("copositive-plane verdict and exit code disagree")
        elif op.kind == "zeig":
            z = self._load("z", i)
            x, lam = np.asarray(z["vector"]), z["value"]
            resid = float(np.max(np.abs(oracles.gradient(oracles.dense(gen, m, n), x) - lam * x)))
            if resid > 1e-8 * (1.0 + abs(lam)):
                bad.append(f"zeig dense residual {resid:.3e}")
        elif op.kind == "bounds":
            b, lam = self._load("b", i), self._load("z", i)["value"]
            if b["upper_for_min"] is not None and lam > b["upper_for_min"] + 1e-6:
                bad.append("zeig minimum above the prop7 bound")
        elif op.kind == "decompose":
            terms = self._load("d", i)["terms"]
            nodes = [t["node"] for t in terms]
            coeffs = [t["coeff"] for t in terms]
            if not _close(oracles.moments(nodes, coeffs, (n - 1) * m), gen, 1e-8 * scale):
                bad.append("decomposition does not recompose to the generating vector")
        elif op.kind == "compose":
            if not _close(self._load("r", i)["gen"], gen, 1e-8 * scale):
                bad.append("compose did not return the build input")
        return bad


WORKLOADS = {w.name: w for w in (ZeigSweep, CopositivityScreen, StructureCertify, CliPaperExamples)}
