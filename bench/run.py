"""Seeded benchmark of the hankeltensor package.

    python3 bench/run.py --workload zeig_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the timed loop runs whole rounds of operations until
``--seconds`` have passed and the end-to-end metrics are printed.  With
``--trace 1`` a fixed number of rounds runs once untraced and once with
every layer's public functions wrapped, and the per-layer metrics and the
tracing overhead are printed.  Either way the last line of standard output
is one JSON object; a result file with the environment goes to
``bench/out/``.  See ``bench/README.md``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads and inherited by every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_package():
    src = ROOT / "src"
    if not (src / "hankeltensor" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    return importlib.import_module("hankeltensor")


def set_up(name, seed):
    """Import, generate the first round's inputs and run one warm-up operation."""
    ht = import_package()
    wl = workloads.WORKLOADS[name](ht, seed, ROOT)
    wl.round(0)
    wl.run(wl.warm_up_op())
    return wl


def child_seconds(argv):
    """Run a helper process that prints a number of seconds as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(name, seed):
    """Median scaled time of fresh-process set-ups (import, inputs, warm-up)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    return statistics.median(child_seconds(argv) for _ in range(SETUP_REPEATS))


def import_seconds():
    """Median time for a fresh process to import the CLI module."""
    code = "import time; t = time.perf_counter(); import hankeltensor.cli; print(time.perf_counter() - t)"
    return statistics.median(child_seconds([sys.executable, "-c", code]) for _ in range(SETUP_REPEATS))


def _on_alarm(signum, frame):
    raise workloads.Overrun()


def run_op(wl, op, wrap=None):
    """One operation under the workload's deadline; returns (seconds, output, error)."""
    signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
    t0 = time.perf_counter()
    try:
        out = wrap(wl.run, op) if wrap else wl.run(op)
        err = None
    except Exception as exc:  # any failure of the pipeline is a failed operation
        out, err = None, exc
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, out, err


class Tally:
    """Scaled and raw times of completed operations, failures and failed checks."""

    def __init__(self):
        self.times = []
        self.raw_times = []
        self.failed_time = 0.0
        self.attempted = 0
        self.failures = []
        self.problems = []

    def add(self, wl, op, dt, scale, out, err):
        self.attempted += 1
        if err is not None:
            # unscaled: the longest failure is a wall-clock deadline, not work
            self.failed_time += dt
            self.failures.append(f"{op.kind} m={op.order} n={op.dim}: {type(err).__name__}: {err}")
            return
        self.times.append(dt * scale)
        self.raw_times.append(dt)
        for p in wl.check(op, out):
            self.problems.append(f"{op.kind} m={op.order} n={op.dim}: {p}")

    @property
    def loop_seconds(self):
        return sum(self.times) + self.failed_time


def run_ops(wl, ops, tally, wrap=None):
    """Run operations, each timed between two calibrations (see workloads.py)."""
    before = wl.calibrate()
    for op in ops:
        dt, out, err = run_op(wl, op, wrap)
        after = wl.calibrate()
        tally.add(wl, op, dt, wl.cal_ref_s / (0.5 * (before + after)), out, err)
        before = after


def timed_run(wl, seconds):
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        run_ops(wl, wl.round(r), tally)
        r += 1
        now = time.perf_counter()
        # stop at the round boundary nearest to the requested length
        if now - start + 0.5 * (now - round_start) >= seconds:
            return tally


def end_to_end(wl, tally, setup_s):
    if wl.name == "cli_paper_examples":
        rss_kb = wl.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = len(tally.times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / tally.loop_seconds, "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(tally.times), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, ops, overhead_s, import_s):
    summary = tracer.summary()

    def get(label, key="calls"):
        return summary.get(label, {}).get(key, 0)

    def self_sum(prefix):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(prefix))

    m = {}
    for label in (
        "core.eval_form", "core.eval_gradient_form", "polyroots.roots_in_interval", "polyroots.real_roots",
        "plane.copositive_check", "plane.z_extremes", "associated.assoc_plane", "associated.is_strong",
        "spectra.zeig_extreme",
    ):
        m[f"{label}.calls"] = (get(label), "count")
        m[f"{label}.self_s"] = (get(label, "self_s"), "s")
    m["polyroots.count_roots.calls"] = (get("polyroots.count_roots"), "count")
    m["plane.copositive_check.critical_points"] = (tracer.counts["plane.copositive_check.critical_points"], "count")
    m["plane.copositive_check.numerical_errors"] = (get("plane.copositive_check", "numerical_errors"), "count")
    m["plane.copositive_check.overruns"] = (get("plane.copositive_check", "overruns"), "count")
    m["plane.z_extremes.calls_per_op"] = (get("plane.z_extremes") / ops, "1/op")
    for label in ("vandermonde.decompose", "vandermonde.compose", "vandermonde.from_measure",
                  "vandermonde.hadamard_vd", "spectra.bounds_prop7", "spectra.copositive_falsify",
                  "spectra.heig_dim2"):
        m[f"{label}.self_s"] = (get(label, "self_s"), "s")
    m["spectra.zeig_extreme.nonconverged"] = (tracer.counts["spectra.zeig_extreme.nonconverged"], "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.main.self_s"] = (self_sum("cli."), "s")
    m["cli.serialize.self_s"] = (self_sum("serialize."), "s")
    m["cli.worked_examples.self_s"] = (self_sum("worked_examples."), "s")
    m["trace.ops"] = (ops, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def traced_run(wl):
    """Fixed rounds, untraced then traced, so counts repeat exactly per seed."""
    rounds = [wl.round(r) for r in range(wl.trace_rounds)]
    ops = [op for ops in rounds for op in ops]
    if wl.name == "cli_paper_examples":
        wl.in_process = True
    plain, traced = Tally(), Tally()
    run_ops(wl, ops, plain)
    tracer = Tracer(wl.ht, workloads.Overrun)
    op_ids = {id(op): i for i, op in enumerate(ops)}
    tracer.install()
    try:
        run_ops(wl, ops, traced, lambda fn, op: tracer.operation(op_ids[id(op)], fn, op))
    finally:
        tracer.uninstall()
    return tracer, plain, traced


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, wl):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "cal_ref_s": wl.cal_ref_s,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        wl = set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - T0
        print(elapsed * wl.cal_ref_s / wl.calibrate())
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    wl = set_up(args.workload, args.seed)
    wl.prepare_checks()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed)
        wl.child_rss_kb = 0
        tally = timed_run(wl, args.seconds)
        metrics = end_to_end(wl, tally, setup_s)
        tallies = [tally]
    else:
        tracer, plain, traced = traced_run(wl)
        tracer.save(OUT / f"{stem}-spans.npz")
        overhead = traced.loop_seconds - plain.loop_seconds
        metrics = per_layer(tracer, traced.attempted, overhead, import_seconds())
        tallies = [plain, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    result = {
        "correct": not problems and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = tallies[0].raw_times
    record = dict(
        result,
        unscaled={"op_p50_ms": 1000.0 * statistics.median(raw), "completed_ops_wall_s": sum(raw)} if raw else {},
        environment=environment(args, wl),
        problems=problems[:50],
        failures=sorted(set(f for t in tallies for f in t.failures)),
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
