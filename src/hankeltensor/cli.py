"""Command-line interface.

Subcommands map one-to-one onto the library operations and exchange the JSON
document formats from :mod:`hankeltensor.serialize`.  Exit status: 0 on
success, 1 when a yes/no query answers no (not strong, not copositive,
falsification witness found, worked-example check failed), 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import associated, plane, serialize, spectra, vandermonde
from .core import entry as core_entry
from .core import eval_form, eval_gradient_form, hadamard, make_hankel
from .errors import NumericalError
from .worked_examples import run_worked_examples


def _floats(text, flag):
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers") from None


def _ints(text, flag):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of integers") from None


def _fmt(x, digits):
    return f"%.{digits}g" % float(x)


def _emit(args, doc):
    text = json.dumps(doc, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tensor(path):
    return serialize.tensor_from_dict(serialize.load_json(path))


def _cmd_build(args):
    t = make_hankel(args.order, args.dim, _floats(args.gen, "--gen"))
    _emit(args, serialize.to_dict(t))
    return 0


def _cmd_entry(args):
    t = _load_tensor(args.tensor)
    print(_fmt(core_entry(t, _ints(args.idx, "--idx")), args.digits))
    return 0


def _cmd_eval(args):
    t = _load_tensor(args.tensor)
    x = _floats(args.x, "--x")
    if args.grad:
        g = eval_gradient_form(t, x)
        print(",".join(_fmt(v, args.digits) for v in g))
    else:
        print(_fmt(eval_form(t, x), args.digits))
    return 0


def _cmd_assoc_matrix(args):
    t = _load_tensor(args.tensor)
    hm = associated.assoc_matrix(t, args.completion)
    _emit(args, serialize.to_dict(hm))
    return 0


def _cmd_is_strong(args):
    t = _load_tensor(args.tensor)
    cert = associated.is_strong(t, args.tol)
    _emit(args, serialize.to_dict(cert))
    return 0 if cert.is_strong else 1


def _cmd_plane(args):
    t = _load_tensor(args.tensor)
    _emit(args, serialize.plane_to_dict(associated.assoc_plane(t)))
    return 0


def _cmd_copositive_plane(args):
    if args.plane is not None:
        doc = serialize.load_json(args.plane)
    elif args.p is not None:
        coeffs = _floats(args.p, "--p").tolist()
        doc = {"degree": len(coeffs) - 1, "p": coeffs}
    else:
        raise ValueError("supply a plane JSON file or --p")
    p = serialize.plane_from_dict(doc)
    report = plane.copositive_check(p, args.tol)
    _emit(args, serialize.report_to_dict(report))
    return 0 if report.is_copositive else 1


def _cmd_decompose(args):
    t = _load_tensor(args.tensor)
    nodes = None if args.nodes is None else _floats(args.nodes, "--nodes")
    d = vandermonde.decompose(t, nodes)
    _emit(args, serialize.decomposition_to_dict(d))
    return 0


def _cmd_compose(args):
    d = serialize.decomposition_from_dict(serialize.load_json(args.decomposition))
    t = vandermonde.compose(d, args.order, args.dim)
    _emit(args, serialize.to_dict(t))
    return 0


def _cmd_from_measure(args):
    mu = serialize.measure_from_dict(serialize.load_json(args.measure))
    t = vandermonde.from_measure(mu, args.order, args.dim)
    _emit(args, serialize.to_dict(t))
    return 0


def _cmd_hadamard(args):
    t = hadamard(_load_tensor(args.tensor_a), _load_tensor(args.tensor_b))
    _emit(args, serialize.to_dict(t))
    return 0


def _cmd_zeig(args):
    t = _load_tensor(args.tensor)
    pair = spectra.zeig_extreme(t, args.mode, restarts=args.restarts, iters=args.iters, seed=args.seed)
    _emit(args, serialize.to_dict(pair))
    return 0


def _cmd_heig2(args):
    t = _load_tensor(args.tensor)
    pairs = spectra.heig_dim2(t)
    _emit(args, {"pairs": [serialize.to_dict(p) for p in pairs]})
    return 0


def _cmd_bounds(args):
    t = _load_tensor(args.tensor)
    zb = spectra.bounds_prop6(t) if args.source == "prop6" else spectra.bounds_prop7(t)
    _emit(args, serialize.to_dict(zb))
    return 0


def _cmd_falsify(args):
    t = _load_tensor(args.tensor)
    witness = spectra.copositive_falsify(t, args.depth)
    if witness is None:
        _emit(args, {"witness": None, "value": None})
        return 0
    _emit(args, {"witness": witness.tolist(), "value": eval_form(t, witness)})
    return 1


def _cmd_paper_examples(args):
    lines, ok = run_worked_examples()
    for line in lines:
        print(line)
    print("all checks behaved as documented" if ok else "some checks deviated from the documented outcomes")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hankel",
        description="Hankel tensor toolkit: structure tests, decompositions, eigenvalue estimates.",
        epilog="Numbers print with 17 significant digits by default; JSON payloads always round-trip.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def opt_output(p):
        p.add_argument("-o", "--output", help="write the JSON document here instead of stdout")

    def opt_digits(p):
        p.add_argument("--digits", type=int, default=17, help="significant digits for printed numbers")

    p = add("build", _cmd_build, "assemble a tensor JSON from order, dim and generating vector")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gen", required=True, help="comma-separated generating vector")
    opt_output(p)

    p = add("entry", _cmd_entry, "print one entry at a 1-based multi-index")
    p.add_argument("tensor")
    p.add_argument("--idx", required=True, help="comma-separated 1-based indices")
    opt_digits(p)

    p = add("eval", _cmd_eval, "evaluate the form A x^m (or the gradient form with --grad)")
    p.add_argument("tensor")
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--grad", action="store_true", help="print A x^(m-1) instead")
    opt_digits(p)

    p = add("assoc-matrix", _cmd_assoc_matrix, "associated Hankel matrix, written as an order-2 tensor")
    p.add_argument("tensor")
    p.add_argument("--completion", type=float, default=None)
    opt_output(p)

    p = add("is-strong", _cmd_is_strong, "strong Hankel test; exits 1 when not strong")
    p.add_argument("tensor")
    p.add_argument("--tol", type=float, default=1e-10)
    opt_output(p)

    p = add("plane", _cmd_plane, "associated plane tensor")
    p.add_argument("tensor")
    opt_output(p)

    p = add("copositive-plane", _cmd_copositive_plane, "plane copositivity; exits 1 when not copositive")
    given = p.add_mutually_exclusive_group()
    given.add_argument("plane", nargs="?", help="plane tensor JSON file")
    given.add_argument("--p", help="comma-separated coefficients p_0..p_l")
    p.add_argument("--tol", type=float, default=1e-10)
    opt_output(p)

    p = add("decompose", _cmd_decompose, "Vandermonde decomposition (default Chebyshev nodes)")
    p.add_argument("tensor")
    p.add_argument("--nodes", help="comma-separated custom nodes")
    opt_output(p)

    p = add("compose", _cmd_compose, "tensor generated by a decomposition")
    p.add_argument("decomposition")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    opt_output(p)

    p = add("from-measure", _cmd_from_measure, "tensor generated by a discrete measure's moments")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    opt_output(p)

    p = add("hadamard", _cmd_hadamard, "entrywise product of two tensors")
    p.add_argument("tensor_a")
    p.add_argument("tensor_b")
    opt_output(p)

    p = add("zeig", _cmd_zeig, "extreme Z-eigenpair (eigh at order 2, else shifted power iteration)")
    p.add_argument("tensor")
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument(
        "--restarts",
        type=int,
        default=20,
        help="scanned starts at dim 3 and up (default 20); no effect at order 2 or dim 2",
    )
    p.add_argument("--iters", type=int, default=500, help="power steps per start (default 500)")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the scanned cloud of starts; no effect at order 2 or dim 2",
    )
    opt_output(p)

    p = add("heig2", _cmd_heig2, "all H-eigenpairs of a two-dimensional tensor")
    p.add_argument("tensor")
    opt_output(p)

    p = add("bounds", _cmd_bounds, "bounds on the extreme Z-eigenvalues")
    p.add_argument("tensor")
    p.add_argument("--source", choices=["prop6", "prop7"], default="prop6")
    opt_output(p)

    p = add("falsify", _cmd_falsify, "search the simplex for a negative form value; exits 1 on a witness")
    p.add_argument("tensor")
    p.add_argument("--depth", type=int, default=1, help="node budget: at most 4096*depth sub-simplices")
    opt_output(p)

    add("paper-examples", _cmd_paper_examples, "re-run the canonical worked examples and report pass/fail")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
