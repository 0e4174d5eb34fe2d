"""Command-line interface.

Subcommands map one-to-one onto the library operations and exchange the JSON
document formats from :mod:`hankeltensor.serialize`.  Exit status: 0 on
success, 1 when a yes/no query answers no (not strong, not copositive,
falsification witness found, worked-example check failed), 2 on usage or
input errors.

Each ``_cmd_*`` handler returns its document (a JSON-ready dict, or the text
``entry``, ``eval`` and ``paper-examples`` print) and its answer; :func:`main`
alone writes the document, to stdout or ``-o``, and maps the answer to the
exit status.  Each handler imports the library module it calls, so a process
loads only what its subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .core import entry as core_entry
from .core import eval_form, eval_gradient_form, hadamard, make_hankel
from .errors import NumericalError


def _numbers(text, flag, kind=float):
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects a comma-separated list of {noun}") from None


def _load_tensor(path):
    return serialize.tensor_from_dict(serialize.load_json(path))


def _cmd_build(args):
    return serialize.to_dict(make_hankel(args.order, args.dim, _numbers(args.gen, "--gen"))), True


def _cmd_entry(args):
    t = _load_tensor(args.tensor)
    return f"{core_entry(t, _numbers(args.idx, '--idx', int)):.17g}", True


def _cmd_eval(args):
    t = _load_tensor(args.tensor)
    x = _numbers(args.x, "--x")
    if args.grad:
        return ",".join(f"{v:.17g}" for v in eval_gradient_form(t, x)), True
    return f"{eval_form(t, x):.17g}", True


def _cmd_assoc_matrix(args):
    from . import associated
    t = _load_tensor(args.tensor)
    return serialize.to_dict(associated.assoc_matrix(t, args.completion)), True


def _cmd_is_strong(args):
    from . import associated
    cert = associated.is_strong(_load_tensor(args.tensor))
    return serialize.to_dict(cert), cert.is_strong


def _cmd_plane(args):
    from . import associated
    return serialize.plane_to_dict(associated.assoc_plane(_load_tensor(args.tensor))), True


def _cmd_copositive_plane(args):
    from . import plane
    if (args.plane is None) == (args.p is None):
        raise ValueError("give exactly one of plane (a plane JSON file) and --p")
    if args.plane is not None:
        doc = serialize.load_json(args.plane)
    else:
        coeffs = _numbers(args.p, "--p")
        doc = {"degree": len(coeffs) - 1, "p": coeffs}
    report = plane.copositive_check(serialize.plane_from_dict(doc))
    return serialize.report_to_dict(report), report.is_copositive


def _cmd_decompose(args):
    from . import vandermonde
    t = _load_tensor(args.tensor)
    nodes = None if args.nodes is None else _numbers(args.nodes, "--nodes")
    return serialize.decomposition_to_dict(vandermonde.decompose(t, nodes)), True


def _cmd_compose(args):
    from . import vandermonde
    d = serialize.decomposition_from_dict(serialize.load_json(args.decomposition))
    return serialize.to_dict(vandermonde.compose(d, args.order, args.dim)), True


def _cmd_from_measure(args):
    from . import vandermonde
    mu = serialize.measure_from_dict(serialize.load_json(args.measure))
    return serialize.to_dict(vandermonde.from_measure(mu, args.order, args.dim)), True


def _cmd_hadamard(args):
    return serialize.to_dict(hadamard(_load_tensor(args.tensor_a), _load_tensor(args.tensor_b))), True


def _cmd_zeig(args):
    from . import spectra
    t = _load_tensor(args.tensor)
    pair = spectra.zeig_extreme(t, args.mode, restarts=args.restarts, iters=args.iters)
    return serialize.to_dict(pair), True


def _cmd_heig2(args):
    from . import spectra
    pairs = spectra.heig_dim2(_load_tensor(args.tensor))
    return {"pairs": [serialize.to_dict(p) for p in pairs]}, True


def _cmd_bounds(args):
    from . import spectra
    t = _load_tensor(args.tensor)
    zb = spectra.bounds_prop6(t) if args.source == "prop6" else spectra.bounds_prop7(t)
    return serialize.to_dict(zb), True


def _cmd_falsify(args):
    from . import spectra
    t = _load_tensor(args.tensor)
    witness = spectra.copositive_falsify(t, args.depth)
    if witness is None:
        return {"witness": None, "value": None}, True
    return {"witness": witness.tolist(), "value": eval_form(t, witness)}, False


def _cmd_paper_examples(args):
    from .worked_examples import run_worked_examples
    lines, ok = run_worked_examples()
    verdict = "all checks behaved as documented" if ok else "some checks deviated from the documented outcomes"
    return "\n".join([*lines, verdict]), ok


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hankel",
        description="Hankel tensor toolkit: structure tests, decompositions, eigenvalue estimates.",
        epilog=(
            "Numbers print with 17 significant digits; JSON payloads always round-trip. "
            "is-strong and copositive-plane judge at the fixed cut 1e-10 * max(1, max |coefficient|)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def opt_output(p):
        p.add_argument("-o", "--output", help="write the JSON document here instead of stdout")

    p = add("build", _cmd_build, "assemble a tensor JSON from order, dim and generating vector")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gen", required=True, help="comma-separated generating vector")
    opt_output(p)

    p = add("entry", _cmd_entry, "print one entry at a 1-based multi-index")
    p.add_argument("tensor")
    p.add_argument("--idx", required=True, help="comma-separated 1-based indices")

    p = add("eval", _cmd_eval, "evaluate the form A x^m (or the gradient form with --grad)")
    p.add_argument("tensor")
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--grad", action="store_true", help="print A x^(m-1) instead")

    p = add("assoc-matrix", _cmd_assoc_matrix, "associated Hankel matrix, written as an order-2 tensor")
    p.add_argument("tensor")
    p.add_argument("--completion", type=float, default=None)
    opt_output(p)

    p = add("is-strong", _cmd_is_strong, "strong Hankel test; exits 1 when not strong")
    p.add_argument("tensor")
    opt_output(p)

    p = add("plane", _cmd_plane, "associated plane tensor")
    p.add_argument("tensor")
    opt_output(p)

    p = add("copositive-plane", _cmd_copositive_plane, "plane copositivity; exits 1 when not copositive")
    p.add_argument("plane", nargs="?", help="plane tensor JSON file")
    p.add_argument("--p", help="comma-separated coefficients p_0..p_l")
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
        help="scanned starts at dim 3 and up, 1..1024 (default 20); no effect at order 2 or dim 2",
    )
    p.add_argument("--iters", type=int, default=500, help="power steps per start (default 500)")
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
    args = build_parser().parse_args(argv)
    try:
        doc, answer = args.func(args)
        text = (doc if isinstance(doc, str) else json.dumps(doc, indent=2)) + "\n"
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, IndexError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if answer else 1


if __name__ == "__main__":
    sys.exit(main())
