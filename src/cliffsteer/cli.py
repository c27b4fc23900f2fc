"""Batch command line surface: JSON documents in, JSON documents out.

Subcommands: construct, verify, coeffs, basis, appell, dsolve, suite.
This module parses arguments, reads and writes the documents, dispatches
and prints; the battery that ``suite`` runs lives in ``cliffsteer.suite``.
``main`` builds one argument parser per process, on its first call rather
than at import, and reuses it.
Exit codes: 0 success (and zero residual where one is computed),
1 nonzero residual, 2 malformed input or a violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .algebra import document_m, json_field, json_list, json_object, parse_fraction, quoted
from .appell import appell_poly
from .polynomials import CliffordPolynomial, polyharmonic_basis
from .steering import (
    DSolveSpec,
    RootSpec,
    SteeringExpression,
    ck_table,
    construct_exp_left,
    construct_power_left,
    construct_trig_left,
    construct_two_sided,
    dsolve,
)
from .verify import (
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)

EXIT_OK = 0
EXIT_NONZERO = 1
EXIT_INPUT = 2


def _indented(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` at the nesting whose line break and
    indent is ``indent``, with each string encoded by the C encoder; any
    other value (None, a float, a dict with a key that is not a string, an
    unserializable object) goes to ``json.dumps`` whole."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    inner = indent + "  "
    if kind is list:
        body = [_indented(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(body)}{indent}]" if body else "[]"
    if kind is dict and all(type(k) is str for k in obj):
        body = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return f"{{{inner}{(',' + inner).join(body)}{indent}}}" if body else "{}"
    # json.dumps escapes every newline inside a string, so each one it writes starts a line
    return json.dumps(obj, indent=2).replace("\n", indent)


def _emit(obj, out_path: str | None) -> None:
    text = _indented(obj) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_document(args) -> object:
    if getattr(args, "seed", None):
        text = args.seed
    elif path := getattr(args, "seed_file", None) or getattr(args, "in_path", None):
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except ValueError:  # parsed again, so that an integer too long to convert names the limit
        return json.loads(text, parse_int=lambda digits: int(parse_fraction(digits, "integer")))


def _parse_function(obj) -> SteeringExpression | CliffordPolynomial:
    # polynomial documents carry a "vars" field, expression documents do not
    if isinstance(obj, dict) and "vars" in obj:
        return CliffordPolynomial.from_obj(obj)
    return SteeringExpression.from_obj(obj)


def _frac(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except OverflowError as exc:  # its message names the limit and cuts the value short
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {quoted(text)}") from exc


def _coeff_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_frac(part.strip()) for part in text.split(",") if part.strip())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    _emit(ck_table(args.n).to_obj(), args.out)
    return EXIT_OK


def cmd_basis(args) -> int:
    polys = polyharmonic_basis(args.degree, args.n, args.m)
    _emit([p.to_obj() for p in polys], args.out)
    return EXIT_OK


def cmd_appell(args) -> int:
    _emit(appell_poly(args.k, args.m).to_obj(), args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    doc = _load_document(args)
    both = args.side == "both"
    if args.family == "exp":
        seed = CliffordPolynomial.from_obj(doc)
        expr = construct_two_sided("exp", seed) if both else construct_exp_left(seed, args.n)
    elif args.family == "trig":
        keys = ("M", "N") if both else ("a1", "b1")
        fields = (json_field(doc, k, "trig seed document") for k in keys)
        a, b = (CliffordPolynomial.from_obj(field) for field in fields)
        expr = construct_two_sided("trig", (a, b)) if both else construct_trig_left(a, b, args.n)
    else:
        seeds = json_field(doc, "seeds", "power seed document")
        seeds = json_list(seeds, "power seed document field 'seeds'")
        seeds = [CliffordPolynomial.from_obj(entry) for entry in seeds]
        expr = construct_two_sided("power", seeds) if both else construct_power_left(seeds, args.n)
    if args.m is not None and expr.m != args.m:
        raise ValueError(f"seed dimension m={expr.m} does not match --m {args.m}")
    _emit(expr.to_obj(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    func = _parse_function(_load_document(args))
    op = args.op
    side = args.side
    if op == "cr-left":
        op, side = "cr", "left"
    elif op == "cr-right":
        op, side = "cr", "right"
    if op == "cr":
        if side == "both":
            left = n_monogenic_residual(func, args.n, "left")
            right = n_monogenic_residual(func, args.n, "right")
            _emit([left.to_obj(), right.to_obj()], args.out)
            return EXIT_OK if left.is_zero and right.is_zero else EXIT_NONZERO
        report = n_monogenic_residual(func, args.n, side)
    elif op == "infra":
        report = inframonogenic_residual(func)
    elif op == "lame":
        if args.mu is None or args.lam is None:
            raise ValueError("--op lame needs --mu and --lambda")
        report = lame_navier_residual(func, args.mu, args.lam)
    elif op == "alphabeta":
        if args.alpha is None or args.beta is None:
            raise ValueError("--op alphabeta needs --alpha and --beta")
        report = alpha_beta_residual(func, args.alpha, args.beta)
    elif op == "infrapoly":
        report = infrapoly_residual(func, args.p, args.q)
    else:  # "deq", the last operator the parser accepts
        if not args.coeffs:
            raise ValueError("--op deq needs --coeffs")
        report = d_equation_residual(func, args.coeffs)
    _emit(report.to_obj(), args.out)
    return EXIT_OK if report.is_zero else EXIT_NONZERO


def _root_from_obj(obj) -> RootSpec:
    harmonic = json_object(obj, "dsolve spec root").get("harmonic_seed")
    monogenic = obj.get("monogenic_seeds", [])
    json_list(monogenic, "dsolve spec root field 'monogenic_seeds'")
    return RootSpec(
        value=parse_fraction(json_field(obj, "root", "dsolve spec root"), "dsolve root"),
        multiplicity=obj.get("multiplicity", 1),
        harmonic_seed=None if harmonic is None else CliffordPolynomial.from_obj(harmonic),
        monogenic_seeds=tuple(CliffordPolynomial.from_obj(s) for s in monogenic),
    )


def cmd_dsolve(args) -> int:
    doc = _load_document(args)
    m = document_m(doc, "dsolve spec")
    roots = json_field(doc, "roots", "dsolve spec document")
    roots = json_list(roots, "dsolve spec field 'roots'")
    spec = DSolveSpec(m=m, coeffs=args.coeffs, roots=tuple(_root_from_obj(r) for r in roots))
    solution = dsolve(spec)
    report = d_equation_residual(solution, args.coeffs)
    _emit({"solution": solution.to_obj(), "residual": report.to_obj()}, args.out)
    return EXIT_OK if report.is_zero else EXIT_NONZERO


def cmd_suite(args) -> int:
    # imported here so that the other subcommands start without loading the battery
    from . import suite

    rows = suite.run(args)
    width = max(len(row[0]) for row in rows)
    for case_id, ok, detail, elapsed in rows:
        status = "pass" if ok else "FAIL"
        print(f"{case_id:<{width}}  {status}  {elapsed * 1000:9.2f} ms  {detail}")
    passed = sum(ok for _, ok, _, _ in rows)
    print(f"{passed}/{len(rows)} cases passed")
    return EXIT_OK if passed == len(rows) else EXIT_NONZERO


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsteer",
        description="Construct and verify steering-type solutions of iterated "
        "Cauchy-Riemann systems over R_{0,m}, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="emit the conjugate-side coefficient table")
    coeffs.add_argument("--n", type=int, required=True, help="table length")
    coeffs.add_argument("--out", help="write JSON here instead of stdout")
    coeffs.set_defaults(func=cmd_coeffs)

    basis = sub.add_parser(
        "basis", help="emit a homogeneous basis of the iterated-Laplacian kernel"
    )
    basis.add_argument("--m", type=int, default=4)
    basis.add_argument("--degree", type=int, required=True)
    basis.add_argument("--n", type=int, default=1, help="Laplacian power")
    basis.add_argument("--out")
    basis.set_defaults(func=cmd_basis)

    appell = sub.add_parser("appell", help="emit the k-th Appell polynomial")
    appell.add_argument("--k", type=int, required=True)
    appell.add_argument("--m", type=int, default=3)
    appell.add_argument("--out")
    appell.set_defaults(func=cmd_appell)

    construct = sub.add_parser("construct", help="build a steering solution")
    construct.add_argument("--family", choices=("exp", "trig", "power"), required=True)
    construct.add_argument("--n", type=int, default=1, help="monogenicity order")
    construct.add_argument("--side", choices=("left", "both"), default="left")
    construct.add_argument("--m", type=int, help="optional dimension cross-check")
    construct.add_argument("--seed", help="inline JSON seed document")
    construct.add_argument("--seed-file", help="path to the JSON seed document")
    construct.add_argument("--out")
    construct.set_defaults(func=cmd_construct)

    verify = sub.add_parser("verify", help="apply an operator chain and report the residual")
    verify.add_argument(
        "--op",
        choices=("cr", "cr-left", "cr-right", "infra", "lame", "alphabeta", "infrapoly", "deq"),
        required=True,
    )
    verify.add_argument("--side", choices=("left", "right", "both"), default="left")
    verify.add_argument("--n", type=int, default=1)
    verify.add_argument("--mu", type=_frac)
    verify.add_argument("--lambda", dest="lam", type=_frac)
    verify.add_argument("--alpha", type=_frac)
    verify.add_argument("--beta", type=_frac)
    verify.add_argument("--p", type=int, default=1)
    verify.add_argument("--q", type=int, default=1)
    verify.add_argument("--coeffs", type=_coeff_list, help='e.g. "1,-1"')
    verify.add_argument("--in", dest="in_path", help="input document (default: stdin)")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    dsolve_p = sub.add_parser(
        "dsolve", help="solve a constant coefficient equation in the hypercomplex derivative"
    )
    dsolve_p.add_argument("--coeffs", type=_coeff_list, required=True, help='e.g. "1,1,-2"')
    dsolve_p.add_argument("--spec-file", dest="seed_file", required=True)
    dsolve_p.add_argument("--out")
    dsolve_p.set_defaults(func=cmd_dsolve)

    suite = sub.add_parser("suite", help="run the verification battery")
    suite.add_argument("--m", type=int, default=4)
    suite.add_argument("--max-n", type=int, default=4)
    suite.add_argument("--max-degree", type=int, default=4)
    suite.add_argument("--cases", type=int, default=1000, help="randomized case count")
    suite.add_argument("--rng-seed", type=int, default=0)
    suite.add_argument(
        "--perturb",
        action="store_true",
        help="inject a +e2 fault into one constructed solution (the battery must fail)",
    )
    suite.set_defaults(func=cmd_suite)
    return parser


_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON ({exc})", file=sys.stderr)
    except RecursionError:
        print("error: document nested too deeply", file=sys.stderr)
    except (ValueError, TypeError, IndexError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
