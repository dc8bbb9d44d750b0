"""Command-line surface: one subcommand per library operation or suite.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Plain
output is line oriented and canonically sorted; --json emits a single
document with fields {command, inputs, results, violations?} where
partitions are integer arrays and rationals are {num, den} objects.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from fractions import Fraction

from . import class_algebra as ca
from . import verify as vf
from .characters import F_eval, p_sharp, s_star
from .fillings import FILLINGS_DEFAULT_MAX, Filling, convolve, enumerate_F
from .partitions import Partition

DEFAULT_SIZE_BOUND = 12


class UsageError(Exception):
    pass


def _parse_partition(text: str, flag: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise UsageError(f"malformed partition string for {flag}: {exc}") from exc


def _parse_filling(text: str, flag: str) -> Filling:
    try:
        return Filling.from_string(text)
    except ValueError as exc:
        raise UsageError(f"malformed filling string for {flag}: {exc}") from exc


def _check_size(total: int, max_size: int, what: str,
                default: int = DEFAULT_SIZE_BOUND) -> None:
    if total > max_size:
        raise UsageError(
            f"size bounds exceeded: {what} = {total} > {max_size} "
            "(raise --max-size explicitly to override)")
    if max_size > default:
        print(f"warning: --max-size {max_size} above default "
              f"{default}; this may take a long time", file=sys.stderr)


def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, Partition):
        return list(value.parts)
    return value


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _emit(args, document: dict, plain_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for line in plain_lines:
            print(line)


def _vector_lines(v: ca.ClassVector, basis: str) -> list[str]:
    """One line per term; the zero vector prints as 0."""
    return [f"{_fraction_text(c)} {basis}({p})" for p, c in v.items()] or ["0"]


def _cmd_mult(args) -> int:
    lhs = _parse_partition(args.lhs, "--lhs")
    rhs = _parse_partition(args.rhs, "--rhs")
    if args.n is not None and args.n < 0:
        raise UsageError(f"truncation level --n must be nonnegative, got {args.n}")
    _check_size(lhs.size() + rhs.size(), args.max_size, "|lhs|+|rhs|")
    if args.basis == "A":
        expansion = ca.product_expansion(lhs, rhs)
    else:
        expansion = ca.product_expansion_a(lhs, rhs)
    terms = {p: Fraction(c) for p, c in expansion.items()}
    if args.n is not None:
        terms = {p: c for p, c in terms.items() if p.size() <= args.n}
    v = ca.ClassVector(terms, args.n)
    doc = {"command": "mult",
           "inputs": {"basis": args.basis, "lhs": _jsonable(lhs),
                      "rhs": _jsonable(rhs), "n": args.n},
           "results": [{"coeff": _jsonable(c), "partition": _jsonable(p)}
                       for p, c in v.items()]}
    _emit(args, doc, _vector_lines(v, args.basis))
    return 0


def _cmd_constant(args) -> int:
    """gconst and fconst: one value of the structure-constant function bound
    to the subcommand."""
    sigma = _parse_partition(args.sigma, "--sigma")
    tau = _parse_partition(args.tau, "--tau")
    rho = _parse_partition(args.rho, "--rho")
    _check_size(sigma.size() + tau.size(), args.max_size, "|sigma|+|tau|")
    value = args.constant(sigma, tau, rho)
    doc = {"command": args.command,
           "inputs": {"sigma": _jsonable(sigma), "tau": _jsonable(tau),
                      "rho": _jsonable(rho)},
           "results": value}
    _emit(args, doc, [str(value)])
    return 0


def _cmd_qpoly(args) -> int:
    sigma = _parse_partition(args.sigma, "--sigma")
    tau = _parse_partition(args.tau, "--tau")
    rho = _parse_partition(args.rho, "--rho")
    _check_size(sigma.size() + tau.size(), args.max_size, "|sigma|+|tau|")
    try:
        q = ca.q_polynomial(sigma, tau, rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {"command": "qpoly",
           "inputs": {"sigma": _jsonable(sigma), "tau": _jsonable(tau),
                      "rho": _jsonable(rho)},
           "results": {"coeffs": list(q.coeffs), "monomial": q.monomial_string()}}
    _emit(args, doc, ["[" + ",".join(str(c) for c in q.coeffs) + "]",
                      q.monomial_string()])
    return 0


def _cmd_csn_mult(args) -> int:
    sigma = _parse_partition(args.sigma, "--sigma")
    tau = _parse_partition(args.tau, "--tau")
    _check_size(sigma.size() + tau.size(), args.max_size, "|sigma|+|tau|")
    try:
        v = ca.convolve_C_classes(sigma, tau, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {"command": "csn-mult",
           "inputs": {"sigma": _jsonable(sigma), "tau": _jsonable(tau), "n": args.n},
           "results": [{"coeff": _jsonable(c), "partition": _jsonable(p)}
                       for p, c in v.items()]}
    _emit(args, doc, _vector_lines(v, "C"))
    return 0


def _cmd_fillings_conv(args) -> int:
    s = _parse_filling(args.lhs, "--lhs")
    t = _parse_filling(args.rhs, "--rhs")
    r = convolve(s, t)
    doc = {"command": "fillings-conv",
           "inputs": {"lhs": str(s), "rhs": str(t)},
           "results": {"filling": str(r), "rows": [list(row) for row in r.rows]}}
    _emit(args, doc, [str(r)])
    return 0


def _cmd_fillings_count(args) -> int:
    sigma = _parse_partition(args.sigma, "--sigma")
    tau = _parse_partition(args.tau, "--tau")
    rho = _parse_partition(args.rho, "--rho")
    _check_size(max(sigma.size(), tau.size()), args.max_size, "max(|sigma|,|tau|)",
                FILLINGS_DEFAULT_MAX)
    pairs = enumerate_F(sigma, tau, rho, max_size=args.max_size)
    doc = {"command": "fillings-count",
           "inputs": {"sigma": _jsonable(sigma), "tau": _jsonable(tau),
                      "rho": _jsonable(rho)},
           "results": len(pairs)}
    _emit(args, doc, [str(len(pairs))])
    return 0


def _cmd_peval(args) -> int:
    rho = _parse_partition(args.rho, "--rho")
    lam = _parse_partition(args.lam, "--lam")
    _check_size(max(rho.size(), lam.size()), args.max_size, "|rho| or |lambda|")
    value = p_sharp(rho, lam)
    doc = {"command": "peval",
           "inputs": {"rho": _jsonable(rho), "lam": _jsonable(lam)},
           "results": _jsonable(value)}
    _emit(args, doc, [_fraction_text(value)])
    return 0


def _cmd_sstar(args) -> int:
    mu = _parse_partition(args.mu, "--mu")
    lam = _parse_partition(args.lam, "--lam")
    _check_size(max(mu.size(), lam.size()), args.max_size, "|mu| or |lambda|")
    value = s_star(mu, lam)
    doc = {"command": "sstar",
           "inputs": {"mu": _jsonable(mu), "lam": _jsonable(lam)},
           "results": _jsonable(value)}
    _emit(args, doc, [_fraction_text(value)])
    return 0


def _parse_term(text: str) -> tuple[Fraction, Partition]:
    coeff_text, sep, part_text = text.partition(":")
    if not sep:
        raise UsageError(
            f"malformed term {text!r}: expected '<coeff>:<partition>'")
    try:
        coeff = Fraction(coeff_text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed coefficient in term {text!r}") from exc
    return coeff, _parse_partition(part_text, "--term")


def _cmd_feval(args) -> int:
    lam = _parse_partition(args.lam, "--lam")
    terms: dict[Partition, Fraction] = {}
    for chunk in args.term:
        coeff, rho = _parse_term(chunk)
        terms[rho] = terms.get(rho, Fraction(0)) + coeff
    sizes = [p.size() for p in terms] + [lam.size()]
    _check_size(max(sizes, default=0), args.max_size, "largest partition")
    v = ca.ClassVector(terms)
    value = F_eval(v, lam)
    doc = {"command": "feval",
           "inputs": {"lam": _jsonable(lam),
                      "terms": [{"coeff": _jsonable(c), "partition": _jsonable(p)}
                                for p, c in v.items()]},
           "results": _jsonable(value)}
    _emit(args, doc, [_fraction_text(value)])
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in vf.SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {sorted(vf.SUITES)}")
    options = {}
    if args.max_size is not None:
        params = list(inspect.signature(vf.SUITES[args.suite]).parameters.values())
        if not params:
            raise UsageError(f"suite {args.suite!r} does not take --max-size")
        bound = params[0]
        if args.max_size < bound.default:
            raise UsageError(
                f"--max-size {args.max_size} below suite default {bound.default}; "
                "it can only raise a suite's bound")
        if args.max_size > bound.default:
            print(f"warning: --max-size {args.max_size} above suite default "
                  f"{bound.default}; this may take a long time", file=sys.stderr)
        options = {bound.name: args.max_size}
    result = vf.run_suite(args.suite, **options)
    doc = {"command": "verify",
           "inputs": {"suite": args.suite, "max_size": args.max_size},
           "results": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                       for c in result.checks],
           "ok": result.ok}
    failures = [c.line() for c in result.checks if not c.ok]
    if failures:
        doc["violations"] = failures
    _emit(args, doc, result.lines())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classconv",
        description="Exact conjugacy-class convolution via partial permutations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(func=func)
        return p

    p = add("mult", _cmd_mult, "expand a product of basis classes")
    p.add_argument("--basis", choices=["A", "a"], default="A")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--n", type=int, default=None, help="truncation level")
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    for name, func, constant in [("gconst", _cmd_constant, ca.g_constant),
                                 ("fconst", _cmd_constant, ca.f_constant),
                                 ("qpoly", _cmd_qpoly, None)]:
        p = add(name, func, f"compute one {name} value")
        p.set_defaults(constant=constant)
        p.add_argument("--sigma", required=True)
        p.add_argument("--tau", required=True)
        p.add_argument("--rho", required=True)
        p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    p = add("csn-mult", _cmd_csn_mult, "convolve conjugacy classes of S_n")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    p = add("fillings-conv", _cmd_fillings_conv, "convolve two fillings")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("fillings-count", _cmd_fillings_count,
            "count filling pairs realizing a product")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--max-size", type=int, default=FILLINGS_DEFAULT_MAX)

    p = add("peval", _cmd_peval, "evaluate a shifted power sum at a partition")
    p.add_argument("--rho", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    p = add("sstar", _cmd_sstar, "evaluate a shifted Schur value at a partition")
    p.add_argument("--mu", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    p = add("feval", _cmd_feval, "evaluate the isomorphism on a class vector")
    p.add_argument("--lam", required=True)
    p.add_argument("--term", action="append", default=[],
                   help="repeatable '<coeff>:<partition>' summand; write a negative "
                        "coefficient as --term=-1:2, since argparse reads a separate "
                        "value that starts with '-' as an option")
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_BOUND)

    p = add("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-size", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
