"""Command-line surface: one subcommand per library operation or suite.

Exit codes: 0 success, 1 verification failure, 2 bad input.  Bad input
is a ValueError, raised by the CLI's own checks or by the library below
it; main prints it as "error: <message>" with empty stdout.  Any other
exception, such as the RuntimeError of an internal fault, propagates.  Plain
output is line oriented and canonically sorted; --json emits a single
document with fields {command, inputs, results}, plus {ok, violations?}
for verify, where partitions are integer arrays and rationals are
{num, den} objects.

The CLI imports class_algebra and the modules it reads; each other module
is imported by the handler that runs it, so mult loads neither verify nor
fillings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import class_algebra as ca
from .characters import F_eval, p_sharp, s_star
from .partitions import Partition

DEFAULT_SIZE_BOUND = 12


def _parse(kind, text: str, flag: str):
    """kind.from_string(text); a malformed string raises ValueError naming flag."""
    try:
        return kind.from_string(text)
    except ValueError as exc:
        raise ValueError(
            f"malformed {kind.__name__.lower()} string for {flag}: {exc}") from exc


def _check_size(args, total: int, what: str, default: int = DEFAULT_SIZE_BOUND) -> None:
    """Refuse a total above --max-size, which defaults to the subcommand's
    default bound; warn when it is above that default.  With the verify
    suites' bounds this is the one size limit: the library computes any
    size it is asked for."""
    bound = default if args.max_size is None else args.max_size
    if total > bound:
        raise ValueError(
            f"size bounds exceeded: {what} = {total} > {bound} "
            "(raise --max-size explicitly to override)")
    _warn_cost(bound, default, "default")


def _warn_cost(bound: int, default: int, what: str) -> None:
    """Warn on stderr when --max-size raises a bound above its default."""
    if bound > default:
        print(f"warning: --max-size {bound} above {what} {default}; "
              "this may take a long time", file=sys.stderr)


def _jsonable(value: Fraction):
    return (value.numerator if value.denominator == 1
            else {"num": value.numerator, "den": value.denominator})


def _partitions(args, *flags: str) -> tuple[list[Partition], dict]:
    """The partitions given by the named flags, in order, and their --json
    echo {flag: parts}."""
    parts = [_parse(Partition, getattr(args, flag), f"--{flag}") for flag in flags]
    return parts, {flag: list(p.parts) for flag, p in zip(flags, parts)}


def _emit(args, inputs: dict, results, lines: list[str], **extra) -> None:
    """Print the plain lines, or with --json the document
    {command, inputs, results, **extra}."""
    if args.json:
        doc = {"command": args.command, "inputs": inputs, "results": results, **extra}
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _terms(v: ca.ClassVector) -> list[dict]:
    return [{"coeff": _jsonable(c), "partition": list(p.parts)} for p, c in v.items()]


def _vector_lines(v: ca.ClassVector, basis: str) -> list[str]:
    """One line per term; the zero vector prints as 0."""
    return [f"{c} {basis}({p})" for p, c in v.items()] or ["0"]


def _cmd_mult(args) -> int:
    """mult: the product through multiply, the one truncation path;
    --basis a rescales each of its terms through f_constant."""
    (lhs, rhs), inputs = _partitions(args, "lhs", "rhs")
    _check_size(args, lhs.size() + rhs.size(), "|lhs|+|rhs|")
    v = ca.multiply(ca.ClassVector.basis(lhs), ca.ClassVector.basis(rhs), args.n)
    if args.basis == "a":
        v = ca.ClassVector({rho: ca.f_constant(lhs, rhs, rho) for rho in v.nums}, args.n)
    _emit(args, {"basis": args.basis, **inputs, "n": args.n},
          _terms(v), _vector_lines(v, args.basis))
    return 0


def _cmd_constant(args) -> int:
    """gconst and fconst: one value of the structure-constant function bound
    to the subcommand."""
    (sigma, tau, rho), inputs = _partitions(args, "sigma", "tau", "rho")
    _check_size(args, sigma.size() + tau.size(), "|sigma|+|tau|")
    value = args.constant(sigma, tau, rho)
    _emit(args, inputs, value, [str(value)])
    return 0


def _cmd_qpoly(args) -> int:
    (sigma, tau, rho), inputs = _partitions(args, "sigma", "tau", "rho")
    _check_size(args, sigma.size() + tau.size(), "|sigma|+|tau|")
    q = ca.q_polynomial(sigma, tau, rho)
    _emit(args, inputs, {"coeffs": list(q.coeffs), "monomial": q.monomial_string()},
          ["[" + ",".join(str(c) for c in q.coeffs) + "]", q.monomial_string()])
    return 0


def _cmd_csn_mult(args) -> int:
    (sigma, tau), inputs = _partitions(args, "sigma", "tau")
    _check_size(args, sigma.size() + tau.size(), "|sigma|+|tau|")
    v = ca.convolve_C_classes(sigma, tau, args.n)
    _emit(args, {**inputs, "n": args.n}, _terms(v), _vector_lines(v, "C"))
    return 0


def _cmd_fillings_conv(args) -> int:
    from .fillings import Filling, convolve
    s = _parse(Filling, args.lhs, "--lhs")
    t = _parse(Filling, args.rhs, "--rhs")
    r = convolve(s, t)
    _emit(args, {"lhs": str(s), "rhs": str(t)},
          {"filling": str(r), "rows": [list(row) for row in r.rows]}, [str(r)])
    return 0


def _cmd_fillings_count(args) -> int:
    from .fillings import FILLINGS_DEFAULT_MAX, enumerate_F
    (sigma, tau, rho), inputs = _partitions(args, "sigma", "tau", "rho")
    _check_size(args, max(sigma.size(), tau.size()), "max(|sigma|,|tau|)",
                FILLINGS_DEFAULT_MAX)
    count = len(enumerate_F(sigma, tau, rho))
    _emit(args, inputs, count, [str(count)])
    return 0


def _cmd_shifted(args) -> int:
    """peval and sstar: the shifted function bound to the subcommand (p# or
    s*) of the partition given by the flag args.index (rho or mu), at --lam."""
    (index, lam), inputs = _partitions(args, args.index, "lam")
    _check_size(args, max(index.size(), lam.size()), f"|{args.index}| or |lambda|")
    value = args.shifted(index, lam)
    _emit(args, inputs, _jsonable(value), [str(value)])
    return 0


def _parse_term(text: str) -> tuple[Fraction, Partition]:
    coeff_text, sep, part_text = text.partition(":")
    if not sep:
        raise ValueError(
            f"malformed term {text!r}: expected '<coeff>:<partition>'")
    try:
        coeff = Fraction(coeff_text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed coefficient in term {text!r}") from exc
    return coeff, _parse(Partition, part_text, "--term")


def _cmd_feval(args) -> int:
    (lam,), inputs = _partitions(args, "lam")
    terms: dict[Partition, Fraction] = {}
    for chunk in args.term:
        coeff, rho = _parse_term(chunk)
        terms[rho] = terms.get(rho, Fraction(0)) + coeff
    sizes = [p.size() for p in terms] + [lam.size()]
    _check_size(args, max(sizes, default=0), "largest partition")
    v = ca.ClassVector(terms)
    value = F_eval(v, lam)
    _emit(args, {**inputs, "terms": _terms(v)}, _jsonable(value), [str(value)])
    return 0


def _cmd_verify(args) -> int:
    from . import verify as vf
    options = {}
    if args.max_size is not None:
        bound = vf.size_bound(args.suite)
        if bound is None:
            raise ValueError(f"suite {args.suite!r} does not take --max-size")
        if args.max_size < bound.default:
            raise ValueError(
                f"--max-size {args.max_size} below suite default {bound.default}; "
                "it can only raise a suite's bound")
        _warn_cost(args.max_size, bound.default, "suite default")
        options = {bound.name: args.max_size}
    result = vf.run_suite(args.suite, **options)
    extra = {"ok": result.ok}
    failures = [c.line() for c in result.checks if not c.ok]
    if failures:
        extra["violations"] = failures
    _emit(args, {"suite": args.suite, "max_size": args.max_size},
          [{"label": c.label, "ok": c.ok, "detail": c.detail} for c in result.checks],
          result.lines(), **extra)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classconv",
        description="Exact conjugacy-class convolution via partial permutations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags, sized=True, **defaults):
        """A subcommand with --json, the required string flags and, if sized,
        --max-size, whose default bound the handler reads when it runs."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        for flag in flags:
            p.add_argument(flag, required=True)
        if sized:
            p.add_argument("--max-size", type=int, default=None)
        p.set_defaults(func=func, **defaults)
        return p

    p = add("mult", _cmd_mult, "expand a product of basis classes", ["--lhs", "--rhs"])
    p.add_argument("--basis", choices=["A", "a"], default="A")
    p.add_argument("--n", type=int, default=None, help="truncation level")
    triple = ["--sigma", "--tau", "--rho"]
    add("gconst", _cmd_constant, "compute one gconst value", triple, constant=ca.g_constant)
    add("fconst", _cmd_constant, "compute one fconst value", triple, constant=ca.f_constant)
    add("qpoly", _cmd_qpoly, "compute one qpoly value", triple)
    p = add("csn-mult", _cmd_csn_mult, "convolve conjugacy classes of S_n",
            ["--sigma", "--tau"])
    p.add_argument("--n", type=int, required=True)
    add("fillings-conv", _cmd_fillings_conv, "convolve two fillings", ["--lhs", "--rhs"],
        sized=False)
    add("fillings-count", _cmd_fillings_count, "count filling pairs realizing a product",
        triple)
    add("peval", _cmd_shifted, "evaluate a shifted power sum at a partition",
        ["--rho", "--lam"], shifted=p_sharp, index="rho")
    add("sstar", _cmd_shifted, "evaluate a shifted Schur value at a partition",
        ["--mu", "--lam"], shifted=s_star, index="mu")
    p = add("feval", _cmd_feval, "evaluate the isomorphism on a class vector", ["--lam"])
    p.add_argument("--term", action="append", default=[],
                   help="repeatable '<coeff>:<partition>' summand; write a negative "
                        "coefficient as --term=-1:2, since argparse reads a separate "
                        "value that starts with '-' as an option")
    add("verify", _cmd_verify, "run a verification suite", ["--suite"])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
