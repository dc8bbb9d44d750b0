"""Pinned classconv command lines and their exact standard output.

Tier-1 runs every row through classconv.cli.main (tests/test_cli.py).  Run
as a script, this file runs every row through the installed `classconv`
console script instead, from any directory, and exits nonzero if any
output differs:

    python tests/cli_pins.py
"""

import subprocess
import sys

PINS: list[tuple[list[str], str]] = [
    (["gconst", "--sigma", "2", "--tau", "2", "--rho", "3"], "3\n"),
    (["fconst", "--sigma", "2", "--tau", "2", "--rho", "3"], "4\n"),
    (["qpoly", "--sigma", "3", "--tau", "3", "--rho", "3"],
     "[1,3]\n"
     "3n-8\n"),
    (["csn-mult", "--sigma", "3", "--tau", "3", "--n", "4"],
     "8 C()\n"
     "4 C(3)\n"
     "8 C(2,2)\n"),
    (["csn-mult", "--sigma", "3", "--tau", "3", "--n", "3"],
     "2 C()\n"
     "1 C(3)\n"),
    (["fillings-count", "--sigma", "2", "--tau", "2", "--rho", "3"], "4\n"),
    (["fillings-conv", "--lhs", "3,4,5,6,9;2,1,7", "--rhs", "4,3,2;1,9,6;8"],
     "5,6,7,2;3,1;4;9;8\n"),
    (["feval", "--lam", "3,1", "--term", "1:2", "--term", "1/2:1,1"], "5\n"),
    (["feval", "--lam", "3,1", "--term", "1/3:1"], "4/3\n"),
    (["peval", "--rho", "2", "--lam", "2,1"], "0\n"),
    (["sstar", "--mu", "2", "--lam", "3,1"], "8\n"),
    # F sums one numerator over a common denominator: mixed
    # denominators, a negative coefficient, a term beyond |lam|, the unit
    (["feval", "--lam", "4,2", "--term", "1/2:2", "--term=-2/3:1,1", "--term", "5:7"], "-15/2\n"),
    (["feval", "--lam", "4,2", "--term", "3/4:3", "--term", "1/6:2,2", "--term=-1:"], "-1/6\n"),
    (["sstar", "--mu", "2,1", "--lam", "4,2"], "40\n"),
    (["mult", "--lhs", "2", "--rhs", "2"],
     "1 A(1,1)\n"
     "3 A(3)\n"
     "2 A(2,2)\n"),
    # truncated below |lhs|+|rhs|: the (2,2) term is cut
    (["mult", "--lhs", "2", "--rhs", "2", "--n", "3"],
     "1 A(1,1)\n"
     "3 A(3)\n"),
    # the psi sum merges the classes of each proper part
    (["csn-mult", "--sigma", "2,2", "--tau", "3", "--n", "6"],
     "9 C(3)\n"
     "8 C(2,2)\n"
     "5 C(5)\n"
     "4 C(4,2)\n"),
    # the moved-points triangle prunes (1,1,1,1) at level 4 here
    (["mult", "--lhs", "3,1", "--rhs", "2,2"],
     "3 A(3,1)\n"
     "10 A(5)\n"
     "6 A(3,1,1)\n"
     "8 A(2,2,1)\n"
     "5 A(5,1)\n"
     "12 A(4,2)\n"
     "8 A(2,2,1,1)\n"
     "4 A(4,2,1)\n"
     "4 A(3,2,2)\n"
     "1 A(3,2,2,1)\n"),
    # the a basis rescales the truncated A-basis product (README's example)
    (["mult", "--basis", "a", "--lhs", "3", "--rhs", "3", "--n", "5"],
     "3 a(3)\n"
     "3 a(1,1,1)\n"
     "9 a(3,1)\n"
     "9 a(2,2)\n"
     "9 a(5)\n"),
    (["mult", "--basis", "a", "--lhs", "3,1", "--rhs", "2,2", "--n", "6"],
     "24 a(3,1)\n"
     "48 a(5)\n"
     "24 a(3,1,1)\n"
     "24 a(2,2,1)\n"
     "24 a(5,1)\n"
     "36 a(4,2)\n"
     "12 a(2,2,1,1)\n"),
    # a factor of size 1: both levels come from closed forms
    (["mult", "--lhs", "1", "--rhs", "3,2"],
     "5 A(3,2)\n"
     "1 A(3,2,1)\n"),
    # character levels 5 to 7, the closed-form level 8, the top level cut off
    (["mult", "--basis", "a", "--lhs", "3,2", "--rhs", "2,2", "--n", "8"],
     "48 a(4,1)\n"
     "48 a(3,2)\n"
     "24 a(2,1,1,1)\n"
     "144 a(6)\n"
     "24 a(4,1,1)\n"
     "72 a(3,2,1)\n"
     "48 a(5,2)\n"
     "56 a(4,3)\n"
     "4 a(3,2,1,1)\n"
     "12 a(2,2,2,1)\n"
     "12 a(4,2,2)\n"
     "8 a(3,3,2)\n"),
    # truncated below every term: the zero vector
    (["mult", "--lhs", "2", "--rhs", "2", "--n", "0"], "0\n"),
    (["mult", "--basis", "a", "--lhs", "2,1", "--rhs", "2", "--n", "4", "--json"],
     "{\n"
     '  "command": "mult",\n'
     '  "inputs": {\n'
     '    "basis": "a",\n'
     '    "lhs": [\n'
     "      2,\n"
     "      1\n"
     "    ],\n"
     '    "rhs": [\n'
     "      2\n"
     "    ],\n"
     '    "n": 4\n'
     "  },\n"
     '  "results": [\n'
     "    {\n"
     '      "coeff": 4,\n'
     '      "partition": [\n'
     "        3\n"
     "      ]\n"
     "    },\n"
     "    {\n"
     '      "coeff": 2,\n'
     '      "partition": [\n'
     "        1,\n"
     "        1,\n"
     "        1\n"
     "      ]\n"
     "    },\n"
     "    {\n"
     '      "coeff": 4,\n'
     '      "partition": [\n'
     "        3,\n"
     "        1\n"
     "      ]\n"
     "    },\n"
     "    {\n"
     '      "coeff": 2,\n'
     '      "partition": [\n'
     "        2,\n"
     "        2\n"
     "      ]\n"
     "    }\n"
     "  ]\n"
     "}\n"),
]


def main() -> int:
    failed = 0
    for argv, want in PINS:
        got = subprocess.run(["classconv", *argv], capture_output=True, text=True, check=False)
        if got.returncode or got.stdout != want:
            failed += 1
            print(f"FAIL classconv {' '.join(argv)} (exit {got.returncode})\n"
                  f"  want {want!r}\n  got  {got.stdout!r}\n{got.stderr}", file=sys.stderr)
    print(f"{len(PINS) - failed}/{len(PINS)} pinned command lines match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
