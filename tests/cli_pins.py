"""Pinned classconv command lines and their exact standard output.

Tier-1 runs every row through classconv.cli.main (tests/test_cli.py).  Run
as a script, this file runs every row through the installed `classconv`
console script instead, from any directory, and exits nonzero if any
output differs.  Both compare the output through masked(), which hides
only the elapsed time on a verify suite's summary line.  The script also
runs `mult --lhs 6 --rhs 6` in a fresh interpreter and fails if it
imported any module of NOT_FOR_MULT, the list tests/test_imports.py
checks against the source tree:

    python tests/cli_pins.py
"""

import json
import re
import subprocess
import sys

# modules that mult never runs: the suites with their tables and guards,
# the other subsystems and the stdlib modules only they need
NOT_FOR_MULT = ["classconv.verify", "classconv.fillings", "classconv.filtrations",
                "classconv.semigroup_algebra", "classconv.partial_perm", "inspect",
                "dataclasses"]

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
    # read off the proper pair (3)(2,2) through A_(1)
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
    # each verify suite at its default bound; masked() stands * for the
    # elapsed time on the summary line
    (["verify", "--suite", "section6"],
     "ok A(2)*A(2) stable\n"
     "ok A(2)*A(2) in A_2\n"
     "ok A(2)*A(2) in A_3\n"
     "ok A(2)*A(2) in A_4\n"
     "suite section6: 4/4 checks passed in *s\n"),
    (["verify", "--suite", "section11"],
     "ok a(2)*a(2)\n"
     "ok a(3)*a(2)\n"
     "ok a(4)*a(2)\n"
     "ok a(2,2)*a(2)\n"
     "ok a(3)*a(3)\n"
     "ok a(5)*a(2)\n"
     "ok a(3,2)*a(2)\n"
     "ok a(4)*a(3)\n"
     "ok a(2,2)*a(3)\n"
     "ok a(6)*a(2)\n"
     "ok a(4,2)*a(2)\n"
     "ok a(3,3)*a(2)\n"
     "ok a(2,2,2)*a(2)\n"
     "ok a(5)*a(3)\n"
     "ok a(3,2)*a(3)\n"
     "ok a(4)*a(4)\n"
     "ok a(2,2)*a(2,2)\n"
     "ok A(3)*A(3)\n"
     "ok C(3)*C(3) in S_3\n"
     "ok C(3)*C(3) in S_4\n"
     "ok C(3)*C(3) in S_5\n"
     "ok C(3)*C(3) in S_6\n"
     "ok q C(3)*C(3) -> C(3,3) = 2\n"
     "ok q C(3)*C(3) -> C(5) = 5\n"
     "ok q C(3)*C(3) -> C(2,2) = 8\n"
     "ok q C(3)*C(3) -> C(3) = 3n-8\n"
     "ok q C(3)*C(3) -> C() = n^3/3-n^2+2n/3\n"
     "ok no unlisted classes in C(3)*C(3)\n"
     "suite section11: 28/28 checks passed in *s\n"),
    (["verify", "--suite", "filtrations"],
     "ok g_table(5) equals the counted guard, keys in order\n"
     "ok deg1 is a filtration at bound 5\n"
     "ok deg2 is a filtration at bound 5\n"
     "ok deg3 is a filtration at bound 5\n"
     "ok theta_J{} is a filtration at bound 5\n"
     "ok theta_J{1} is a filtration at bound 5\n"
     "ok theta_J{2} is a filtration at bound 5\n"
     "ok theta_J{1,2} is a filtration at bound 5\n"
     "ok theta_J{1,3} is a filtration at bound 5\n"
     "ok cycle-count degree fails at sigma=(4) tau=(5) rho=(2,2,2) (4 violations found)\n"
     "suite filtrations: 10/10 checks passed in *s\n"),
    (["verify", "--suite", "homomorphism"],
     "ok F(A_sigma A_tau) = F(A_sigma) F(A_tau), |sigma|,|tau| <= 4, |lambda| <= 8 (9648 evaluations)\n"
     "ok F(x_mu) = s*_mu for |mu| <= 3, |lambda| <= 5\n"
     "ok s*_mu(lambda) = 0 for |mu| > |lambda|, |mu| <= 5\n"
     "suite homomorphism: 3/3 checks passed in *s\n"),
    (["verify", "--suite", "fillings"],
     "ok worked convolution example\n"
     "ok |F| = f for |sigma|=0, |tau|=0 (1 triples)\n"
     "ok |F| = f for |sigma|=0, |tau|=1 (1 triples)\n"
     "ok |F| = f for |sigma|=0, |tau|=2 (4 triples)\n"
     "ok |F| = f for |sigma|=0, |tau|=3 (9 triples)\n"
     "ok |F| = f for |sigma|=0, |tau|=4 (25 triples)\n"
     "ok |F| = f for |sigma|=1, |tau|=0 (1 triples)\n"
     "ok |F| = f for |sigma|=1, |tau|=1 (3 triples)\n"
     "ok |F| = f for |sigma|=1, |tau|=2 (10 triples)\n"
     "ok |F| = f for |sigma|=1, |tau|=3 (24 triples)\n"
     "ok |F| = f for |sigma|=1, |tau|=4 (60 triples)\n"
     "ok |F| = f for |sigma|=2, |tau|=0 (4 triples)\n"
     "ok |F| = f for |sigma|=2, |tau|=1 (10 triples)\n"
     "ok |F| = f for |sigma|=2, |tau|=2 (40 triples)\n"
     "ok |F| = f for |sigma|=2, |tau|=3 (90 triples)\n"
     "ok |F| = f for |sigma|=2, |tau|=4 (230 triples)\n"
     "ok |F| = f for |sigma|=3, |tau|=0 (9 triples)\n"
     "ok |F| = f for |sigma|=3, |tau|=1 (24 triples)\n"
     "ok |F| = f for |sigma|=3, |tau|=2 (90 triples)\n"
     "ok |F| = f for |sigma|=3, |tau|=3 (234 triples)\n"
     "ok |F| = f for |sigma|=3, |tau|=4 (570 triples)\n"
     "ok |F| = f for |sigma|=4, |tau|=0 (25 triples)\n"
     "ok |F| = f for |sigma|=4, |tau|=1 (60 triples)\n"
     "ok |F| = f for |sigma|=4, |tau|=2 (230 triples)\n"
     "ok |F| = f for |sigma|=4, |tau|=3 (570 triples)\n"
     "ok |F| = f for |sigma|=4, |tau|=4 (1500 triples)\n"
     "suite fillings: 26/26 checks passed in *s\n"),
    (["verify", "--suite", "oracle"],
     "ok |sigma|+|tau| = 0 (n = 0) (1 pairs)\n"
     "ok |sigma|+|tau| = 1 (n = 1) (2 pairs)\n"
     "ok |sigma|+|tau| = 2 (n = 2) (5 pairs)\n"
     "ok |sigma|+|tau| = 3 (n = 3) (10 pairs)\n"
     "ok |sigma|+|tau| = 4 (n = 4) (20 pairs)\n"
     "ok |sigma|+|tau| = 5 (n = 5) (36 pairs)\n"
     "ok |sigma|+|tau| = 6 (n = 6) (65 pairs)\n"
     "ok |sigma|+|tau| = 7 (n = 7) (110 pairs)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 0 (1 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 1 (2 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 2 (4 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 3 (7 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 4 (12 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 5 (19 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 6 (30 rows)\n"
     "ok A(1^k)*A(rho) closed form, k+|rho| = 7 (45 rows)\n"
     "suite oracle: 16/16 checks passed in *s\n"),
    (["verify", "--suite", "gamma"],
     "ok gamma inequalities for deg1 up to K=8\n"
     "ok gamma_1 <= 2 L <= 2 gamma_2 for deg1 (L proxy 9/8)\n"
     "ok gamma inequalities for deg2 up to K=8\n"
     "ok gamma_1 <= 2 L <= 2 gamma_2 for deg2 (L proxy 9/8)\n"
     "ok gamma inequalities for deg3 up to K=8\n"
     "ok gamma_1 <= 2 L <= 2 gamma_2 for deg3 (L proxy 1)\n"
     "ok decreasing start is flagged\n"
     "suite gamma: 7/7 checks passed in *s\n"),
    (["verify", "--suite", "semigroup"],
     "ok semigroup sizes s_0..s_4 = 1,2,5,16,65 by enumeration\n"
     "ok recurrence s_n = n s_{n-1} + 1 and formula agree\n"
     "ok dim Z(B_n) formula matches pair counting, n <= 6\n"
     "ok phi-vanishing equivalence over structured elements, n <= 3\n"
     "ok phi_x multiplicative on all basis pairs, n <= 3\n"
     "suite semigroup: 5/5 checks passed in *s\n"),
]


def masked(out: str) -> str:
    """out with the elapsed time of each verify summary line replaced by *."""
    return re.sub(r"^(suite \S+: \d+/\d+ checks passed in )\d+\.\ds$", r"\1*s", out,
                  flags=re.M)


def main() -> int:
    failed = 0
    for argv, want in PINS:
        got = subprocess.run(["classconv", *argv], capture_output=True, text=True, check=False)
        if got.returncode or masked(got.stdout) != want:
            failed += 1
            print(f"FAIL classconv {' '.join(argv)} (exit {got.returncode})\n"
                  f"  want {want!r}\n  got  {got.stdout!r}\n{got.stderr}", file=sys.stderr)
    print(f"{len(PINS) - failed}/{len(PINS)} pinned command lines match")
    code = ("import json, sys\nfrom classconv.cli import main\n"
            "code = main(['mult', '--lhs', '6', '--rhs', '6'])\n"
            f"print(json.dumps([code, [m for m in {NOT_FOR_MULT!r} if m in sys.modules]]))")
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    result = got.stdout.splitlines()[-1:]
    if got.returncode or json.loads(result[0]) != [0, []]:
        print(f"FAIL mult --lhs 6 --rhs 6 in a fresh interpreter (exit {got.returncode}): "
              f"[exit code, modules it does not run] = {result}\n{got.stderr}", file=sys.stderr)
        return 1
    print(f"mult --lhs 6 --rhs 6 imports none of the {len(NOT_FOR_MULT)} modules it does not run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
