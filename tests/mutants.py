"""Mutants of the package that the tier-1 tests must kill.

Each row of MUTANTS names a source file under src/classconv, a text that
occurs in it exactly once, the text that replaces it, and the test (a
pytest node id under tests/) that must fail once the change is made.
Run as a script, from any directory:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml to a temporary directory and
runs every named test there unmutated, where each must pass.  Then, for
each row, it makes a fresh copy, applies the one change and runs the
named test with PYTHONPATH at the copy; the mutant is killed when the
test fails (pytest exit status 1).  The script exits 1 if a named test
fails unmutated, a text does not occur exactly once, or a mutant
survives.  A new route adds its own rows.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOP_LEVELS = "test_class_algebra.py::test_top_levels_match_characters_beyond_counted_guard"

MUTANTS: list[tuple[str, str, str, str]] = [
    # F_eval evaluates a vector truncated below |lam|
    ("characters.py", "if v.level is not None and v.level < n:", "if False:",
     "test_characters.py::test_F_eval_refuses_truncated_vector_above_its_level"),
    # class vectors skip reducing to lowest terms
    ("class_vector.py", "g = gcd(den, *nums.values())", "g = 1",
     "test_class_algebra.py::test_class_vector_canonical_form"),
    # level s+t-1 drops the joins through tau's first cycle
    ("class_algebra.py", "for b, l in enumerate(pt):", "for b, l in enumerate(pt[1:], 1):",
     TOP_LEVELS),
    # level s+t-1 weighs a join by k+l-1 instead of k l
    ("class_algebra.py", "counts.get(mu, 0) + k * l", "counts.get(mu, 0) + k + l - 1",
     TOP_LEVELS),
    # level s+t counts sigma u tau twice
    ("class_algebra.py", "reverse=True)): 1}", "reverse=True)): 2}", TOP_LEVELS),
    # the character levels divide by (m-s)!^2 instead of (m-s)!(m-t)!
    ("class_algebra.py", "factorial(m - s) * factorial(m - t)",
     "factorial(m - s) * factorial(m - s)", TOP_LEVELS),
    # the character levels drop the Cayley floor |deg3 sigma - deg3 tau|
    ("class_algebra.py", "deg3s = range(max(abs(d3s - d3t), ",
     "deg3s = range(max((d3s + d3t) % 2, ",
     "test_class_algebra.py::test_product_builds_only_factor_and_allowed_columns"),
    # the length floor l(mu) <= l(sigma) + l(tau) + d - 2 is tightened by one part
    ("class_algebra.py", "d3s + d3t - 2 * (s + t - m) + 2)", "d3s + d3t - 2 * (s + t - m) + 4)",
     "test_class_algebra.py::test_route_pinned_bit_for_bit"),
    # g_table keys each pair with the larger parts tuple first
    ("class_algebra.py", "table[(b, a) if b.parts < a.parts else (a, b)]",
     "table[(a, b) if b.parts < a.parts else (b, a)]",
     "test_class_algebra.py::test_g_table_keys_and_order"),
    # the A_(1) reduction drops the carry a old_{a-1} into A_{rho' 1^a}
    ("class_algebra.py", "chain[a] = (shift + a) * x + a * prev", "chain[a] = (shift + a) * x",
     "test_class_algebra.py::test_identity_rows_closed_form"),
    # the A_(1) reduction shifts every c of its factors (A_(1) - c) by one
    ("class_algebra.py", "factors = [*range(s, s + i), *range(t, t + j)]",
     "factors = [*range(s + 1, s + i + 1), *range(t + 1, t + j + 1)]",
     "test_class_algebra.py::test_F_multiplicative_with_unit_parts_13_to_20"),
    # the per-shape cache reads dim lam at position 0 instead of lam's
    ("characters.py", "return at, flip, _column((1,) * n)[at]",
     "return at, flip, _column((1,) * n)[0]", "test_characters.py::test_p_sharp"),
    # the column step reads a strip landing on a conjugate shape without eps
    ("characters.py", "quad = below + minus + minus + below",
     "quad = below + below + minus + minus",
     "test_characters.py::test_tables_match_beta_tuple_route"),
    # the strip tables drop the height sign: every strip counts +1
    ("characters.py", "flat.append(at[new] + odd * (((mask >> (t + 1)) & between).bit_count() & 1))",
     "flat.append(at[new])", "test_characters.py::test_strip_tables_match_border_strip_oracle"),
    # CharacterTable reads the row of a conjugate lam' without eps
    ("characters.py", "list(map(mul, eps, half[at - len(half)]))", "half[at - len(half)]",
     "test_characters.py::test_character_table_object"),
    # each run of a strip table ends one strip early
    ("characters.py", "ends.append(len(flat))", "ends.append(len(flat) - 1)",
     "test_characters.py::test_tables_match_beta_tuple_route"),
    # a single read of a conjugate shape drops eps_rho
    ("characters.py", "return -chi if (n - len(rho.parts)) & flip else chi",
     "return chi", "test_characters.py::test_conjugate_reads_carry_eps_at_15_to_20"),
    # the level table weighs a self-conjugate shape 2, as it does a pair
    ("class_algebra.py", "(1 + (_conjugate(mask) != mask)) * (factorial(m) // d)",
     "2 * (factorial(m) // d)", "test_class_algebra.py::test_level_table_hooks_and_classes"),
    # multiply takes any truncation level, a float or a negative one included
    ("class_algebra.py",
     '    if n is not None:\n        _check_int(n, "truncation level", 0)\n', "",
     "test_class_algebra.py::test_multiply_level_must_be_nonnegative_int"),
    # every construction makes a new object: a partition no longer equals itself rebuilt
    ("partitions.py", "            p = _TABLE.setdefault(parts, p)\n", "",
     "test_partitions.py::test_one_object_per_parts_tuple"),
    # the centralizer order is recomputed on every call
    ("partitions.py", "        self._z = z\n", "",
     "test_partitions.py::test_centralizer_size_computed_once"),
    # integer inputs are truncated by int() instead of refused
    ("partitions.py", "out = list(values)", "out = [int(x) for x in values]",
     "test_filtrations.py::test_gamma_entries_must_be_integers"),
    # partition enumeration reads a bool size as 0 or 1 and fails on a float
    ("partitions.py", "if type(value) is not int or low is not None and value < low:",
     "if low is not None and value < low:",
     "test_partitions.py::test_partition_sizes_must_be_integers"),
    # the ambient n of P_n, B_n and Z(B_n) may be negative: semigroup_size(-1) == 1
    ("partitions.py", " or low is not None and value < low", "",
     "test_semigroup_algebra.py::test_ambient_n_must_be_nonnegative_int"),
    # Partition.pad reads True as 1 and fails on a float with TypeError
    ("partitions.py", '        _check_int(n, "padded size", r)\n', "",
     "test_partitions.py::test_sizes_and_levels_refuse_bools_and_floats"),
    # a group algebra takes any hashable as a domain point: [True], [0, -1]
    ("semigroup_algebra.py", "self.domain = PartialPermutation.identity(domain).support",
     "self.domain = frozenset(domain)",
     "test_semigroup_algebra.py::test_group_algebra_domain_points_follow_the_support_rule"),
    # the gamma inequalities read K = True as 1 and fail on a float K with TypeError
    ("filtrations.py", '_check_int(K, "K", 1)\n    if len(g) < K:', "if len(g) < K:",
     "test_filtrations.py::test_K_and_evaluation_point_must_be_integers"),
    # class-vector and semigroup coefficients take floats and bools
    ("class_vector.py", "if type(c) is not int and not isinstance(c, Fraction):", "if False:",
     "test_class_algebra.py::test_class_vector_coefficients_must_be_int_or_fraction"),
    # fillings-count runs at any size: the CLI is the only size guard
    ("cli.py",
     '    _check_size(args, max(sigma.size(), tau.size()), "max(|sigma|,|tau|)",\n'
     "                FILLINGS_DEFAULT_MAX)\n", "", "test_cli.py::test_usage_errors"),
    # a rescaled constant that does not divide is truncated, not refused
    ("class_algebra.py", "if num % den:", "if False:",
     "test_class_algebra.py::test_guards_raise_on_a_spoiled_centralizer[f_constant]"),
    # the counted guard truncates a count that does not divide
    ("verify.py", "if rem:", "if False:",
     "test_class_algebra.py::test_guards_raise_on_a_spoiled_centralizer[counted]"),
    # the oracle reads a class off its first count without checking the rest
    ("verify.py", "if len(counts) != size or len(set(counts)) != 1:", "if False:",
     "test_class_algebra.py::test_guards_raise_on_a_spoiled_centralizer[oracle]"),
    # partitions_up_to(-1) is [], so g_table(-2) is {} and its scans pass vacuously
    ("partitions.py", '_check_int(r, "partition size", 0)\n    out: list[Partition] = []',
     '_check_int(r, "partition size")\n    out: list[Partition] = []',
     "test_partitions.py::test_enumerate_partitions"),
    # from_cycles reads a point repeated within a cycle, (2, 2), as a fixed point
    ("partial_perm.py", "                m[x] = x\n", "",
     "test_partial_perm.py::test_from_cycles_singletons_are_fixed_points"),
    # every lower bound reads as 0: evaluate takes a point below |base|
    ("partitions.py", "low is not None and value < low", "low is not None and value < 0",
     "test_class_algebra.py::test_binomial_polynomial_equality_and_domain"),
    # a suite that ran no check is ok
    ("verify.py", "return bool(self.checks) and all(", "return all(",
     "test_acceptance.py::test_a_suite_that_runs_no_check_is_not_ok"),
    # main reports only some ValueErrors as bad input; the rest escape as tracebacks
    ("cli.py", "        return args.func(args)\n    except ValueError as exc:",
     "        return args.func(args)\n    except UnicodeError as exc:",
     "test_cli.py::test_usage_errors"),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(f"tests/{test}" for test in tests)],
        cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        named = list(dict.fromkeys(test for *_, test in MUTANTS))
        code = _pytest(base, named)
        if code:
            print(f"FAIL the named tests do not pass unmutated (pytest exit {code})")
            return 1
        print(f"ok {len(named)} named tests pass unmutated")
        for i, (name, old, new, test) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant{i}"
            _copy(copy)
            path = copy / "src" / "classconv" / name
            text = path.read_text()
            label = f"{name}: {old!r} -> {new!r}"
            if text.count(old) != 1:
                print(f"FAIL {label}: text occurs {text.count(old)} times")
                failures += 1
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            code = _pytest(copy, [test])
            took = time.perf_counter() - start
            if code == 1:
                print(f"ok killed {label} by {test} ({took:.1f} s)")
            else:
                print(f"FAIL survived {label}: {test} exit {code} ({took:.1f} s)")
                failures += 1
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
