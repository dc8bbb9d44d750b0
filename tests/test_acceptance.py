"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line (visible with `pytest -s`); the
elapsed time is reported for comparison against the documented budgets
but never asserted, since wall-clock limits depend on the host.
"""

from classconv import verify


def _run(criterion: str, suites: list[verify.SuiteResult]) -> None:
    elapsed = sum(s.elapsed for s in suites)
    ok = all(s.ok for s in suites)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    if not ok:
        for s in suites:
            for c in s.checks:
                if not c.ok:
                    print(f"  failed: {c.line()}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_section6_product_and_truncations():
    _run("1 section-6 product and truncations", [verify.run_suite("section6")])


def test_criterion_2_and_3_section11_tables():
    result = verify.run_suite("section11")
    a_rows = [c for c in result.checks if c.label.startswith("a(")]
    assert len(a_rows) == 17
    _run("2+3 section-11 a-table and C-class rows", [result])


def test_criterion_4_oracle_equivalence():
    _run("4 oracle equivalence up to total size 7", [verify.run_suite("oracle", max_total=7)])


def test_criterion_5_fillings():
    _run("5 filling counts and worked example", [verify.run_suite("fillings", max_size=4)])


def test_criterion_6_isomorphism():
    _run("6 evaluation isomorphism", [verify.run_suite("homomorphism")])


def test_criterion_7_filtrations():
    _run("7 filtrations and gamma inequalities",
         [verify.run_suite("filtrations", bound=5), verify.run_suite("gamma", K=8)])


def test_criterion_8_counting_identities():
    _run("8 counting identities and semisimplicity checks",
         [verify.run_suite("semigroup", max_n=3)])
