"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line (visible with `pytest -s`); the
elapsed time is reported for comparison against the documented budgets
but never asserted, since wall-clock limits depend on the host.  Then
each suite is shown failing once the route it checks is spoiled.
"""

import pytest

from classconv import class_algebra as ca
from classconv import verify
from classconv.partitions import Partition

P = lambda *parts: Partition(parts)


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


def _bump_first(vector: ca.ClassVector) -> ca.ClassVector:
    """The class vector with its first coefficient raised by one."""
    rho = next(iter(vector.terms))
    return ca.ClassVector({**vector.terms, rho: vector.terms[rho] + 1}, vector.level)


def _wrap(owner, name: str, spoil):
    """A spoiler replacing owner.name by spoil(the real owner.name)."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, spoil(getattr(owner, name)))


BUMPED_MULTIPLY = _wrap(ca, "multiply",
                        lambda real: lambda u, v, n=None: _bump_first(real(u, v, n)))


@pytest.mark.parametrize("suite, options, spoiler, first_failure", [
    ("section6", {}, BUMPED_MULTIPLY,
     "FAIL A(2)*A(2) stable (got {(1,1): 2, (3): 3, (2,2): 2})"),
    ("section11", {}, _wrap(ca, "product_expansion_a", lambda real: lambda s, t: {
        rho: g + (i == 0) for i, (rho, g) in enumerate(real(s, t).items())}),
     "FAIL a(2)*a(2) (got {(1,1): 3, (3): 4, (2,2): 1})"),
    # the A(3)*A(3) row itself, since its one route also feeds the a rows
    ("section11", {}, lambda monkeypatch: monkeypatch.setitem(verify.SECTION11_A33, (3,), 2),
     "FAIL A(3)*A(3) (got {(3): 1, (1,1,1): 2, (3,1): 3, (2,2): 8, (5): 5, (3,3): 2})"),
    ("section11", {}, _wrap(ca, "convolve_C_classes",
                            lambda real: lambda s, t, n: _bump_first(real(s, t, n))),
     "FAIL C(3)*C(3) in S_3 (got {(): 2, (3): 2})"),
    # the polynomial of (2,2) read off that of (5)
    ("section11", {}, _wrap(ca, "q_polynomial",
                            lambda real: lambda s, t, r: real(s, t, P(5) if r == P(2, 2) else r)),
     "FAIL q C(3)*C(3) -> C(2,2) = 5 (got [5])"),
    ("fillings", {"max_size": 2}, _wrap(ca, "f_constant", lambda real: lambda s, t, r: (
        real(s, t, r) + ((s, t, r) == (P(2), P(2), P(3))))),
     "FAIL |F| = f for |sigma|=2, |tau|=2 "
     "(failed [(Partition((2,)), Partition((2,)), Partition((3,)))])"),
    ("homomorphism", {"max_factor": 2}, BUMPED_MULTIPLY,
     "FAIL F(A_sigma A_tau) = F(A_sigma) F(A_tau), |sigma|,|tau| <= 2, |lambda| <= 4 "
     "(failed [(Partition(()), Partition(()), Partition(())), "),
    ("homomorphism", {"max_factor": 2}, _wrap(verify, "s_star",
                                              lambda real: lambda mu, lam: real(mu, lam) + 1),
     "FAIL F(x_mu) = s*_mu for |mu| <= 3, |lambda| <= 5 (failed [(Partition(()), Partition(())), "),
    # one value of s* off the vanishing theorem, at |mu| = |lambda|
    ("homomorphism", {"max_factor": 2}, _wrap(verify, "s_star", lambda real: lambda mu, lam: (
        real(mu, lam) + ((mu, lam) == (P(4), P(2, 2))))),
     "FAIL s*_mu(lambda) = 0 exactly when mu is not inside lambda, |mu| <= |lambda| <= 5 "
     "(failed [(Partition((4,)), Partition((2, 2)))])"),
    ("semigroup", {"max_n": 1}, _wrap(verify, "phi_x", lambda real: lambda e, x: 2 * real(e, x)),
     "FAIL phi_x multiplicative on all basis pairs, n <= 1 (failed [(0, frozenset()), "),
    # phi_x vanishing at the empty set only
    ("semigroup", {"max_n": 1}, _wrap(verify, "phi_x",
                                      lambda real: lambda e, x: real(e, x) if x else 0 * real(e, x)),
     "FAIL phi-vanishing equivalence over structured elements, n <= 1 "
     "(failed [(0, frozenset()), "),
], ids=["section6", "section11-a", "section11-A-row", "section11-C", "section11-q", "fillings",
        "homomorphism-product", "homomorphism-s_star", "homomorphism-vanishing",
        "semigroup-product",
        "semigroup-vanishing"])
def test_each_suite_fails_on_a_spoiled_route(monkeypatch, suite, options, spoiler,
                                              first_failure):
    spoiler(monkeypatch)
    result = verify.run_suite(suite, **options)
    assert not result.ok
    assert next(c.line() for c in result.checks if not c.ok).startswith(first_failure)


def test_a_suite_that_runs_no_check_is_not_ok():
    # a negative bound once read as no partitions, so suites passed on nothing
    result = verify.run_suite("oracle", max_total=-1)
    assert result.checks == [] and not result.ok
    with pytest.raises(ValueError, match="partition size must be a nonnegative integer, got -1"):
        verify.run_suite("filtrations", bound=-1)
