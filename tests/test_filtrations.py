from fractions import Fraction
from itertools import combinations

import pytest

from classconv import filtrations
from classconv.class_algebra import BinomialPolynomial, g_table, product_expansion, q_polynomial
from classconv.filtrations import (DegreeFunction, GammaViolation, Violation,
                                   check_filtration, check_gamma_inequalities,
                                   limit_ratio)
from classconv.partial_perm import PartialPermutation, product
from classconv.partitions import Partition, partitions_up_to
from classconv.verify import product_expansion_counted

P = lambda *parts: Partition(parts)
DEG1, DEG2, DEG3 = DegreeFunction.deg1(), DegreeFunction.deg2(), DegreeFunction.deg3()


def test_degree_examples():
    assert DegreeFunction.deg1()(P(3, 1, 1)) == 5
    assert DegreeFunction.deg2()(P(3, 1, 1)) == 7
    assert DegreeFunction.deg3()(P(2, 2, 2)) == 3
    assert DegreeFunction.theta_J({1, 3})(P(3, 3, 1)) == 10
    with pytest.raises(ValueError):
        DegreeFunction.additive((1, 2))(P(3))
    assert [DEG1.label(), DegreeFunction.theta_J({3, 1}).label(),
            repr(DegreeFunction.additive((0, 1)))] == [
        "deg1", "theta_J{1,3}", "DegreeFunction(additive(0,1))"]


def test_gamma_forms_match_named_degrees():
    assert DEG1.gammas(8) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert DEG2.gammas(8) == (2, 2, 3, 4, 5, 6, 7, 8)
    assert DEG3.gammas(8) == (0, 1, 2, 3, 4, 5, 6, 7)
    assert DegreeFunction.theta_J({2, 5}).gammas(6) == (1, 3, 3, 4, 6, 6)
    assert DegreeFunction.additive((4, 0, 7)).gammas(3) == (4, 0, 7)
    with pytest.raises(ValueError, match="need index 4, have 3"):
        DegreeFunction.additive((4, 0, 7)).gammas(4)
    d1 = DegreeFunction.additive(DEG1.gammas(8))
    d2 = DegreeFunction.additive(DEG2.gammas(8))
    d3 = DegreeFunction.additive(DEG3.gammas(8))
    for rho in partitions_up_to(8):
        assert DEG1(rho) == rho.size()
        assert DEG2(rho) == rho.size() + rho.multiplicity(1)
        assert DEG3(rho) == rho.size() - rho.length()
        assert d1(rho) == DegreeFunction.deg1()(rho)
        assert d2(rho) == DegreeFunction.deg2()(rho)
        assert d3(rho) == DegreeFunction.deg3()(rho)
        assert DegreeFunction.theta_J(set())(rho) == DegreeFunction.deg1()(rho)
        assert DegreeFunction.theta_J({1})(rho) == DegreeFunction.deg2()(rho)


def test_standard_filtrations_clean_at_bound_4(monkeypatch):
    # the production table only evaluates the classes deg2 and deg3 allow,
    # so the scan reads the counted guard, which finds every nonzero class
    monkeypatch.setattr(filtrations, "g_table", lambda bound: {
        (sigma, tau): product_expansion_counted(sigma, tau) for sigma, tau in g_table(bound)})
    for theta in [DegreeFunction.deg1(), DegreeFunction.deg2(),
                  DegreeFunction.deg3(), DegreeFunction.theta_J({2})]:
        assert check_filtration(theta, 4) == []


def test_counterexample_detected():
    bad = DegreeFunction.additive((0,) + (1,) * 9)
    violations = check_filtration(bad, 5)
    triples = {(v.sigma, v.tau, v.rho) for v in violations}
    assert (P(4), P(5), P(2, 2, 2)) in triples
    v = next(v for v in violations if (v.sigma, v.tau, v.rho)
             == (P(4), P(5), P(2, 2, 2)))
    assert v.theta_rho == 3 and v.theta_bound == 2
    assert v.line() == "sigma=4 tau=5 rho=2,2,2 theta_rho=3 bound=2"


def _check_filtration_sorting_everything(theta, bound):
    # reference order for the scan: every pair, then every expansion, sorted
    # canonically; a scan that walks g_table in its own order must match it
    out = []
    for (sigma, tau), expansion in sorted(
            g_table(bound).items(),
            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
        cap = theta(sigma) + theta(tau)
        for rho in sorted(expansion, key=Partition.sort_key):
            t = theta(rho)
            if t > cap:
                out.append(Violation(sigma, tau, rho, t, cap))
    return out


def test_scan_lists_violations_in_canonical_order():
    for expansion in g_table(5).values():
        keys = [rho.sort_key() for rho in expansion]
        assert keys == sorted(keys)
    # the cycle-count degree has a few violations; gamma_k = (k-1)^2 has
    # violations all over the table, which g_table lists out of canonical order
    cycle_count = DegreeFunction.additive((0,) + (1,) * 9)
    squared = DegreeFunction.additive(tuple(k * k for k in range(10)))
    thetas = [DEG1, DEG2, DEG3, cycle_count, squared]
    thetas += [DegreeFunction.theta_J(J) for r in range(6)
               for J in combinations(range(1, 6), r)]
    assert len(thetas) == 37
    for theta in thetas:
        assert check_filtration(theta, 5) == _check_filtration_sorting_everything(theta, 5), \
            theta.label()
    assert check_filtration(cycle_count, 5)


def test_scan_above_the_default_bound():
    # the library takes any bound; at 6 the scan still lists the violations
    # of the reference order, and only the cycle-count degree has any
    cycle_count = DegreeFunction.additive((0,) + (1,) * 11)
    counts = []
    for theta in [DEG1, DEG2, DEG3, cycle_count]:
        violations = check_filtration(theta, 6)
        assert violations == _check_filtration_sorting_everything(theta, 6), theta.label()
        counts.append(len(violations))
    assert counts == [0, 0, 0, 62]


def test_gamma_inequalities_pass_for_examples():
    for gam in [DEG1.gammas(9), DEG2.gammas(9), DEG3.gammas(9)]:
        assert check_gamma_inequalities(gam, 8) == []


def test_gamma_inequalities_violations():
    out = check_gamma_inequalities((3, 1, 4, 4, 5, 6, 7, 8), 8)
    assert any(v.rule == "monotone" for v in out)
    # constant gamma = 2 violates the inverse-cycle bound k gamma_1 <= 2 gamma_k
    out = check_gamma_inequalities((2,) * 8, 8)
    assert any(v.rule == "inverse" for v in out)
    out = check_gamma_inequalities((0, 1, 2, 3, 4, 5, 6, 100), 8)
    assert any(v.rule in {"split", "chain", "double"} for v in out)
    out = check_gamma_inequalities((-1, 0, 1, 2), 3)
    assert out[0] == GammaViolation("nonneg", (1,), 0, -1)
    assert out[0].line() == "rule nonneg at (1): 0 > -1"
    assert GammaViolation("split", (0, 2), 5, 4).line() == "rule split at (0,2): 5 > 4"
    with pytest.raises(ValueError):
        check_gamma_inequalities((1, 2), 8)
    for K in (0, -1):
        with pytest.raises(ValueError, match=f"K must be a positive integer, got {K}"):
            check_gamma_inequalities((), K)
        with pytest.raises(ValueError, match=f"K must be a positive integer, got {K}"):
            check_gamma_inequalities((1, 2, 3), K)


def test_limit_ratio():
    for K in range(1, 9):
        assert limit_ratio(DEG3.gammas(K + 1), K) == 1
        assert limit_ratio(DEG1.gammas(K + 1), K) == Fraction(K + 1, K)
    for gam in [DEG1.gammas(9), DEG2.gammas(9), DEG3.gammas(9)]:
        proxy = limit_ratio(gam, 8)
        assert Fraction(gam[0]) <= 2 * proxy <= 2 * Fraction(gam[1])
    with pytest.raises(ValueError):
        limit_ratio((1, 2, 3), 3)


def test_gamma_entries_must_be_integers():
    # truncated, [2.5, 2.2] would read as the passing [2, 2]
    with pytest.raises(ValueError, match="gamma entry must be an integer, got 2.5"):
        check_gamma_inequalities([2.5, 2.2], 2)
    with pytest.raises(ValueError, match=r"got Fraction\(3, 2\)"):
        limit_ratio((1, Fraction(3, 2)), 1)
    with pytest.raises(ValueError, match="gamma entry must be an integer, got 1.0"):
        DegreeFunction.additive((0, 1.0))
    with pytest.raises(ValueError, match="theta_J length must be an integer, got '2'"):
        DegreeFunction.theta_J({"2"})


def test_K_and_evaluation_point_must_be_integers():
    # True equals 1, so K = True would check gamma_1 alone and give the
    # proxy for K = 1; a float would fail later with TypeError
    for K in (True, 2.0):
        with pytest.raises(ValueError, match=f"K must be a positive integer, got {K!r}"):
            check_gamma_inequalities((1, 2, 3), K)
        with pytest.raises(ValueError, match=f"K must be a positive integer, got {K!r}"):
            limit_ratio((1, 2, 3), K)
    q = BinomialPolynomial(Partition(()), (1, 1))
    assert q.evaluate(1) == 2
    for n in (True, 3.0):
        with pytest.raises(ValueError, match=f"evaluation point must be a nonnegative integer, got {n!r}"):
            q.evaluate(n)


def test_bool_entries_rejected():
    # read as 1, additive((True, 2)) would be labelled additive(True,2)
    with pytest.raises(ValueError, match="gamma entry must be an integer, got True"):
        DegreeFunction.additive((True, 2))
    with pytest.raises(ValueError, match="gamma entry must be an integer, got False"):
        check_gamma_inequalities([2, False], 1)
    with pytest.raises(ValueError, match="theta_J length must be an integer, got True"):
        DegreeFunction.theta_J({True})


def _cycle(*pts):
    return PartialPermutation.from_cycles([pts])


def test_cycle_identity_neighbour_pair():
    # two cycles sharing a neighbouring pair split it between them
    for i in range(1, 5):
        for j in range(1, 5):
            bs = list(range(1, i + 1))
            a1, a2 = i + 1, i + 2
            cs = list(range(i + 3, i + 3 + j))
            left = product(_cycle(*bs, a1, a2), _cycle(a1, a2, *cs))
            right = product(_cycle(*bs, a1), _cycle(a2, *cs))
            assert left == right


def test_cycle_identity_concatenation():
    for i in range(1, 5):
        for j in range(1, 5):
            bs = list(range(1, i + 1))
            a = i + 1
            cs = list(range(i + 2, i + 2 + j))
            left = product(_cycle(*bs, a), _cycle(a, *cs))
            assert left == _cycle(*bs, a, *cs)


def test_cycle_identity_inverse():
    for k in range(2, 6):
        bs = list(range(1, k + 1))
        left = product(_cycle(*bs), _cycle(*reversed(bs)))
        assert left == PartialPermutation.identity(bs)


def test_cycle_identity_transposition_chains():
    # products of staircase transposition chains give the long cycles used
    # for the gamma_{k+1} <= k gamma_2 bound, in both parities
    for k in range(1, 5):
        even_left = PartialPermutation()
        for i in range(1, 2 * k, 2):
            even_left = product(even_left, _cycle(i, i + 1))
        even_right = PartialPermutation()
        for i in range(2, 2 * k + 1, 2):
            even_right = product(even_right, _cycle(i, i + 1))
        got = product(even_left, even_right)
        want = _cycle(*(list(range(2, 2 * k + 1, 2)) + [2 * k + 1]
                        + list(range(2 * k - 1, 0, -2))))
        assert got == want
    for k in range(1, 5):
        odd_left = PartialPermutation()
        for i in range(1, 2 * k + 2, 2):
            odd_left = product(odd_left, _cycle(i, i + 1))
        odd_right = PartialPermutation()
        for i in range(2, 2 * k + 1, 2):
            odd_right = product(odd_right, _cycle(i, i + 1))
        got = product(odd_left, odd_right)
        want = _cycle(*(list(range(2, 2 * k + 1, 2)) + [2 * k + 2, 2 * k + 1]
                        + list(range(2 * k - 1, 0, -2))))
        assert got == want


def test_cycle_identity_even_odd_overlap():
    # generalized splitting with 2k common elements
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                bs = list(range(1, i + 1))
                As = list(range(i + 1, i + 2 * k + 1))
                cs = list(range(i + 2 * k + 1, i + 2 * k + 1 + j))
                left = product(_cycle(*bs, *As), _cycle(*As, *cs))
                right = product(_cycle(*bs, *As[0::2]), _cycle(*As[1::2], *cs))
                assert left == right
    # odd number of common elements
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 3):
                bs = list(range(1, i + 1))
                As = list(range(i + 1, i + 2 * k + 2))
                cs = list(range(i + 2 * k + 2, i + 2 * k + 2 + j))
                left = product(_cycle(*bs, *As), _cycle(*As, *cs))
                want = _cycle(*bs, *As[0::2], *cs, *As[1::2])
                assert left == want


def test_cycle_identity_reversed_overlap():
    # overlapping by a reversed run frees the middle points
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 5):
                bs = list(range(1, i + 1))
                As = list(range(i + 1, i + k + 1))
                cs = list(range(i + k + 1, i + k + 1 + j))
                left = product(_cycle(*bs, *As), _cycle(*reversed(As), *cs))
                right = product(_cycle(*bs, As[0], *cs),
                                PartialPermutation.identity(As[1:]))
                assert left == right


def test_cycle_identity_three_factor():
    # the three-cycle product from the last section-10 remark
    for i, j, k, I, J, K in [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 2, 1),
                             (1, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 2)]:
        pts = iter(range(1, 60))
        a = [next(pts) for _ in range(i)]
        w = next(pts)
        c = [next(pts) for _ in range(k)]
        v = next(pts)
        b = [next(pts) for _ in range(j)]
        u = next(pts)
        al = [next(pts) for _ in range(I)]
        be = [next(pts) for _ in range(J)]
        ga = [next(pts) for _ in range(K)]
        left = product(_cycle(*a, w, *c, v, *b, u),
                       _cycle(*al, u, *be, v, *ga, w))
        right = product(product(_cycle(*a, w, *al), _cycle(*b, u, *be)),
                        _cycle(*c, v, *ga))
        assert left == right


def test_deg3_additive_implies_constant_q():
    # the classically true direction of the top-coefficient statement
    deg3 = DegreeFunction.deg3()
    for sigma in partitions_up_to(4):
        if not sigma.is_proper():
            continue
        for tau in partitions_up_to(4):
            if not tau.is_proper():
                continue
            bars = {rho.strip_ones() for rho in product_expansion(sigma, tau)}
            for bar in bars:
                q = q_polynomial(sigma, tau, bar)
                if not q.coeffs:
                    continue
                if deg3(sigma) + deg3(tau) == deg3(bar):
                    assert len(q.coeffs) == 1, (sigma, tau, bar)


def test_deg3_constant_q_does_not_imply_additive():
    # counterexample visible in the published tables: the coefficient of the
    # double-transposition class in the square of the three-cycle class is
    # the constant 8, yet the Cayley degrees do not add up
    deg3 = DegreeFunction.deg3()
    q = q_polynomial(P(3), P(3), P(2, 2))
    assert q.coeffs == (8,)
    assert deg3(P(3)) + deg3(P(3)) != deg3(P(2, 2))
