import hashlib
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classconv import characters, class_algebra
from classconv import verify as vf
from classconv.class_algebra import (BinomialPolynomial, ClassVector, _expand,
                                     convolve_C_classes, f_constant, g_constant,
                                     g_table, multiply, product_expansion,
                                     psi_image, q_polynomial, to_C_basis)
from classconv.filtrations import DegreeFunction
from classconv.partitions import EMPTY, Partition, enumerate_partitions, partitions_up_to
from classconv.semigroup_algebra import class_element
from classconv.verify import _counting_cost, oracle_convolve, product_expansion_counted
from oracles import character_beta_tuples, conjugate_parts, falling_factorial

P = lambda *parts: Partition(parts)


def union(sigma, tau):
    """The multiset union of the parts: the type of sigma u tau on disjoint supports."""
    return Partition(sorted(sigma.parts + tau.parts, reverse=True))


def test_g_basic_example():
    assert g_constant(P(2), P(2), P(1, 1)) == 1
    assert g_constant(P(2), P(2), P(3)) == 3
    assert g_constant(P(2), P(2), P(2, 2)) == 2
    assert g_constant(P(2), P(2), P(4)) == 0


def test_g_unit():
    for rho in partitions_up_to(4):
        for tau in partitions_up_to(4):
            assert g_constant(EMPTY, tau, rho) == (1 if rho == tau else 0)


def test_g_top_term_binomial_product():
    # every ordered pair with |sigma|, |tau| <= 7 and |sigma|+|tau| <= 11 (1139)
    pairs = 0
    for sigma in partitions_up_to(7):
        for tau in partitions_up_to(7):
            if sigma.size() + tau.size() > 11:
                continue
            pairs += 1
            top = union(sigma, tau)
            want = 1
            for k in set(top.parts):
                want *= comb(sigma.multiplicity(k) + tau.multiplicity(k),
                             sigma.multiplicity(k))
            # = z_top / (z_sigma z_tau)
            assert want * sigma.centralizer_size() * tau.centralizer_size() \
                == top.centralizer_size()
            assert g_constant(sigma, tau, top) == want
            # and it is the unique class of full size in the expansion
            full = [rho for rho in product_expansion(sigma, tau)
                    if rho.size() == sigma.size() + tau.size()]
            assert full == [top]
    assert pairs == 1139


def test_g_fast_matches_naive():
    # every triple with |sigma|+|tau| <= 7 and rho in the support range (2482),
    # zeros included, against the counted guard, which reads no characters
    shapes = partitions_up_to(7)
    for sigma in shapes:
        for tau in shapes:
            s, t = sigma.size(), tau.size()
            if s + t > 7 or sigma.parts > tau.parts:
                continue
            exp, counted = product_expansion(sigma, tau), product_expansion_counted(sigma, tau)
            for r in range(max(s, t), s + t + 1):
                for rho in enumerate_partitions(r):
                    assert exp.get(rho, 0) == counted.get(rho, 0), (sigma, tau, rho)


def test_g_naive_spot_checks_larger():
    # expectations derived from the shipped f table via g = f z_rho / (z_sigma z_tau);
    # these target total size 8, beyond the convolution oracle's range, and
    # are counted again on the character-free guard
    cases = [
        (P(2, 2), P(2, 2), P(5), 5),
        (P(4), P(4), P(3, 3), 27),
        (P(3, 2), P(3), P(4, 1), 8),
        (P(6), P(2), P(4, 2), 8),
        (P(2, 2, 2), P(2), P(2, 2, 1, 1), 1),
        (P(3, 3), P(2), P(3, 2, 1), 2),
        (P(4, 2), P(2), P(6), 6),
        (P(5), P(3), P(3, 1, 1), 6),
        (P(3, 2), P(3), P(2, 1, 1, 1), 2),
    ]
    for sigma, tau, rho, want in cases:
        assert g_constant(sigma, tau, rho) == want
        assert product_expansion_counted(sigma, tau).get(rho, 0) == want


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


def test_route_pinned_bit_for_bit():
    # every ordered pair with |sigma| + |tau| <= 12 (3132), each with its
    # keys in order, and the 927 keys of (5,4,3)^2: a rewrite of any level
    # of the route must keep both digests byte for byte
    rows = [(a.parts, b.parts, [(k.parts, v) for k, v in product_expansion(a, b).items()])
            for total in range(13) for s in range(total + 1)
            for a in enumerate_partitions(s) for b in enumerate_partitions(total - s)]
    assert len(rows) == 3132
    assert _digest(rows) == "28a8f595a00b59a89b1067f8adcc1b878ec74583044c78279e775c6a63eba6e0"
    big = product_expansion(P(5, 4, 3), P(5, 4, 3))
    assert len(big) == 927
    assert _digest([[(k.parts, v) for k, v in big.items()]]) == (
        "f0ebc672b1b03460bf5c146ae174126dead17520b75a058da73c8317aa611b82")


def test_g_symmetry_forced_sides():
    # both orders, each its own _expand cache entry, exhaustively for
    # |sigma|, |tau| <= 5 (computed independently for a proper pair; a pair
    # with unit parts reads its proper pair's one entry); this is what
    # justifies product_expansion caching one order per unordered pair
    shapes = partitions_up_to(5)
    for i, sigma in enumerate(shapes):
        for tau in shapes[i + 1:]:
            assert _expand(sigma, tau) == _expand(tau, sigma), (sigma, tau)


def test_g_symmetry_batched_size_5():
    # the batched g_table(5), built on an empty cache, must give each
    # unordered pair the expansion of either factor order; the reversed
    # order is a separate _expand entry, computed independently
    _expand.cache_clear()
    table = g_table(5)
    assert len(table) == 19 * 20 // 2
    for (sigma, tau), expansion in table.items():
        assert expansion == _expand(sigma, tau) == _expand(tau, sigma), (sigma, tau)


def test_g_table_keys_and_order():
    shapes = partitions_up_to(5)
    table = g_table(5)
    want = []
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            want.append((a, b) if a.parts <= b.parts else (b, a))
    assert list(table) == want
    assert len(want) == 19 * 20 // 2
    assert list(table)[:4] == [(EMPTY, EMPTY), (EMPTY, P(1)), (EMPTY, P(2)),
                               (EMPTY, P(1, 1))]
    assert (P(1, 1), P(2)) in table and (P(2), P(1, 1)) not in table
    for (sigma, tau), expansion in table.items():
        assert expansion is product_expansion(tau, sigma)
    # both factor orders share one cache entry, the smaller parts tuple
    # first; a pair with unit parts also caches its proper pair, here (3)(2,2)
    _expand.cache_clear()
    assert product_expansion(P(3, 1), P(2, 2, 1)) is product_expansion(P(2, 2, 1), P(3, 1))
    assert _expand.cache_info().currsize == 2
    hits = _expand.cache_info().hits
    _expand(P(2, 2, 1), P(3, 1))
    _expand(P(2, 2), P(3))
    assert _expand.cache_info() == (hits + 2, 2, None, 2)


def test_route_raises_on_inexact_division(monkeypatch):
    # spoil the (1,1,1) column, which (3)*(3) reads at level 3, a character
    # level, as an allowed class: T_3((1,1,1)) = (12 + 6) / 9 becomes
    # (24 + 6) / 9.  The level table of S_3 reads the same column for its
    # hook products, so it is built first, unspoiled
    _expand.cache_clear()
    class_algebra._level_table(3)
    column, read = class_algebra._column, []

    def spoiled(parts):
        read.append(parts)
        col = column(parts)
        return (col[0] + 1,) + col[1:] if parts == (1, 1, 1) else col

    monkeypatch.setattr(class_algebra, "_column", spoiled)
    with pytest.raises(RuntimeError, match=r"non-integral .* -> 1,1,1: internal bug"):
        product_expansion(P(3), P(3))
    assert (1, 1, 1) in read
    assert _expand.cache_info().currsize == 0


def test_unit_part_reduction_raises_on_inexact_division(monkeypatch):
    # spoil the proper pair's expansion by a half: (1)(1) reads that of
    # ()() and divides by 1! 1!, so the half is left over at A_(1)
    _expand.cache_clear()
    monkeypatch.setattr(class_algebra, "product_expansion",
                        lambda sigma, tau: {EMPTY: Fraction(1, 2)})
    with pytest.raises(RuntimeError, match=r"non-integral .* -> 1: internal bug"):
        _expand(P(1), P(1))
    assert _expand.cache_info().currsize == 0


def test_top_levels_raise_on_inexact_division(monkeypatch):
    # ()(2) reads no character level; spoiling z_() to 2 leaves its one
    # class (2) with z_(2) N / (z_() z_(2)) = 2 / 4
    _expand.cache_clear()
    z = Partition.centralizer_size
    monkeypatch.setattr(Partition, "centralizer_size", lambda p: z(p) if p.parts else 2)
    with pytest.raises(RuntimeError, match=r"non-integral .* -> 2: internal bug"):
        product_expansion(EMPTY, P(2))
    assert _expand.cache_info().currsize == 0


@pytest.mark.parametrize("call, message", [
    (lambda: f_constant(P(2), P(2), P(3)), "non-integral f constant for 2, 2 -> 3: internal bug"),
    (lambda: product_expansion_counted(EMPTY, P(3)), "non-integral count for , 3 -> 3: internal bug"),
    (lambda: oracle_convolve(P(2), P(2), 3), "oracle produced a non-central element"),
], ids=["f_constant", "counted", "oracle"])
def test_guards_raise_on_a_spoiled_centralizer(monkeypatch, call, message):
    # with z_(3) spoiled to 5 and g_(2),(2)^(3) = 3 cached before: f reads
    # z_(2)^2 g / z_(3) = 12 / 5; the counted guard reads ()(3) as
    # z_(3) N / (z_() 3!) = 5 * 2 / 6; and the oracle meets two three-cycles
    # of S_3 where a class of z_(3) = 5 has 3!/5 = 1 member
    product_expansion(P(2), P(2))
    z = Partition.centralizer_size
    monkeypatch.setattr(Partition, "centralizer_size", lambda p: 5 if p.parts == (3,) else z(p))
    with pytest.raises(RuntimeError, match=message):
        call()


def test_product_builds_only_factor_and_allowed_columns(monkeypatch):
    # only the levels below |sigma|+|tau|-1 of a proper pair read
    # characters, and a pair with unit parts reads only its proper pair's
    # columns; (4)(3) has deg3 3 and 2, so the sign rules out (5) and
    # (2,2,1) at level 5; (6)(2,2) has deg3 5 and 2, so the Cayley floor 3
    # alone rules out (2,1,1,1,1) at level 6 (deg3 1, deg2 10 <= 10, parity
    # of deg3 7, 5 parts <= 1 + 2 + 4 - 2); at level 10 of (3,3)(3,3), d = 2
    # shared points, the length floor l(mu) <= 2 + 2 + 2 - 2 alone rules
    # out (2,2,2,2,1,1) (deg3 4 >= 0, deg2 12 <= 12, parity of deg3 8); a level
    # table built on the way reads the column of 1^m for its hooks
    deg2, deg3 = DegreeFunction.deg2(), DegreeFunction.deg3()
    column = characters._column
    requested = set()

    def recorded(parts):
        requested.add(parts)
        return column(parts)

    monkeypatch.setattr(class_algebra, "_column", recorded)
    # a factor 1^k leaves its proper pair only the two counted top levels
    for sigma, tau in [(EMPTY, P(3, 2)), (P(1), P(3, 2)), (P(1), P(1)), (EMPTY, EMPTY),
                       (P(1, 1), P(3, 1))]:
        _expand.cache_clear()
        product_expansion(sigma, tau)
        assert not requested, (sigma, tau)
    read = {}
    for sigma, tau in [(P(3, 1), P(2, 2)), (P(4), P(3)), (P(6), P(2, 2)),
                       (P(3, 3), P(3, 3)), (P(3, 1), P(3, 1, 1))]:
        _expand.cache_clear()
        requested.clear()
        column.cache_clear()
        class_algebra._level_table.cache_clear()
        product_expansion(sigma, tau)
        read[sigma, tau] = set(requested)
        sigma, tau = sigma.strip_ones(), tau.strip_ones()
        cap2, cap3 = deg2(sigma) + deg2(tau), deg3(sigma) + deg3(tau)
        floor3 = abs(deg3(sigma) - deg3(tau))
        levels = range(max(sigma.size(), tau.size()), sigma.size() + tau.size() - 1)
        want = set()
        for m in levels:
            longest = sigma.length() + tau.length() + sigma.size() + tau.size() - m - 2
            want |= {sigma.pad(m).parts, tau.pad(m).parts, (1,) * m}
            want |= {mu.parts for mu in enumerate_partitions(m)
                     if deg2(mu) <= cap2 and floor3 <= deg3(mu) <= cap3
                     and (deg3(mu) - cap3) % 2 == 0 and mu.length() <= longest}
        assert requested == want, (sigma, tau)
        assert len(want) < sum(len(enumerate_partitions(m)) for m in levels)
        # each column _expand reads is built once, from the suffix columns it
        # needs, and the cache holds nothing else
        suffixes = {parts[i:] for parts in want for i in range(1, len(parts) + 1)}
        built = column.cache_info()
        assert built.misses == built.currsize == len(want | suffixes), (sigma, tau)
        for parts in want:
            column(parts)
        again = column.cache_info()
        assert (again.hits, again.misses) == (built.hits + len(want), built.misses)
    assert (2, 1, 1, 1, 1) not in read[P(6), P(2, 2)]
    assert (2, 2, 2, 2, 1, 1) not in read[P(3, 3), P(3, 3)]
    # the proper pair of (3,1)(3,1,1) is (3)(3)
    assert (2, 1) not in read[P(3, 1), P(3, 1, 1)] and (4,) not in read[P(3, 1), P(3, 1, 1)]


def test_level_table_hooks_and_classes():
    deg3 = DegreeFunction.deg3()
    for m in range(12):
        labels = enumerate_partitions(m)
        hooks, classes = class_algebra._level_table(m)
        # the classes of S_m in canonical order, each with its own (deg3, m_1)
        assert [mu for _, _, mu in classes] == labels
        assert all((d3, m1) == (deg3(mu), mu.multiplicity(1)) for d3, m1, mu in classes), m
        # one hook product per representative, lam at or before lam' in
        # canonical order; times the dimension read off the beta-tuple route
        # it is m!, doubled for a shape with a distinct conjugate
        index = {lam.parts: i for i, lam in enumerate(labels)}
        half = [lam.parts for lam in labels if index[lam.parts] <= index[conjugate_parts(lam.parts)]]
        assert len(hooks) == len(half)
        assert [h * character_beta_tuples(lam, (1,) * m) for lam, h in zip(half, hooks)] == [
            factorial(m) * (1 if conjugate_parts(lam) == lam else 2) for lam in half]


def test_counted_guard_reads_no_characters(monkeypatch):
    pairs = [(P(2), P(2)), (P(3, 1, 1), P(2)), (EMPTY, P(2, 1)), (EMPTY, EMPTY),
             (P(4, 2), P(3, 3))]
    want = {pair: product_expansion(*pair) for pair in pairs}

    def refuse(*args):
        raise LookupError(f"character data read for {args}")

    monkeypatch.setattr(class_algebra, "_column", refuse)
    monkeypatch.setattr(class_algebra, "_level_table", refuse)
    # want filled the cache, so the uncached route must be the one refused
    with pytest.raises(LookupError):
        _expand.__wrapped__(P(2), P(2))
    for pair in pairs:
        assert list(product_expansion_counted(*pair).items()) == list(want[pair].items())


def test_whole_tables_obey_sign_and_cayley_triangle():
    # the counted guard prunes nothing, so this checks the conditions the
    # production route prunes by (deg2 cap, sign and the Cayley triangle) on
    # an independent route, and the moved-points triangle besides: ab moves
    # every point that exactly one of a, b moves and only points that a or
    # b moves, so |mv a - mv b| <= mv ab <= mv a + mv b
    deg2, deg3 = DegreeFunction.deg2(), DegreeFunction.deg3()
    moved = lambda p: p.size() - p.multiplicity(1)
    shapes = partitions_up_to(10)
    tight = moved_tight = 0
    for i, sigma in enumerate(shapes):
        for tau in shapes[i:]:
            if sigma.size() + tau.size() > 10:
                continue
            a, b = deg3(sigma), deg3(tau)
            ma, mb = moved(sigma), moved(tau)
            for rho in product_expansion_counted(sigma, tau):
                assert deg2(rho) <= deg2(sigma) + deg2(tau), (sigma, tau, rho)
                assert deg3(rho) in range(abs(a - b), a + b + 1, 2), (sigma, tau, rho)
                assert abs(ma - mb) <= moved(rho) <= ma + mb, (sigma, tau, rho)
                tight += deg3(rho) == abs(a - b) > 0
                moved_tight += moved(rho) == abs(ma - mb) > 0
    assert tight and moved_tight


def test_pruned_route_matches_whole_tables_up_to_12():
    # every pair with |sigma|+|tau| <= 12 against the counted guard, as dicts
    # and keys in order, so this pins the values and the classes skipped
    shapes = partitions_up_to(12)
    pairs = 0
    for i, sigma in enumerate(shapes):
        for tau in shapes[i:]:
            if sigma.size() + tau.size() > 12:
                continue
            pairs += 1
            got, want = product_expansion(sigma, tau), product_expansion_counted(sigma, tau)
            assert got == want, (sigma, tau)
            assert list(got) == list(want), (sigma, tau)
    assert pairs == 1581


@st.composite
def _pair_up_to(draw, total):
    s = draw(st.integers(min_value=0, max_value=total))
    t = draw(st.integers(min_value=0, max_value=total - s))
    return (draw(st.sampled_from(enumerate_partitions(s))),
            draw(st.sampled_from(enumerate_partitions(t))))


# the guard enumerates min(_counting_cost) elements; (8)*(8) would take seconds
@settings(max_examples=50, deadline=None)
@given(_pair_up_to(16).filter(
    lambda pair: min(_counting_cost(*pair), _counting_cost(*pair[::-1])) <= 20000))
def test_pruned_route_matches_counted_guard_up_to_16(pair):
    sigma, tau = pair
    want = product_expansion_counted(sigma, tau)
    got = _expand(sigma, tau)
    assert list(got.items()) == list(want.items()), (sigma, tau)


def _full_column(parts):
    """chi^lam_parts over every shape lam of S_|parts|, in canonical order:
    the half column read through each shape's half index and flip."""
    half, odd = characters._column(parts), (sum(parts) - len(parts)) & 1
    shapes = (characters._shape(lam.parts) for lam in enumerate_partitions(sum(parts)))
    return [-half[at] if odd & flip else half[at] for at, flip, _ in shapes]


def _level_sums(sigma, tau, m):
    """T_m(mu) for every mu of size m, from the character sum in the
    class_algebra module docstring over every shape, unweighted, every
    class evaluated."""
    labels = enumerate_partitions(m)
    hooks = [factorial(m) // d for d in _full_column((1,) * m)]
    weights = [a * b * h for a, b, h in zip(_full_column(sigma.pad(m).parts),
                                            _full_column(tau.pad(m).parts), hooks)]
    scale = falling_factorial(m, sigma.size()) * falling_factorial(m, tau.size())
    den = sigma.centralizer_size() * tau.centralizer_size() * factorial(m) ** 2
    sums = {}
    for mu in labels:
        total, rem = divmod(scale * sum(x * w for x, w in zip(_full_column(mu.parts), weights)),
                            den)
        assert not rem, (sigma, tau, mu)
        sums[mu] = total
    return sums


def _check_top_levels_against_characters(sigma, tau):
    # the route counts the two top levels, with no characters; here every class
    # of those levels is checked against T_m(mu) = sum_j C(m_1, j) g^{mu
    # minus j unit parts}, the lower levels' g read from the route as well
    s, t = sigma.size(), tau.size()
    got = _expand(sigma, tau)
    assert list(got) == sorted(got, key=Partition.sort_key), (sigma, tau)
    for m in range(max(s, t, s + t - 1), s + t + 1):
        for mu, total in _level_sums(sigma, tau, m).items():
            m1 = mu.multiplicity(1)
            want = sum(comb(m1, j) * got.get(Partition(mu.parts[:mu.length() - j]), 0)
                       for j in range(m1 + 1))
            assert total == want, (sigma, tau, mu)


@pytest.mark.parametrize("sigma, tau", [
    (P(1), P(6, 5, 3, 1)), (EMPTY, P(7, 6)), (P(4, 3, 2), P(3, 2)),
    (P(2, 2, 2, 1), P(2, 2, 1, 1)), (P(5, 3), P(4, 2, 1, 1)), (P(3, 3, 3), P(3, 3, 1)),
    (P(8), P(8)), (P(1, 1, 1), P(5, 5, 1, 1, 1))])
def test_top_levels_match_characters_beyond_counted_guard(sigma, tau):
    _check_top_levels_against_characters(sigma, tau)


@st.composite
def _pair_of_total(draw, low, high):
    total = draw(st.integers(min_value=low, max_value=high))
    s = draw(st.integers(min_value=0, max_value=total))
    return (draw(st.sampled_from(enumerate_partitions(s))),
            draw(st.sampled_from(enumerate_partitions(total - s))))


@settings(max_examples=60, deadline=None)
@given(_pair_of_total(13, 16))
def test_top_levels_match_characters_13_to_16(pair):
    _check_top_levels_against_characters(*pair)


def _cut_and_join_level(nu):
    # the level-|nu| terms of A_(2) A_nu, keys in canonical order: there the
    # transposition lies inside the support, so g^mu counts the
    # transpositions t of {1..|nu|} with t mu of type nu.  t cuts a k-cycle
    # of mu into (i, k - i) in k ways (k/2 when i = k - i) or joins a
    # k-cycle with another l-cycle in k l ways
    def of_type(parts):
        return Partition(sorted(parts, reverse=True)) == nu

    row = []
    for mu in enumerate_partitions(nu.size()):
        parts = mu.parts
        count = 0
        for a, k in enumerate(parts):
            rest = parts[:a] + parts[a + 1:]
            for i in range(1, k // 2 + 1):
                if of_type(rest + (i, k - i)):
                    count += k // 2 if 2 * i == k else k
            for b in range(a + 1, len(parts)):
                l = parts[b]
                if of_type(parts[:a] + parts[a + 1:b] + parts[b + 1:] + (k + l,)):
                    count += k * l
        if count:
            row.append((mu, count))
    return row


def _level_of_product_with_transposition(nu):
    # the level s + t - 2 that _expand reads off characters
    return [(mu, g) for mu, g in product_expansion(P(2), nu).items()
            if mu.size() == nu.size()]


def test_cut_and_join_level_up_to_10():
    shapes = partitions_up_to(10)
    assert len(shapes) == 139
    for nu in shapes:
        assert _level_of_product_with_transposition(nu) == _cut_and_join_level(nu), nu


@pytest.mark.parametrize("nu", [
    P(13), P(7, 6), P(5, 4, 3, 2, 1), P(4, 4, 4, 4), P(*[1] * 17),
    P(3, 3, 3, 3, 2, 2, 1, 1, 1, 1), P(20)])
def test_cut_and_join_level_beyond_counted_guard(nu):
    assert _level_of_product_with_transposition(nu) == _cut_and_join_level(nu)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=13, max_value=20).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))))
def test_cut_and_join_level_13_to_20(nu):
    assert _level_of_product_with_transposition(nu) == _cut_and_join_level(nu)


def _F_beta_tuples(expansion: dict[Partition, int], lam: Partition) -> Fraction:
    """F(sum_rho c_rho A_rho)(lam) with p#_rho(lam) = (n)_r chi^lam_{rho 1^(n-r)} / dim lam
    read off the beta-tuple route, not off p_sharp."""
    n = lam.size()
    dim = character_beta_tuples(lam.parts, (1,) * n)
    return sum((Fraction(c * falling_factorial(n, rho.size())
                         * character_beta_tuples(lam.parts, rho.parts + (1,) * (n - rho.size())),
                         dim * rho.centralizer_size())
                for rho, c in expansion.items() if rho.size() <= n), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(_pair_up_to(10), st.integers(min_value=0, max_value=14).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))))
def test_F_multiplicative_on_beta_tuple_route(pair, lam):
    sigma, tau = pair
    prod = product_expansion(sigma, tau)
    assert _F_beta_tuples(prod, lam) == (_F_beta_tuples({sigma: 1}, lam)
                                         * _F_beta_tuples({tau: 1}, lam)), (sigma, tau, lam)


_PROPER = [p for p in partitions_up_to(10) if p.is_proper()]


@st.composite
def _pair_with_unit_parts(draw):
    # proper parts of total <= 10 keep their character levels cheap; unit
    # parts, on one factor or both, bring the total to 13..20 with each
    # factor of size <= 12; lam has max(|sigma|, |tau|) <= |lam| <= 12, since
    # F(A_rho) vanishes at |lam| < |rho|
    bar_s, bar_t = draw(st.sampled_from(_PROPER).flatmap(lambda a: st.tuples(
        st.just(a), st.sampled_from([b for b in _PROPER if a.size() + b.size() <= 10]))))
    free = draw(st.integers(min_value=13, max_value=20)) - bar_s.size() - bar_t.size()
    i = draw(st.integers(min_value=max(0, free - 12 + bar_t.size()),
                         max_value=min(free, 12 - bar_s.size())))
    sigma, tau = bar_s.pad(bar_s.size() + i), bar_t.pad(bar_t.size() + free - i)
    n = draw(st.integers(min_value=max(sigma.size(), tau.size()), max_value=12))
    return sigma, tau, draw(st.sampled_from(enumerate_partitions(n)))


@settings(max_examples=40, deadline=None)
@given(_pair_with_unit_parts())
def test_F_multiplicative_with_unit_parts_13_to_20(case):
    # above the counted guard's reach, the A_(1) reduction against
    # characters from beta tuples, which read no _column
    sigma, tau, lam = case
    assert sigma.multiplicity(1) or tau.multiplicity(1)
    prod = product_expansion(sigma, tau)
    assert list(prod) == sorted(prod, key=Partition.sort_key)
    assert _F_beta_tuples(prod, lam) == (_F_beta_tuples({sigma: 1}, lam)
                                         * _F_beta_tuples({tau: 1}, lam)), (sigma, tau, lam)


def _proper_of(size):
    return [p for p in enumerate_partitions(size) if p.is_proper()]


@st.composite
def _proper_pair_17_to_20(draw):
    # a proper pair of total 17..20 runs every character level of _expand;
    # lam has max(|sigma|, |tau|) <= |lam| <= |sigma| + |tau|
    total = draw(st.integers(min_value=17, max_value=20))
    s = draw(st.sampled_from([s for s in range(total + 1)
                              if _proper_of(s) and _proper_of(total - s)]))
    sigma = draw(st.sampled_from(_proper_of(s)))
    tau = draw(st.sampled_from(_proper_of(total - s)))
    n = draw(st.integers(min_value=max(s, total - s), max_value=total))
    return sigma, tau, draw(st.sampled_from(enumerate_partitions(n)))


@settings(max_examples=30, deadline=None)
@given(_proper_pair_17_to_20())
def test_F_multiplicative_on_proper_pairs_17_to_20(case):
    # beyond test_top_levels_match_characters_13_to_16, at full depth, against
    # characters from beta tuples, which read no _column
    sigma, tau, lam = case
    prod = product_expansion(sigma, tau)
    assert list(prod) == sorted(prod, key=Partition.sort_key)
    assert _F_beta_tuples(prod, lam) == (_F_beta_tuples({sigma: 1}, lam)
                                         * _F_beta_tuples({tau: 1}, lam)), (sigma, tau, lam)


small = st.sampled_from(partitions_up_to(4))


@settings(max_examples=40, deadline=None)
@given(small, small, small)
def test_g_associative(sigma, tau, upsilon):
    def combine(outer, inner_pairs):
        out: dict[Partition, int] = {}
        for rho, g in outer.items():
            for pi, h in inner_pairs(rho).items():
                out[pi] = out.get(pi, 0) + g * h
        return {pi: c for pi, c in out.items() if c}

    left = combine(product_expansion(sigma, tau),
                   lambda rho: product_expansion(rho, upsilon))
    right = combine(product_expansion(tau, upsilon),
                    lambda rho: product_expansion(sigma, rho))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(small, small, st.integers(min_value=0, max_value=10))
def test_g_mass_identity(sigma, tau, n):
    # counting all elements is a homomorphism from B_n to Q; #A_{rho;n}
    # is C(n, |rho|) |rho|! / z_rho
    def mass(rho):
        return Fraction(comb(n, rho.size()) * factorial(rho.size()),
                        rho.centralizer_size())

    total = sum(g * mass(rho) for rho, g in product_expansion(sigma, tau).items())
    assert mass(sigma) * mass(tau) == total


@settings(max_examples=60, deadline=None)
@given(small, small)
def test_g_positive_integers_in_support(sigma, tau):
    s, t = sigma.size(), tau.size()
    for rho, g in product_expansion(sigma, tau).items():
        assert type(g) is int and g > 0
        assert max(s, t) <= rho.size() <= s + t


def test_g_support_bound():
    table = g_table(5)
    for (sigma, tau), expansion in table.items():
        for rho, g in expansion.items():
            assert g > 0
            assert max(sigma.size(), tau.size()) <= rho.size() <= sigma.size() + tau.size()


def test_f_integrality_bound_5():
    for (sigma, tau), expansion in g_table(5).items():
        zz = sigma.centralizer_size() * tau.centralizer_size()
        for rho, g in expansion.items():
            assert (zz * g) % rho.centralizer_size() == 0


def test_multiply_truncations():
    u = ClassVector.basis(P(2))
    assert multiply(u, u, n=2) == ClassVector({P(1, 1): 1})
    assert multiply(u, u, n=3) == ClassVector({P(1, 1): 1, P(3): 3})
    assert multiply(u, u, n=4) == ClassVector({P(1, 1): 1, P(3): 3, P(2, 2): 2})
    assert multiply(ClassVector.basis(EMPTY), u) == u


def test_multiply_matches_semigroup_algebra():
    # the truncated product agrees with materializing both classes in B_n
    for sigma in partitions_up_to(2):
        for tau in partitions_up_to(2):
            n = sigma.size() + tau.size()
            direct = class_element(sigma, n) * class_element(tau, n)
            via_g = multiply(ClassVector.basis(sigma), ClassVector.basis(tau), n=n)
            materialized = None
            for rho, c in via_g.terms.items():
                piece = c * class_element(rho, n)
                materialized = piece if materialized is None else materialized + piece
            if materialized is None:
                materialized = 0 * class_element(EMPTY, n)
            assert direct == materialized


def test_multiply_associative_small_vectors():
    u = ClassVector({P(1): 1, P(2): 2})
    v = ClassVector({P(2): 1, EMPTY: 3})
    w = ClassVector({P(1, 1): 1})
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def _per_term_product(u, v, n=None):
    """multiply's reference: Fraction sums term by term, every key of each
    expansion visited, terms above the level skipped, zeros dropped."""
    levels = [x for x in (n, u.level, v.level) if x is not None]
    eff = min(levels) if levels else None
    out = {}
    for sigma, cu in u.terms.items():
        for tau, cv in v.terms.items():
            for rho, g in product_expansion(sigma, tau).items():
                if eff is None or rho.size() <= eff:
                    out[rho] = out.get(rho, Fraction(0)) + cu * cv * g
    return [(rho, c) for rho, c in out.items() if c]


def _per_term_psi(v, n):
    """to_C_basis's reference: c C(n - |rho| + m_1, m_1) summed as Fractions."""
    out = {}
    for rho, c in v.terms.items():
        if rho.size() <= n:
            bar = rho.strip_ones()
            out[bar] = out.get(bar, Fraction(0)) + c * psi_image(rho, n)[0]
    return [(rho, c) for rho, c in out.items() if c]


def _top(v):
    return max((rho.size() for rho in v.terms), default=0)


def test_multiply_matches_per_term_fraction_sum():
    mixed = ClassVector({rho: Fraction((-1) ** i * (i + 1), i % 4 + 2)
                         for i, rho in enumerate(partitions_up_to(3))})
    other = ClassVector({P(2): Fraction(3, 4), P(1, 1): Fraction(-5, 6), EMPTY: 2,
                         P(3, 1): Fraction(1, 9)})
    # A(1) A(1) = A(1) + 2 A(1,1), so the A(1) terms cancel
    cancel = ClassVector({P(1): 1, EMPTY: -1})
    assert P(1) not in multiply(cancel, ClassVector.basis(P(1))).terms
    vectors = [mixed, other, cancel, ClassVector.basis(P(2, 2)), ClassVector.basis(EMPTY),
               ClassVector({}), ClassVector({P(2): Fraction(-1, 2), P(1): 3}, level=3)]
    for u in vectors:
        for v in vectors:
            for n in [None, *range(_top(u) + _top(v) + 2)]:
                got = multiply(u, v, n)
                assert list(got.terms.items()) == _per_term_product(u, v, n), (u, v, n)
                assert all(type(c) is Fraction for c in got.terms.values())
    for sigma in partitions_up_to(4):
        for tau in partitions_up_to(4):
            u, v = ClassVector.basis(sigma), ClassVector.basis(tau)
            for n in range(sigma.size() + tau.size() + 2):
                got = multiply(u, v, n)
                assert list(got.terms.items()) == _per_term_product(u, v, n), (sigma, tau, n)
                assert got.level == n


def test_product_expansion_keys_ascend():
    # multiply stops reading an expansion at its first key above the level
    for total in range(11):
        for s in range(total + 1):
            for sigma in enumerate_partitions(s):
                for tau in enumerate_partitions(total - s):
                    keys = list(product_expansion(sigma, tau))
                    assert keys == sorted(keys, key=Partition.sort_key), (sigma, tau)


def test_stability_of_expansion():
    for sigma, tau in [(P(2), P(2)), (P(3), P(2, 1)), (P(2, 2), P(3))]:
        total = sigma.size() + tau.size()
        stable = multiply(ClassVector.basis(sigma), ClassVector.basis(tau))
        at_bound = multiply(ClassVector.basis(sigma), ClassVector.basis(tau), n=total)
        beyond = multiply(ClassVector.basis(sigma), ClassVector.basis(tau), n=total + 3)
        assert stable.terms == at_bound.terms == beyond.terms


def test_f_examples():
    assert f_constant(P(2), P(2), P(2, 2)) == 1
    assert f_constant(P(2), P(2), P(3)) == 4
    assert f_constant(P(2), P(2), P(1, 1)) == 2
    assert f_constant(P(3), P(2), P(4)) == 6  # one-row merge 3*1*2*1
    for sigma in partitions_up_to(4):
        for tau in partitions_up_to(4):
            assert f_constant(sigma, tau, union(sigma, tau)) == 1


def test_f_one_row_merge_formula():
    # replace one row of each by their merge of length i+j-1; when several
    # merge geometries land on the same shape the counts add
    for sigma in partitions_up_to(4):
        for tau in partitions_up_to(4):
            merges: dict[Partition, int] = {}
            for i in set(sigma.parts):
                for j in set(tau.parts):
                    rest = sorted(list(sigma.parts) + list(tau.parts), reverse=True)
                    rest.remove(i)
                    rest.remove(j)
                    rho = Partition(sorted(rest + [i + j - 1], reverse=True))
                    merges[rho] = (merges.get(rho, 0)
                                   + i * sigma.multiplicity(i) * j * tau.multiplicity(j))
            for rho, want in merges.items():
                assert f_constant(sigma, tau, rho) == want, (sigma, tau, rho)
            # every class one below the top arises from some merge
            for rho in product_expansion(sigma, tau):
                if rho.size() == sigma.size() + tau.size() - 1:
                    assert rho in merges


def test_psi_image():
    assert psi_image(P(2, 2), 6) == (1, P(2, 2))
    assert psi_image(P(1), 7) == (7, P(1))
    # C(n-r+m1, m1) with r = 4, m1 = 1: a permutation of type (3,1,1) in S_5
    # has two fixed points and the support keeps one of them
    assert psi_image(P(3, 1), 5) == (2, P(3, 1))
    with pytest.raises(ValueError):
        psi_image(P(3), 2)


def test_q_polynomial():
    q = q_polynomial(P(3), P(3), P(3))
    assert q.coeffs == (1, 3)
    assert q.monomial_string() == "3n-8"
    assert [q.evaluate(n) for n in (3, 4, 5, 6)] == [1, 4, 7, 10]
    q0 = q_polynomial(P(3), P(3), EMPTY)
    assert q0.coeffs == (0, 0, 0, 2)
    assert [q0.evaluate(n) for n in (3, 4, 5)] == [2, 8, 20]
    assert q_polynomial(P(3), P(3), P(3, 3)).coeffs == (2,)
    with pytest.raises(ValueError, match=r"^partition 2,1 has unit parts$"):
        q_polynomial(P(2, 1), P(3), P(3))


def test_binomial_polynomial_monomials():
    q = BinomialPolynomial(EMPTY, (0, 0, 0, 2))
    assert q.monomial_coeffs() == (Fraction(0), Fraction(2, 3),
                                   Fraction(-1), Fraction(1, 3))
    assert q.monomial_string() == "n^3/3-n^2+2n/3"
    assert len(q.coeffs) == 4
    for n in range(8):
        value = sum(c * Fraction(n) ** k for k, c in enumerate(q.monomial_coeffs()))
        assert value == q.evaluate(n)
    zero = BinomialPolynomial(P(2), (0, 0))
    assert zero.coeffs == ()
    assert zero.monomial_string() == "0"
    # truncated, these would read as the coefficients (0, 1)
    with pytest.raises(ValueError, match=r"coefficient must be an integer, got Fraction\(1, 2\)"):
        BinomialPolynomial(P(3), [Fraction(1, 2), 1.9])


def test_binomial_polynomial_equality_and_domain():
    q = BinomialPolynomial(P(3), (1, 3))
    assert q == BinomialPolynomial(P(3), [1, 3, 0])
    assert q != BinomialPolynomial(P(2, 1), (1, 3))
    assert q != BinomialPolynomial(P(3), (1, 2))
    assert q != (1, 3)
    assert q.evaluate(3) == 1
    with pytest.raises(ValueError, match=r"evaluation point must be an integer of at least 3, got 2"):
        q.evaluate(2)


def test_convolve_C_classes():
    got = convolve_C_classes(P(3), P(3), 4)
    assert got == ClassVector({EMPTY: 8, P(3): 4, P(2, 2): 8})
    assert convolve_C_classes(P(3), P(3), 3) == ClassVector({EMPTY: 2, P(3): 1})
    got = convolve_C_classes(EMPTY, P(2, 2), 5)
    assert got == ClassVector({P(2, 2): 1})
    with pytest.raises(ValueError):
        convolve_C_classes(P(2, 1), P(2), 5)
    with pytest.raises(ValueError):
        convolve_C_classes(P(3), P(2), 2)


@pytest.mark.parametrize("sigma, tau, ns", [(P(3), P(3), range(3, 7)),
                                             (P(2, 2), P(3), range(4, 8)),
                                             (P(2), P(2), range(2, 5))])
def test_psi_drops_terms_above_n(sigma, tau, ns):
    # the untruncated product keeps terms of size above n, which psi skips
    whole = multiply(ClassVector.basis(sigma), ClassVector.basis(tau))
    for n in ns:
        got = to_C_basis(whole, n)
        assert got == convolve_C_classes(sigma, tau, n) == oracle_convolve(sigma, tau, n)


def test_oracle_examples():
    v = multiply(ClassVector.basis(P(2)), ClassVector.basis(P(2)), n=4)
    assert to_C_basis(v, 4) == oracle_convolve(P(2), P(2), 4)
    want = ClassVector({EMPTY: 40, P(3): 10, P(2, 2): 8, P(5): 5, P(3, 3): 2})
    assert oracle_convolve(P(3), P(3), 6) == want
    assert oracle_convolve(EMPTY, P(2), 3) == to_C_basis(ClassVector.basis(P(2)), 3)
    assert oracle_convolve(P(3), P(3), 8) == to_C_basis(
        multiply(ClassVector.basis(P(3)), ClassVector.basis(P(3)), n=8), 8)


def test_oracle_skips_oversized_classes():
    assert not oracle_convolve(P(4), P(2), 3).nums


@settings(max_examples=50, deadline=None)
@given(small, small, st.data())
def test_truncated_product_matches_oracle(sigma, tau, data):
    # suite_oracle only takes n = |sigma|+|tau|; below that, the terms of
    # size above n must drop out of the product as they do in S_n
    n = data.draw(st.integers(min_value=max(sigma.size(), tau.size()), max_value=6))
    got = to_C_basis(multiply(ClassVector.basis(sigma), ClassVector.basis(tau), n), n)
    assert got == oracle_convolve(sigma, tau, n)


def test_to_C_basis():
    v = ClassVector({P(2, 1): 1, P(2): 2})
    got = to_C_basis(v, 4)
    # C_{(2,1);4} = C_{(2);4}; the (2,1) term carries binomial C(4-3+1, 1)
    assert got == ClassVector({P(2): comb(2, 1) * 1 + 2})


def test_to_C_basis_matches_per_term_fraction_sum():
    mixed = ClassVector({rho: Fraction((-1) ** i * (i + 2), i % 5 + 1)
                         for i, rho in enumerate(partitions_up_to(4))})
    # (2,1) and (2) both map to C_(2) at n = 3 with binomial 1: they cancel
    cancel = ClassVector({P(2, 1): Fraction(2, 3), P(2): Fraction(-2, 3), P(3): Fraction(1, 2)})
    product = multiply(mixed, ClassVector({P(2): Fraction(1, 3), P(1): Fraction(-3, 4)}))
    for v in [mixed, cancel, product, ClassVector({}), ClassVector.basis(EMPTY)]:
        for n in range(_top(v) + 2):
            got = to_C_basis(v, n)
            assert list(got.terms.items()) == _per_term_psi(v, n), (v, n)
            assert got.level == n and all(type(c) is Fraction for c in got.terms.values())
    assert to_C_basis(cancel, 3) == ClassVector({P(3): Fraction(1, 2)})


def test_to_C_basis_refuses_level_below_n():
    # a product truncated at 3 lacks the (2,2) term that S_4 sees
    v = multiply(ClassVector.basis(P(2)), ClassVector.basis(P(2)), n=3)
    assert convolve_C_classes(P(2), P(2), 4).terms.get(P(2, 2), 0) == 2
    with pytest.raises(ValueError, match=r"level 3 .* n = 4"):
        to_C_basis(v, 4)
    assert to_C_basis(v, 3) == convolve_C_classes(P(2), P(2), 3)
    assert to_C_basis(v, 2) == oracle_convolve(P(2), P(2), 2)


NOT_LEVELS = [2.5, 2.0, -3, True, False, Fraction(2)]


@pytest.mark.parametrize("level", NOT_LEVELS)
def test_class_vector_level_must_be_nonnegative_int(level):
    with pytest.raises(ValueError, match="truncation level must be a nonnegative integer, got "):
        ClassVector({P(1): 1}, level=level)
    assert ClassVector({}, level=0).level == 0


@pytest.mark.parametrize("n", NOT_LEVELS)
def test_multiply_level_must_be_nonnegative_int(n):
    u = ClassVector.basis(P(2))
    with pytest.raises(ValueError, match="truncation level must be a nonnegative integer, got "):
        multiply(u, u, n=n)
    assert multiply(u, u, n=2) == ClassVector({P(1, 1): 1})
    assert not multiply(u, u, n=0).nums


@pytest.mark.parametrize("n", [True, 4.0, Fraction(4), -1])
def test_convolve_C_classes_n_must_be_nonnegative_int(n):
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        convolve_C_classes(EMPTY, EMPTY, n)


@pytest.mark.parametrize("n", [True, 4.0, Fraction(4), -1])
def test_to_C_basis_n_must_be_nonnegative_int(n):
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        to_C_basis(ClassVector.basis(P(2)), n)


@pytest.mark.parametrize("n", [True, 4.0, Fraction(4), -1])
def test_psi_image_n_must_be_nonnegative_int(n):
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        psi_image(P(1), n)


def test_class_vector_basics():
    v = ClassVector({P(2): Fraction(1, 2), P(1): 0})
    assert v.terms.get(P(1), 0) == 0 and P(1) not in v.terms
    assert v.support() == [P(2)]
    with pytest.raises(ValueError):
        ClassVector({P(3): 1}, level=2)
    half = Fraction(1, 2)
    u = ClassVector({P(2): half, P(1): 3})
    # every coefficient reads back as a Fraction equal to the one given
    assert u.terms[P(2)] == half and type(u.terms[P(1)]) is Fraction
    # a product drops the terms above the lower truncation level
    assert not multiply(ClassVector.basis(P(3)), ClassVector.basis(EMPTY, 2)).nums


def _assert_canonical(v):
    """nums over den in lowest terms, no zero numerator, and the public
    constructor rebuilds the same fields from the Fractions read back."""
    assert v.den > 0 and gcd(v.den, *v.nums.values()) == 1, v
    assert all(type(c) is int and c for c in v.nums.values()), v
    assert all(type(c) is Fraction for c in v.terms.values()), v
    assert ClassVector(v.terms, v.level) == v, v


@pytest.mark.parametrize("c", [0.1, 1.0, 0.0, True, False])
def test_class_vector_coefficients_must_be_int_or_fraction(c):
    # a float would be read in binary and a bool as 0 or 1
    with pytest.raises(ValueError, match="coefficients must be integers or Fractions"):
        ClassVector({P(2): c})
    assert ClassVector({P(2): Fraction(1, 10)}).terms == {P(2): Fraction(1, 10)}


def test_class_vector_canonical_form():
    a = ClassVector({P(2): Fraction(1, 6), P(1): 2, EMPTY: Fraction(4, 6), P(3): 0,
                     P(2, 1): Fraction(0, 5)})
    b = ClassVector({P(1): Fraction(1, 3), P(2): Fraction(-1, 3), P(1, 1): Fraction(2, 3)})
    # equal values given as ints, equal Fractions and repeated denominators
    same = [ClassVector({P(2): 2, P(1): 4}), ClassVector({P(1): Fraction(8, 2), P(2): 2}),
            ClassVector({P(2): Fraction(6, 3), P(1): Fraction(12, 3)}, level=5)]
    cancel = ClassVector({P(1): 1, EMPTY: -1})
    built = [a, b, *same, cancel, ClassVector({}), ClassVector({P(3): Fraction(0)}),
             ClassVector.basis(EMPTY), ClassVector.basis(P(2, 2))]
    # products and psi sums whose integer sums share a factor with their
    # denominator: b times 3 A(2) over 3, a times 6 over 6, (1/2) A(2) times
    # 2 A(2) over 2, and (1/2) A(1) at n = 2 adds 1 C(2, 1) over 2
    scaled = [multiply(b, ClassVector({P(2): 3})), multiply(a, ClassVector({EMPTY: 6})),
              multiply(ClassVector({P(2): Fraction(1, 2)}), ClassVector({P(2): 2})),
              to_C_basis(ClassVector({P(1): Fraction(1, 2)}), 2)]
    built += scaled + [
        multiply(a, ClassVector({})), multiply(b, ClassVector({EMPTY: 2})),
        multiply(b, ClassVector({EMPTY: 3})), multiply(a, b), multiply(a, b, 2),
        multiply(cancel, ClassVector.basis(P(1))), convolve_C_classes(P(2), P(2), 4)]
    built += [to_C_basis(v, n) for v in (a, b, multiply(a, b)) for n in range(5)]
    for v in built:
        _assert_canonical(v)
    assert same[0].den == 1 and same[0] == same[1] == same[2]
    assert [v.den for v in scaled] == [1, 1, 1, 1]
    assert multiply(b, ClassVector({EMPTY: 2})).den == 3
    assert multiply(b, ClassVector({EMPTY: 3})).den == 1
    assert multiply(a, ClassVector({})).den == 1 and not multiply(a, ClassVector({})).nums
    for u in built:
        for v in built:
            assert (u == v) == (u.terms == v.terms), (u, v)


def test_identity_rows_closed_form():
    # against verify's closed form, keys in order
    rows = 0
    for k in range(7):
        ones = P(*[1] * k)
        for rho in partitions_up_to(7):
            want = vf._identity_row(k, rho)
            assert list(product_expansion(ones, rho).items()) == want, (k, rho)
            top = k + rho.size()
            for n in [None, *range(top + 2)]:
                got = multiply(ClassVector.basis(ones), ClassVector.basis(rho), n)
                assert got == ClassVector({mu: g for mu, g in want
                                           if n is None or mu.size() <= n}), (k, rho, n)
                assert got.level == n
            rows += 1
    assert rows == 315


@pytest.mark.parametrize("k, rho", [(12, P(7, 5)), (14, P(14))])
def test_identity_rows_closed_form_large(k, rho):
    # beyond the counted guard's reach: 1 + min(k, |rho|) terms, keys in order
    ones = P(*[1] * k)
    got = product_expansion(ones, rho)
    assert list(got.items()) == vf._identity_row(k, rho)
    assert list(got) == sorted(got, key=Partition.sort_key)
    assert len(got) == 1 + min(k, rho.size())


def test_oracle_suite_checks_identity_rows(monkeypatch):
    # a corrupted row fails the closed-form line of its total and no other
    real = class_algebra.product_expansion

    def corrupted(sigma, tau):
        got = real(sigma, tau)
        if (sigma, tau) == (P(1, 1), P(2)):
            got = {**got, P(2, 1): got[P(2, 1)] + 1}
        return got

    monkeypatch.setattr(class_algebra, "product_expansion", corrupted)
    lines = {c.label: c for c in vf.suite_oracle(5) if "closed form" in c.label}
    assert len(lines) == 6
    for total in range(6):
        check = lines[f"A(1^k)*A(rho) closed form, k+|rho| = {total}"]
        assert check.ok == (total != 4), check
    assert "(2, Partition((2,)))" in lines["A(1^k)*A(rho) closed form, k+|rho| = 4"].detail
