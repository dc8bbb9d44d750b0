import random
from fractions import Fraction
from math import factorial
from operator import mul

import pytest

from classconv import characters, class_algebra
from classconv.characters import CharacterTable, F_eval, character, p_sharp, s_star, x_mu
from classconv.class_algebra import ClassVector, multiply
from classconv.partial_perm import enumerate_semigroup
from classconv.partitions import EMPTY, Partition, enumerate_partitions, partitions_up_to
from classconv.semigroup_algebra import SemigroupAlgebraElement, class_element
from classconv.verify import suite_homomorphism
from oracles import (_border_strip_removals, character_beta_tuples, character_table_bruteforce,
                     conjugate_parts, dimension, falling_factorial, skew_syt_count_brute,
                     syt_count_brute)

P = lambda *parts: Partition(parts)


def table_dimensions(t):
    """The dimensions of a CharacterTable: its column of 1^n."""
    one = t.labels.index(Partition((1,) * t.n))
    return [row[one] for row in t.matrix]


def test_character_examples():
    for n in range(1, 7):
        for rho in enumerate_partitions(n):
            assert character(Partition((n,)), rho) == 1
        assert character(Partition((1,) * n), Partition((n,))) == (-1) ** (n - 1)
    assert character(P(2, 1), P(1, 1, 1)) == 2
    with pytest.raises(ValueError):
        character(P(2), P(1, 1, 1))


def test_character_against_bruteforce_table():
    for n in range(6):
        table = character_table_bruteforce(n)
        for (lam, rho), val in table.items():
            assert character(lam, rho) == val


def test_dimension():
    for n in range(1, 8):
        assert dimension(Partition((n,))) == 1
        assert dimension(Partition((1,) * n)) == 1
    assert dimension(P(2, 1)) == 2
    for lam in partitions_up_to(5):
        assert dimension(lam) == syt_count_brute(lam)
    for n in range(8):
        ones = Partition((1,) * n)
        for lam in enumerate_partitions(n):
            assert character(lam, ones) == dimension(lam)


def test_orthogonality():
    for n in range(8):
        parts = enumerate_partitions(n)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                row = sum(Fraction(character(lam, r) * character(mu, r),
                                   r.centralizer_size()) for r in parts)
                assert row == (1 if lam == mu else 0)
        for i, r1 in enumerate(parts):
            for r2 in parts[i:]:
                col = sum(character(lam, r1) * character(lam, r2) for lam in parts)
                want = r1.centralizer_size() if r1 == r2 else 0
                assert col == want


def test_conjugate_reads_carry_eps_at_15_to_20():
    # a conjugate lam' is read off its representative's entry times eps_rho:
    # seeded lam, their lam' and self-conjugate shapes against beta tuples,
    # at cycle types of at most 3 parts, past the sizes the tables cover
    rng = random.Random(31)
    flipped_odd = 0
    for n in range(15, 21):
        labels = enumerate_partitions(n)
        short = [rho for rho in labels if rho.length() <= 3]
        selfconj = [lam for lam in labels if conjugate_parts(lam.parts) == lam.parts]
        shapes = rng.sample(labels, 4) + rng.sample(selfconj, min(2, len(selfconj)))
        shapes += [Partition(conjugate_parts(lam.parts)) for lam in shapes]
        if n == 15:
            shapes.append(P(5, 4, 3, 2, 1))
        for lam in shapes:
            flip = characters._shape(lam.parts)[1]
            for rho in rng.sample(short, 6) + [Partition((n,)), Partition((n - 1, 1))]:
                chi = character(lam, rho)
                assert chi == character_beta_tuples(lam.parts, rho.parts), (lam, rho)
                flipped_odd += flip and (n - rho.length()) % 2 == 1 and chi != 0
    assert flipped_odd


def test_tables_match_beta_tuple_route():
    for n in range(15):
        t = CharacterTable(n)
        assert t.labels == enumerate_partitions(n)
        assert t.matrix == [[character_beta_tuples(lam.parts, rho.parts) for rho in t.labels]
                            for lam in t.labels]
    for m in range(12):
        labels = enumerate_partitions(m)
        masks = [characters._beads(lam.parts) for lam in labels]
        reps, positions = characters._positions(m)
        # the position cache iterates every mask in canonical order
        assert list(positions) == masks
        # the representatives: lam at or before lam' in canonical order
        index = {lam.parts: i for i, lam in enumerate(labels)}
        half = [lam.parts for lam in labels if index[lam.parts] <= index[conjugate_parts(lam.parts)]]
        assert reps == tuple(characters._beads(lam) for lam in half)
        where = {lam: h for h, lam in enumerate(half)}
        # each shape as (half index, flip): its own index, or its conjugate's
        shapes = [(where[lam.parts], 0) if lam.parts in where
                  else (where[conjugate_parts(lam.parts)], 1) for lam in labels]
        ones = characters._column((1,) * m)
        for lam, mask, (h, flip) in zip(labels, masks, shapes):
            assert characters._conjugate(mask) == characters._beads(conjugate_parts(lam.parts))
            assert positions[mask] == h + flip * len(half), lam
            assert characters._shape(lam.parts) == (h, flip, ones[h]), lam
        for mu in labels:
            column = characters._column(mu.parts)
            assert len(column) == len(half), mu
            # the half column, expanded by eps_mu, on every shape
            eps = (-1) ** (m - mu.length())
            assert [column[h] * eps ** flip for h, flip in shapes] == [
                character_beta_tuples(lam.parts, mu.parts) for lam in labels], mu


def test_strip_tables_match_border_strip_oracle():
    # each run of _strips(m, k), decoded through _positions(m - k) to
    # (shape, sign), is the oracle's list of size-k border strip removals
    shapes = {characters._beads(lam.parts): lam.parts for lam in partitions_up_to(14)}
    for m in range(1, 15):
        reps = characters._positions(m)[0]
        hooks = [0] * len(reps)
        for k in range(1, m + 1):
            below, positions = characters._positions(m - k)
            width = 2 * len(below)
            mask_at = {p: mask for mask, p in positions.items()}
            flat, ends = characters._strips(m, k)
            assert (flat.typecode, ends.typecode, len(ends)) == ("i", "i", len(reps) + 1)
            for h, mask in enumerate(reps):
                run = flat[ends[h]:ends[h + 1]]
                assert all(0 <= i < 2 * width for i in run), (m, k, h)
                got = sorted((shapes[mask_at[i % width]], -1 if i >= width else 1) for i in run)
                want = sorted((mu, (-1) ** height)
                              for mu, height in _border_strip_removals(shapes[mask], k))
                assert got == want, (m, k, shapes[mask])
                hooks[h] += len(run)
        # one strip per hook: m cells, m hooks
        assert hooks == [m] * len(reps), m


def test_large_tables_against_closed_forms():
    # the sizes the characters benchmark workload builds, past the beta-tuple check
    for n in range(15, 19):
        t = CharacterTable(n)
        assert t.labels == enumerate_partitions(n)
        dims = table_dimensions(t)
        assert dims == [dimension(lam) for lam in t.labels]
        assert sum(d * d for d in dims) == factorial(n)
        assert t.matrix[t.labels.index(P(n))] == [1] * len(t.labels)
        assert t.matrix[t.labels.index(Partition((1,) * n))] == [
            (-1) ** (n - rho.length()) for rho in t.labels]


def test_column_cache_keeps_suffixes_not_tables():
    # a table's own columns are built past the cache: only the proper
    # suffixes its columns were built from stay
    characters._column.cache_clear()
    CharacterTable(12)
    suffixes = {rho.parts[i:] for rho in enumerate_partitions(12)
                for i in range(1, rho.length() + 1)}
    held = characters._column.cache_info()
    assert held.misses == held.currsize == len(suffixes)
    for parts in suffixes:
        characters._column(parts)
    again = characters._column.cache_info()
    assert (again.hits, again.misses, again.currsize) == (
        held.hits + len(suffixes), held.misses, held.currsize)
    # single reads past every table the tests build, against closed forms
    for n in range(19, 25):
        labels = enumerate_partitions(n)
        hook = P(n - 1, 1)
        for rho in labels[::len(labels) // 8] + [labels[-1]]:
            assert character(P(n), rho) == 1
            assert character(Partition((1,) * n), rho) == (-1) ** (n - rho.length())
            assert character(hook, rho) == rho.multiplicity(1) - 1, rho


def test_strip_tables_shared_by_size_and_first_part():
    # one strip table per (|c|, c_1) of the columns a table builds, its own
    # and their suffixes; a second table builds none
    characters._column.cache_clear()
    characters._strips.cache_clear()
    CharacterTable(12)
    keys = {(sum(rho.parts[i:]), rho.parts[i]) for rho in enumerate_partitions(12)
            for i in range(rho.length())}
    held = characters._strips.cache_info()
    assert held.misses == held.currsize == len(keys)
    for m, k in keys:
        characters._strips(m, k)
    assert characters._strips.cache_info().misses == held.misses
    CharacterTable(12)
    again = characters._strips.cache_info()
    assert (again.misses, again.currsize) == (held.misses, held.currsize)


def test_tables_and_evaluations_build_no_product_data():
    # characters builds no level table (hook products and classes), and the
    # evaluations read dim lam off the column of 1^n
    for cache in (characters._positions, characters._column,
                  characters._s_star_weights, class_algebra._level_table):
        cache.cache_clear()
    CharacterTable(12)
    lam = P(4, 2, 1)
    value = p_sharp(P(3, 1), lam)
    s_star(P(2, 1), lam)
    s_star(P(3, 3), P(6, 2))
    F_eval(ClassVector({P(3): Fraction(1, 2), P(1, 1): 2}), lam)
    assert class_algebra._level_table.cache_info().currsize == 0
    # the dimension read off the column is the hook length formula's
    assert value == Fraction(falling_factorial(7, 4) * character(lam, P(3, 1).pad(7)),
                             dimension(lam))


def test_table_column_orthogonality():
    for n in range(16):
        t = CharacterTable(n)
        columns = list(zip(*t.matrix))
        for i, r1 in enumerate(t.labels):
            for j in range(i, len(t.labels)):
                dot = sum(map(mul, columns[i], columns[j]))
                assert dot == (r1.centralizer_size() if i == j else 0), (n, r1, t.labels[j])


def test_character_table_object():
    def value(t, lam, rho):
        return t.matrix[t.labels.index(lam)][t.labels.index(rho)]

    t = CharacterTable(4)
    assert value(t, P(2, 1, 1), P(2, 2)) == -1
    assert value(t, P(2, 2), P(2, 1, 1)) == 0
    assert value(t, P(4), P(2, 1, 1)) == 1
    assert table_dimensions(t) == [dimension(lam) for lam in t.labels]
    for n in range(8):
        t = CharacterTable(n)
        assert table_dimensions(t) == [dimension(lam) for lam in t.labels]
        for lam in t.labels:
            for rho in t.labels:
                assert value(t, lam, rho) == character(lam, rho)


def test_p_sharp():
    for lam in partitions_up_to(6):
        assert p_sharp(P(1), lam) == lam.size()
    assert p_sharp(P(3, 2), P(2, 1)) == 0
    assert p_sharp(P(2), P(2)) == 2
    assert p_sharp(EMPTY, P(3, 1)) == 1


def test_p_sharp_degree_along_one_row_shapes():
    # along lambda = (t) the value is a polynomial in t of degree exactly
    # |rho|: the (r+1)-st finite difference vanishes, the r-th equals r!
    for rho in partitions_up_to(5):
        r = rho.size()
        values = [p_sharp(rho, Partition((t,))) for t in range(1, r + 3)]
        diffs = values
        for _ in range(r):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == factorial(r) for d in diffs)
        final = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in final)


def test_s_star():
    assert s_star(EMPTY, P(3, 1)) == 1
    for lam in partitions_up_to(5):
        assert s_star(P(1), lam) == lam.size()
    for mu in partitions_up_to(5):
        if not mu.size():
            continue
        for lam in partitions_up_to(mu.size() - 1):
            assert s_star(mu, lam) == 0


def test_s_star_matches_fraction_sum():
    # the integer-numerator form against the sum of p# over classes
    for mu in partitions_up_to(6):
        rhos = enumerate_partitions(mu.size())
        for lam in partitions_up_to(10):
            want = sum((Fraction(character(mu, rho), rho.centralizer_size()) * p_sharp(rho, lam)
                        for rho in rhos), Fraction(0))
            got = s_star(mu, lam)
            assert isinstance(got, Fraction) and got == want, (mu, lam)


def test_shifted_schur_chain():
    # both published equalities, via the s* route and via skew dimensions:
    # s*_mu(lam) = (n)_r dim(lam/mu) / dim lam (Okounkov-Olshanski), the
    # skew dimension counted by brute placement
    skew = skew_syt_count_brute
    assert skew(P(2, 2), P(1)) == 2
    assert skew(P(2, 1), P(3)) == 0
    for lam in partitions_up_to(6):
        assert skew(lam, EMPTY) == dimension(lam)
        assert skew(lam, lam) == 1
    for lam in partitions_up_to(6):
        n = lam.size()
        d = dimension(lam)
        for r in range(n + 1):
            mus = enumerate_partitions(r)
            for rho in mus:
                via_s = sum(s_star(mu, lam) * character(mu, rho) for mu in mus)
                via_skew = Fraction(
                    sum(skew(lam, mu) * character(mu, rho) for mu in mus), d)
                target = Fraction(
                    falling_factorial(n, r) * character(lam, rho.pad(n)), d)
                assert via_s == target
                assert via_skew * falling_factorial(n, r) == target * 1
                assert via_skew == Fraction(character(lam, rho.pad(n)), d)


def test_F_eval_unit_and_homomorphism():
    for lam in partitions_up_to(5):
        assert F_eval(ClassVector.basis(EMPTY), lam) == 1
    # multiplicativity through evaluation shapes two beyond the stability bound
    for sigma in partitions_up_to(4):
        u = ClassVector.basis(sigma)
        for tau in partitions_up_to(4):
            v = ClassVector.basis(tau)
            prod = multiply(u, v)
            for lam in partitions_up_to(sigma.size() + tau.size() + 2):
                assert F_eval(prod, lam) == F_eval(u, lam) * F_eval(v, lam), (
                    sigma, tau, lam)


def test_homomorphism_suite_evaluates_every_level_of_its_products():
    # |lambda| runs to 2 max_factor, the top level of the largest product:
    # 4 factors squared times the 12 shapes up to 4
    first = suite_homomorphism(2)[0]
    assert first.ok, first
    assert first.label.endswith("|sigma|,|tau| <= 2, |lambda| <= 4"), first
    assert first.detail == "192 evaluations"


def test_F_eval_matches_per_term_sum():
    # the one-numerator sum against c p#_rho / z_rho summed as Fractions
    mixed = ClassVector({rho: Fraction((-1) ** i * (i + 1), i % 5 + 1)
                         for i, rho in enumerate(partitions_up_to(5))})
    beyond = ClassVector({EMPTY: Fraction(-3, 4), P(2, 1): Fraction(5, 6),
                          P(4, 4): Fraction(-2, 3), P(5, 2, 1): 7, P(1, 1): Fraction(1, 9)})
    vectors = [mixed, beyond, ClassVector({}), ClassVector.basis(EMPTY)]
    for lam in partitions_up_to(7):
        for v in vectors:
            want = sum((c * p_sharp(rho, lam) / rho.centralizer_size()
                        for rho, c in v.terms.items()), Fraction(0))
            got = F_eval(v, lam)
            assert isinstance(got, Fraction) and got == want, (v, lam)


def test_F_eval_refuses_truncated_vector_above_its_level():
    # A(2)^2 truncated at 3 lacks its (2,2) term; F((4)) of the full square is 36
    a2 = ClassVector.basis(P(2))
    cut = multiply(a2, a2, n=3)
    assert F_eval(multiply(a2, a2), P(4)) == F_eval(a2, P(4)) ** 2 == 36
    with pytest.raises(ValueError, match=r"level 3 .* \|lam\| = 4"):
        F_eval(cut, P(4))
    with pytest.raises(ValueError, match=r"level 3 .* \|lam\| = 4"):
        F_eval(cut, P(2, 1, 1))
    # at |lam| = level the truncated vector is still the product
    for lam in partitions_up_to(3):
        assert F_eval(cut, lam) == F_eval(a2, lam) ** 2, lam
    assert F_eval(cut, P(3)) == 9
    assert F_eval(ClassVector.basis(EMPTY, 0), EMPTY) == 1


def test_s_star_cache_holds_nonzero_weights_of_asked_mu():
    cache = characters._s_star_weights
    cache.cache_clear()
    asked = [P(2, 1), P(3, 2), EMPTY, P(2, 1), P(4)]
    for mu in asked:
        s_star(mu, P(5, 1))
    # |mu| > |lam| is answered without reading the cache
    assert s_star(P(4, 3), P(2)) == 0
    distinct = {mu.parts for mu in asked}
    held = cache.cache_info()
    assert held.currsize == held.misses == len(distinct)
    for parts in distinct:
        mu, r = Partition(parts), sum(parts)
        want = [(rho, character(mu, rho) * (factorial(r) // rho.centralizer_size()))
                for rho in enumerate_partitions(r) if character(mu, rho)]
        # as they are, then times eps_rho, the list a conjugate lam reads
        assert cache(parts) == (tuple((rho.parts, w) for rho, w in want),
                                tuple((rho.parts, (-1) ** (r - rho.length()) * w)
                                      for rho, w in want)), mu
    again = cache.cache_info()
    assert (again.hits, again.misses) == (held.hits + len(distinct), held.misses)
    # chi^(2,1) vanishes on (2,1), so that class is not listed
    assert [rho for rho, _ in cache((2, 1))[0]] == [(3,), (1, 1, 1)]


def test_x_mu():
    assert x_mu(P(1)) == ClassVector({P(1): 1})
    for m in range(1, 5):
        xv = x_mu(Partition((m,)))
        assert all(c == 1 for c in xv.terms.values())
        assert set(xv.terms) == set(enumerate_partitions(m))
    for mu in partitions_up_to(3):
        for lam in partitions_up_to(5):
            assert F_eval(x_mu(mu), lam) == s_star(mu, lam)


def test_x_mu_expansion_in_semigroup_algebra():
    # the character-weighted sum over all partial permutations of degree m
    # groups by cycle type into the class expansion
    for n in range(5):
        for mu in partitions_up_to(min(n, 3)):
            m = mu.size()
            direct = SemigroupAlgebraElement({}, n)
            for pp in enumerate_semigroup(n):
                if len(pp.support) != m:
                    continue
                chi = character(mu, pp.cycle_type())
                if chi:
                    direct = direct + chi * SemigroupAlgebraElement.basis(pp, n)
            via_classes = SemigroupAlgebraElement({}, n)
            for rho, c in x_mu(mu).terms.items():
                via_classes = via_classes + c * class_element(rho, n)
            assert direct == via_classes
