"""Independent brute-force routes used to validate the package's fast paths.

Everything here is deliberately naive: enumeration and textbook linear
algebra over exact rationals, sharing no code with the fast path each
route checks.  enumerate_F_naive convolves, with the package's own filling
convolution (tested on its own), every pair of the fillings that
fillings_of_shape lists here; it shares nothing with enumerate_F's
reading-order walk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Iterator

from classconv.fillings import Filling, canonical_filling, convolve
from classconv.partitions import Partition, enumerate_partitions


def falling_factorial(n: int, k: int) -> int:
    """(n)_k = n (n-1) ... (n-k+1), multiplied out; the reference for the
    math.perm that the package's shifted evaluations use, and the level
    scale of the tests' character sums."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def conjugate_parts(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of lam', column lengths of lam's diagram counted cell by
    cell; the reference for the bead-mask conjugation of the characters
    module."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def partitions_brute(r: int) -> set[tuple[int, ...]]:
    """All partitions of r by unordered recursive splitting."""
    if r == 0:
        return {()}
    out = set()
    for first in range(1, r + 1):
        for rest in partitions_brute(r - first):
            out.add(tuple(sorted((first,) + rest, reverse=True)))
    return out


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by the hook length
    formula: the reference for the dimensions the characters module reads
    off the column of 1^n."""
    parts = lam.parts
    conj = conjugate_parts(parts)
    d = factorial(lam.size())
    for i, part in enumerate(parts):
        for j in range(part):
            d //= part - j + conj[j] - i - 1
    return d


def syt_count_brute(lam: Partition) -> int:
    """Count standard Young tableaux by checking every arrangement."""
    n = lam.size()
    rows = lam.parts
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = []
        i = 0
        for ln in rows:
            grid.append(perm[i:i + ln])
            i += ln
        ok = all(row[j] < row[j + 1] for row in grid for j in range(len(row) - 1))
        if ok:
            ok = all(grid[i][j] < grid[i + 1][j]
                     for i in range(len(grid) - 1)
                     for j in range(len(grid[i + 1])))
        if ok:
            count += 1
    return count


@cache
def skew_syt_count_brute(lam: Partition, mu: Partition) -> int:
    """Count standard tableaux of the skew shape by brute placement; 0 if mu
    is not contained in lam.  Cached: the shifted Schur test reads each pair
    once per class."""
    if mu.length() > lam.length() or any(m > l for m, l in zip(mu.parts, lam.parts)):
        return 0
    cells = [(i, j) for i, ln in enumerate(lam.parts)
             for j in range(ln) if j >= (mu.parts[i] if i < mu.length() else 0)]
    k = len(cells)
    count = 0
    for perm in permutations(range(1, k + 1)):
        grid = dict(zip(cells, perm))
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < v:
                ok = False
                break
        if ok:
            count += 1
    return count


def _perm_character(lam: Partition, rho: Partition) -> int:
    """Character of the Young permutation module: count row assignments of
    the cycles of a permutation of type rho filling each row of lam exactly."""
    cycles = list(rho.parts)
    caps = list(lam.parts)

    def place(i: int) -> int:
        if i == len(cycles):
            return 1 if all(c == 0 for c in caps) else 0
        total = 0
        for r in range(len(caps)):
            if caps[r] >= cycles[i]:
                caps[r] -= cycles[i]
                total += place(i + 1)
                caps[r] += cycles[i]
        return total

    return place(0)


def _border_strip_removals(lam: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Ways to remove a border strip of size k, as (new shape, height)."""
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        nbeta = sorted((x for x in beta if x != b), reverse=True)
        nbeta.append(nb)
        nbeta.sort(reverse=True)
        parts = tuple(nbeta[j] - (ell - 1 - j) for j in range(ell))
        yield tuple(x for x in parts if x), height


@cache
def character_beta_tuples(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on beta-number lists, one memo entry per
    (shape, cycle type) pair: fast enough for tables through S_14."""
    if not rho:
        return 1
    total = 0
    for mu, height in _border_strip_removals(lam, rho[0]):
        total += (-1) ** height * character_beta_tuples(mu, rho[1:])
    return total


def character_table_bruteforce(n: int) -> dict[tuple[Partition, Partition], int]:
    """Irreducible characters by orthogonalizing permutation characters.

    Permutation characters expand over irreducibles with unitriangular
    Kostka coefficients in dominance order, so processing labels in
    reverse-lexicographic order and subtracting projections recovers each
    irreducible exactly.
    """
    labels = enumerate_partitions(n)

    def inner(f: dict, g: dict) -> Fraction:
        return sum((Fraction(f[r] * g[r], r.centralizer_size()) for r in labels),
                   Fraction(0))

    table: dict[tuple[Partition, Partition], int] = {}
    done: list[tuple[Partition, dict]] = []
    for lam in labels:
        row = {rho: Fraction(_perm_character(lam, rho)) for rho in labels}
        for _, chi in done:
            coeff = inner(row, chi)
            if coeff:
                row = {rho: row[rho] - coeff * chi[rho] for rho in labels}
        norm = inner(row, row)
        assert norm == 1, f"orthogonalization failed at {lam}: norm {norm}"
        for rho in labels:
            assert row[rho].denominator == 1
            table[(lam, rho)] = row[rho].numerator
        done.append((lam, row))
    return table


def rank_over_Q(rows: list[list[Fraction]]) -> int:
    """Row rank by fraction-exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] / pv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _arrangements(size: int, pts: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Every reading order of `size` of the sorted points: each combination
    of them, then each permutation of that combination."""
    for chosen in combinations(pts, size):
        yield from permutations(chosen)


def fillings_of_shape(shape: Partition, points: Iterable[int]) -> Iterator[Filling]:
    """All fillings of the given shape with support inside the points,
    given distinct and in increasing order, in the order of _arrangements."""
    rows = shape.parts
    for arrangement in _arrangements(shape.size(), points):
        start, out = 0, []
        for ln in rows:
            out.append(arrangement[start:start + ln])
            start += ln
        yield Filling(out)


def enumerate_F_naive(sigma: Partition, tau: Partition,
                      rho: Partition) -> list[tuple[Filling, Filling]]:
    """The pairs of fillings.enumerate_F, found by convolving every
    S-filling with every T-filling on {1..|rho|}: no reading-order walk."""
    r = rho.size()
    target = canonical_filling(rho)
    points = range(1, r + 1)
    t_all = list(fillings_of_shape(tau, points))
    out = []
    for s in fillings_of_shape(sigma, points):
        for t in t_all:
            if convolve(s, t) == target:
                out.append((s, t))
    return out
