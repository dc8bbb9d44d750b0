"""Seeded request streams for the four workloads.

Stdlib only: a stream depends on the workload name and the seed and on
nothing in the program under test, so two commits receive the same
requests.  A request is a JSON list ``[op, *args]``; partitions are lists
of parts, fillings lists of rows.

Each workload is a closed loop with one client: the worker sends a request
only after the previous one has returned.  Within a stream the seed picks
*which* inputs are asked, while the amount of predicted work stays fixed,
so that a stream's cost hardly depends on the seed:

- ``products`` sorts the eligible pairs by predicted enumeration work and
  draws one pair from each of ``PRODUCTS_REQUESTS`` equal blocks;
- ``fillings`` splits the (sigma, r) combinations, sorted by the number
  of S-fillings each enumerates, into blocks of five and puts one of each
  block into a shared run;
- ``sweep`` and ``characters`` repeat a fixed heavy request set (the
  bound-5 table, the character tables of S_10..S_18) and seed only the
  light queries around it.
"""

from __future__ import annotations

import random
from math import comb, factorial

from symmetric import (centralizer, falling, partitions, partitions_up_to,
                       structure_constants)

# products: distinct pairs with |sigma|+|tau| <= PRODUCTS_MAX_TOTAL whose
# predicted work is at most PRODUCTS_PAIR_CAP units (about 0.15 s cold),
# so that no single request dominates a repetition; the larger products
# are baseline notes instead.  A third of the 530 eligible pairs go into
# each stream, enough that the median request sits among many of like cost.
PRODUCTS_MAX_TOTAL = 11
PRODUCTS_PAIR_CAP = 30_000
PRODUCTS_REQUESTS = 176

SWEEP_BOUND = 5
SWEEP_GAMMA_K = 8
# Reads of the table, a fixed count of each kind so that the mix does not
# move with the seed.
SWEEP_QUERIES = {"f_constant": 600, "q_polynomial": 600, "multiply": 900,
                 "convolve_C_classes": 900}

FILLINGS_MAX = 4
FILLINGS_BLOCK = 5
FILLINGS_RUN = 4
FILLINGS_CONVOLVES = 44
# Triples predicting more enumerate_F work than this (about 70 ms on the
# seed code) are left out: 16 of the 3745, among them 1^4 * 1^4 -> 1^8,
# whose candidate count alone costs more than a whole stream.
FILLINGS_WORK_CAP = 3000

CHARACTERS_TABLES = range(10, 19)
CHARACTERS_MAX_LAMBDA = 12
CHARACTERS_MAX_MU = 8
CHARACTERS_QUERIES = {"p_sharp": 5000, "s_star": 5000, "F_eval": 5000}


def is_proper(parts: tuple[int, ...]) -> bool:
    return 1 not in parts


def _class_size(parts: tuple[int, ...], r: int) -> int:
    s = sum(parts)
    return comb(r, s) * factorial(s) // centralizer(parts)


def product_work(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Predicted enumeration work of A_a * A_b: the cheaper class at each
    support size r, times the targets scanned at r.  On the seed code its
    ratio to the time of one cold product varied by about 16% (coefficient
    of variation) over totals 8..11."""
    s, t = sum(a), sum(b)
    return sum(min(_class_size(a, r), _class_size(b, r)) * (len(partitions(r)) + 1)
               for r in range(max(s, t), s + t + 1))


def _random_partition(rng: random.Random, lo: int, hi: int,
                      proper: bool = False) -> list[int]:
    pool = [p for n in range(lo, hi + 1) for p in partitions(n)
            if not proper or is_proper(p)]
    return list(rng.choice(pool))


# ---------------------------------------------------------------------------
# workloads


def _product_pool() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered pairs of nonempty partitions within the bounds, by predicted work."""
    nonempty = [p for p in partitions_up_to(PRODUCTS_MAX_TOTAL) if p]
    pool = [(a, b) for i, a in enumerate(nonempty) for b in nonempty[i:]
            if sum(a) + sum(b) <= PRODUCTS_MAX_TOTAL
            and product_work(a, b) <= PRODUCTS_PAIR_CAP]
    pool.sort(key=lambda ab: (product_work(*ab), ab))
    return pool


def _product_request(rng: random.Random, a, b) -> list:
    s, t = sum(a), sum(b)
    sigma, tau = (list(a), list(b)) if rng.random() < 0.5 else (list(b), list(a))
    ops = ["product_expansion", "product_expansion_a", "multiply"]
    if is_proper(a) and is_proper(b):
        ops += ["q_polynomial", "convolve_C_classes"]
    op = rng.choice(ops)
    if op == "multiply":
        return [op, sigma, tau, rng.randint(max(s, t), s + t - 1)]
    if op == "q_polynomial":
        return [op, sigma, tau, _random_partition(rng, 0, s + t, proper=True)]
    if op == "convolve_C_classes":
        return [op, sigma, tau, rng.randint(max(s, t), s + t + 2)]
    return [op, sigma, tau]


def products(seed: int) -> list[list]:
    """Distinct product requests with |sigma|+|tau| <= 11, mostly small:
    one pair from each of PRODUCTS_REQUESTS equal blocks of the pool."""
    rng = random.Random(f"products:{seed}")
    pool = _product_pool()
    n = PRODUCTS_REQUESTS
    chosen = [pool[rng.randrange(len(pool) * i // n, len(pool) * (i + 1) // n)]
              for i in range(n)]
    rng.shuffle(chosen)
    return [_product_request(rng, a, b) for a, b in chosen]


# The filtration suite's degrees: deg1, deg2, deg3 and theta_J for
# J = {}, {1}, {2}, {1,2}, {1,3}; the scan also runs theta_J for every other
# J within {1..5}.  The suite expects none of these to report a violation.
SUITE_DEGREES = [["deg1"], ["deg2"], ["deg3"], ["theta_J", []], ["theta_J", [1]],
                 ["theta_J", [2]], ["theta_J", [1, 2]], ["theta_J", [1, 3]]]
# The cycle-count degree gamma = (0, 1, 1, ...): not a filtration; the
# scan must report sigma=(4) tau=(5) rho=(2,2,2).
CYCLE_COUNT_DEGREE = ["additive", [0] + [1] * (2 * SWEEP_BOUND - 1)]


def _scan_degrees() -> list[list]:
    subsets = [[k for k in range(1, 6) if mask >> (k - 1) & 1] for mask in range(32)]
    return [["deg1"], ["deg2"], ["deg3"], CYCLE_COUNT_DEGREE] + [
        ["theta_J", J] for J in subsets]


def sweep_gammas(K: int) -> list[list[int]]:
    """The gamma suite's sequences: deg1, deg2, deg3, then a decreasing start."""
    return [list(range(1, K + 2)), [2] + list(range(2, K + 2)), list(range(K + 1)),
            [3, 1] + list(range(4, K + 3))]


def sweep(seed: int) -> list[list]:
    """Build the bound-5 table, then read it: scans, gamma checks, queries."""
    rng = random.Random(f"sweep:{seed}")
    reads: list[list] = [["check_filtration", d, SWEEP_BOUND] for d in _scan_degrees()]
    for K in range(1, SWEEP_GAMMA_K + 1):
        reads += [["check_gamma_inequalities", g, K] for g in sweep_gammas(K)]
    nonempty = [p for p in partitions_up_to(SWEEP_BOUND) if p]
    proper = [p for p in nonempty if is_proper(p)]
    for op, count in SWEEP_QUERIES.items():
        for _ in range(count):
            a, b = (rng.choice(proper if op in ("q_polynomial", "convolve_C_classes")
                               else nonempty) for _ in range(2))
            s, t = sum(a), sum(b)
            if op == "f_constant":
                last = _random_partition(rng, max(s, t), s + t)
            elif op == "q_polynomial":
                last = _random_partition(rng, 0, s + t, proper=True)
            elif op == "convolve_C_classes":
                last = rng.randint(max(s, t), s + t + 2)
            else:
                last = rng.randint(max(s, t), s + t - 1)
            reads.append([op, list(a), list(b), last])
    rng.shuffle(reads)
    return [["g_table", SWEEP_BOUND]] + reads


def _random_filling(rng: random.Random, points: int, max_size: int) -> list[list[int]]:
    shape = _random_partition(rng, 1, max_size)
    entries = rng.sample(range(1, points + 1), sum(shape))
    rows, i = [], 0
    for part in shape:
        rows.append(entries[i:i + part])
        i += part
    return rows


def fillings_work(sigma: tuple[int, ...], tau: tuple[int, ...],
                  rho: tuple[int, ...]) -> float:
    """Predicted enumerate_F work: one unit per S-filling on {1..r} and 1.4
    per candidate T, of which there are g * z_sigma * z_tau.  Fitted to
    measured times on the seed code, within about 25%."""
    g = structure_constants(sigma, tau).get(rho, 0)
    return (falling(sum(rho), sum(sigma))
            + 1.4 * g * centralizer(sigma) * centralizer(tau))


def _fillings_request(rng: random.Random, sigma: tuple[int, ...], r: int,
                      band: int) -> list:
    """A triple for (sigma, r) from the given quarter of its options by work."""
    s = sum(sigma)
    options = sorted(
        (work, tau, rho)
        for t in range(max(1, r - s), min(FILLINGS_MAX, r) + 1)
        for tau in partitions(t) for rho in partitions(r)
        if (work := fillings_work(sigma, tau, rho)) <= FILLINGS_WORK_CAP)
    k = len(options)
    lo = min(k * band // FILLINGS_RUN, k - 1)
    hi = max(k * (band + 1) // FILLINGS_RUN, lo + 1)
    _, tau, rho = options[rng.randrange(lo, hi)]
    return ["enumerate_F", list(sigma), list(tau), list(rho)]


def fillings(seed: int) -> list[list]:
    """enumerate_F triples, half in runs sharing (sigma, r), plus convolutions.

    Every (sigma, r) with 1 <= |sigma| <= 4 and |sigma| <= r <= |sigma|+4
    is used once.  Sorted by the number of S-fillings r!/(r-|sigma|)! it
    enumerates, each block of five gives one combination a run of
    FILLINGS_RUN requests and the other four a single request each, so no
    (sigma, r) of the unshared half occurs anywhere else in the stream.  A
    run takes one triple from each quarter of its options ordered by
    predicted work, and the four singles of a block one quarter each, so
    both halves, and every seed, get the same profile of work.
    """
    rng = random.Random(f"fillings:{seed}")
    combos = [(sigma, r) for s in range(1, FILLINGS_MAX + 1) for sigma in partitions(s)
              for r in range(s, s + FILLINGS_MAX + 1)]
    combos.sort(key=lambda c: (falling(c[1], sum(c[0])), c))
    units: list[list[list]] = []
    for i in range(0, len(combos), FILLINGS_BLOCK):
        block = combos[i:i + FILLINGS_BLOCK]
        shared = block.pop(rng.randrange(len(block)))
        units.append([_fillings_request(rng, *shared, band)
                      for band in range(FILLINGS_RUN)])
        units += [[_fillings_request(rng, *c, band % FILLINGS_RUN)]
                  for band, c in enumerate(block)]
    units += [[["convolve", _random_filling(rng, 9, 5), _random_filling(rng, 9, 5)]]
              for _ in range(FILLINGS_CONVOLVES)]
    rng.shuffle(units)
    return [request for unit in units for request in unit]


def _random_class_vector(rng: random.Random) -> list:
    terms = []
    for _ in range(rng.randint(1, 4)):
        terms.append([rng.randint(-9, 9) or 1, rng.randint(1, 4),
                      _random_partition(rng, 0, CHARACTERS_MAX_MU)])
    return terms


def characters(seed: int) -> list[list]:
    """Cold character tables of S_10..S_18, then p#, s* and F queries:
    a fixed count of each kind, |lam| cycling through 1..12."""
    rng = random.Random(f"characters:{seed}")
    queries: list[list] = []
    for op, count in CHARACTERS_QUERIES.items():
        for i in range(count):
            n = 1 + i % CHARACTERS_MAX_LAMBDA
            lam = list(rng.choice(partitions(n)))
            if op == "p_sharp":
                queries.append([op, _random_partition(rng, 1, n), lam])
            elif op == "s_star":
                queries.append([op, _random_partition(rng, 0, min(n, CHARACTERS_MAX_MU)),
                                lam])
            else:
                queries.append([op, _random_class_vector(rng), lam])
    rng.shuffle(queries)
    return [["CharacterTable", m] for m in CHARACTERS_TABLES] + queries


WORKLOADS = {"products": products, "sweep": sweep, "fillings": fillings,
             "characters": characters}


def generate(name: str, seed: int) -> list[list]:
    return WORKLOADS[name](seed)
