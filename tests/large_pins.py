"""SHA-256 pins of product expansions above the tier-1 sizes.

Tier-1 pins every ordered pair with |sigma| + |tau| <= 12 and (5,4,3)^2
(tests/test_class_algebra.py::test_route_pinned_bit_for_bit).  The pairs
below read character levels up to S_30, where a change to the column
kernel, its strip tables or the level sums can go wrong without touching
the smaller sizes.  Each digest hashes repr() of the expansion as a list of
(parts, coefficient) rows, keys in order, as _digest in that test does.
Run as a script from the checkout root, as tier-1 runs; it takes about
5 s on a 2-core x86-64 box with CPython 3.11, (8,8)^2 about 3.5 s of it,
the four sharing columns:

    PYTHONPATH=src python tests/large_pins.py

It exits 1 if any digest or term count differs.
"""

import hashlib
import sys
import time

from classconv.class_algebra import product_expansion
from classconv.partitions import Partition

PINS: list[tuple[tuple[int, ...], int, str]] = [
    ((2,) * 7, 450, "666ac188fb7ef09261bb31cdfc6e19a5ef0cd442bfcd8c0142e4a3450d6ec6fe"),
    ((7, 7), 1690, "1519c9127660b6ac59876e60cd9fdaa88bc44f8582022198a9b5448906f96a9e"),
    ((14,), 1882, "13b428958ec0a14e74a3f674b14d34c79e2402a738f5997fe459f30583ad94eb"),
    ((8, 8), 3904, "426bae24d16b1714403534e1f2ccc528e21c2a3a90c211e5e55d1318088fbccc"),
]


def main() -> int:
    failed = 0
    for parts, terms, want in PINS:
        start = time.perf_counter()
        square = Partition(parts)
        expansion = product_expansion(square, square)
        got = hashlib.sha256(repr([(k.parts, v) for k, v in expansion.items()]).encode())
        took = time.perf_counter() - start
        if (len(expansion), got.hexdigest()) == (terms, want):
            print(f"ok ({square})^2: {terms} terms ({took:.1f} s)")
        else:
            failed += 1
            print(f"FAIL ({square})^2: {len(expansion)} terms, sha256 {got.hexdigest()}; "
                  f"want {terms} terms, sha256 {want}", file=sys.stderr)
    print(f"{len(PINS) - failed}/{len(PINS)} large expansions match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
