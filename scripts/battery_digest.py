"""One SHA-256 over the oracle battery's rows on a fixed family of algebras.

Usage::

    PYTHONPATH=src python scripts/battery_digest.py

The family is lambda_star, N(3, 3), N(4, 2) and 150 draws of
``random_algebra(rng, 5, 8, 6)`` from ``rng = random.Random(2026)``; the
battery itself draws no random numbers, so ``verify_algebra`` gets none.
The digest covers every (row, ok, detail) in order, so a change that
leaves it unchanged gives the same verdicts and the same failure details.
Run it at two commits to check that a change left everything the battery
reports as it was.  Prints the digest, the row count and the failure
count; exits 2 when a row fails.
"""

from __future__ import annotations

import hashlib
import random
import sys

from gpstable import fixtures
from gpstable.oracle import random_algebra, verify_algebra

SEED = 2026
DRAWS = 150


def main() -> int:
    rng = random.Random(SEED)
    family = [fixtures.lambda_star(), fixtures.nakayama(3, 3), fixtures.nakayama(4, 2)]
    digest = hashlib.sha256()
    rows = failed = 0

    def feed(alg):
        nonlocal rows, failed
        for c in verify_algebra(alg):
            digest.update(repr((c.name, c.ok, c.detail)).encode())
            rows += 1
            failed += not c.ok

    for alg in family:
        feed(alg)
    for _ in range(DRAWS):
        feed(random_algebra(rng, 5, 8, 6))
    print(f"{digest.hexdigest()}  rows={rows} failed={failed}")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
