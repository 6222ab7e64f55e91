"""
Brute-force oracles and the verification battery
================================================

Every closed form in the package has a brute-force counterpart computed
straight from the path basis.  The battery replays all of them on one
algebra; seeded random algebras extend the sweep.
"""

import random

from gpstable import analyze
from gpstable.fixtures import lambda_star
from gpstable.oracle import (
    bf_factorizations,
    bf_perfect_pairs,
    bf_ses_dims,
    bf_stable_hom,
    bf_stable_hom_table,
    bf_verify_perfect,
    random_algebra,
    verify_algebra,
)
from gpstable.perfect import _successor_words

alg = lambda_star()
an = analyze(alg)
q = alg.quiver

# A stable Hom space as a literal basis quotient.
dim, by_shift = bf_stable_hom(alg, q.path(["a1", "a2", "a3"]), q.path(["a1", "a2", "a3", "a1", "a2"]))
print("bf Hom dim:", dim, "pieces:", {k: [str(w) for w in ws] for k, ws in by_shift.items()})

# The battery's Hom table: one basis scan per target q, each path q.x looked
# up by its arrow suffixes, gives every pair's pieces at once.
paths = an.perfect.paths
print("bf Hom table equals the per-pair bf_stable_hom:",
      bf_stable_hom_table(alg, paths)
      == {(p, r): bf_stable_hom(alg, p, r)[1] for p in paths for r in paths})

# Perfectness checked against every non-zero path, no minimality shortcut.
print("bf perfect (a1.a2, a3.a1.a2.a3.a1.a2):",
      bf_verify_perfect(alg, q.path(["a1", "a2"]), q.path(["a3", "a1", "a2", "a3", "a1", "a2"])))

# Every perfect pair at once, from one zero row Z(p) = {q : pq = 0} per path:
# pq = 0 puts every path q.x in Z(p), so the definition's two conditions are
# the counts |Z(p)| = #{q.x} and #{p' : p'q = 0} = #{x.p}.
print("bf perfect pairs equal the pipeline's pair map:",
      bf_perfect_pairs(alg) == set(_successor_words(alg).items()))

# The short-exact-sequence dimension identity by raw path counting.
print("ses identity holds:",
      all(bf_ses_dims(alg, p, an.perfect.successor[p]) for p in an.perfect.paths))

# Exhaustive cut search confirms the unique co-elementary factorization.
facs = bf_factorizations(q.path(["a1", "a2", "a3", "a1", "a2", "a3"]), an.coelementary)
print("factorizations found:", [[str(f) for f in fac] for fac in facs])

# The full battery, on the fixture and on a seeded random algebra.
print("\nfixture battery:")
for c in verify_algebra(alg):
    print(f"  {'PASS' if c.ok else 'FAIL'}  {c.name}")

rng = random.Random(7)
sample = random_algebra(rng)
print("\nrandom algebra:", sample)
print("  relations:", [str(r) for r in sample.relations])
bad = [c for c in verify_algebra(sample) if not c.ok]
print("  failures:", bad or "none")
